(** Synchronization primitives for simulated threads.

    These mirror the pthreads primitives the hthreads programming model
    exposes; waiters park on the simulation engine and wake in FIFO
    order.  All operations must run in process context. *)

module Mutex : sig
  type t

  val create : unit -> t

  val lock : t -> unit

  val unlock : t -> unit
  (** Raises [Invalid_argument] if the mutex is not held. *)

  val with_lock : t -> (unit -> 'a) -> 'a
end

module Condvar : sig
  type t

  val create : unit -> t

  val wait : t -> Mutex.t -> unit
  (** Atomically releases the mutex and parks; re-acquires before
      returning. *)

  val signal : t -> unit
  (** Wake one waiter (no-op if none). *)

  val broadcast : t -> unit
end

module Completion : sig
  (** One-shot event carrying a value — the join mechanism. *)

  type 'a t

  val create : unit -> 'a t

  val complete : 'a t -> 'a -> unit
  (** Raises [Invalid_argument] if completed twice. *)

  val await : 'a t -> 'a
  (** Returns immediately if already completed. *)
end

module Barrier : sig
  type t

  val create : parties:int -> t

  val await : t -> unit
  (** Parks until [parties] processes have arrived, then releases all
      of them and resets for reuse. *)
end
