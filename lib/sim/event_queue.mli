(** Binary min-heap of timestamped events.

    Events with equal timestamps pop in insertion order (a sequence
    number breaks ties), which keeps simulations deterministic. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> at:int -> 'a -> unit
(** Insert an event at absolute time [at]. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the earliest event, [None] if empty. *)

(** {2 Allocation-free variants}

    The engine's dispatch loop pops millions of events per run; these
    avoid the option/tuple boxing of {!pop} and {!peek_time}.  Both
    raise [Invalid_argument] on an empty queue — guard with
    {!is_empty}. *)

val min_time_exn : 'a t -> int
(** Timestamp of the earliest event. *)

val pop_payload_exn : 'a t -> 'a
(** Remove the earliest event and return just its payload (pair with
    {!min_time_exn} to learn its time first). *)

val length : 'a t -> int

val is_empty : 'a t -> bool
