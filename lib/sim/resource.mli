(** A shared, serially-reusable resource (a bus, a DRAM channel, a DMA
    engine...).  Processes acquire it in FIFO order; utilization and
    queueing statistics are accumulated for the evaluation reports. *)

type t

type stats = {
  transactions : int;      (** completed acquire/release pairs *)
  busy_cycles : int;       (** cycles the resource was held *)
  wait_cycles : int;       (** total cycles processes spent queueing *)
  max_queue : int;         (** high-water mark of the wait queue *)
}

val create : engine:Engine.t -> t
(** A free resource whose processes run on [engine]. *)

val acquire : t -> unit
(** Block (FIFO) until the resource is free, then hold it.
    Must be called from process context. *)

val release : t -> unit
(** Release; the longest-waiting process (if any) becomes the holder. *)

val use : t -> cycles:int -> unit
(** [acquire], hold for [cycles], [release]. *)

val stats : t -> stats

val utilization : t -> total_cycles:int -> float
(** Fraction of [total_cycles] the resource was busy. *)
