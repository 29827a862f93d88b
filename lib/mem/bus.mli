(** Shared AXI-like interconnect in front of DRAM.

    One transaction holds the bus for arbitration + DRAM latency (+ one
    cycle per extra burst beat); concurrent masters serialize in FIFO
    order, which is how multi-accelerator contention arises in the
    scaling experiment.  All calls must run in simulation-process
    context. *)

type t

type stats = {
  reads : int;
  writes : int;
  words_moved : int;
  bus : Vmht_sim.Resource.stats;
}

val create : engine:Vmht_sim.Engine.t -> Phys_mem.t -> Dram.t -> t
(** A bus whose transactions run as processes of [engine], each paying
    2 cycles of arbitration before its DRAM access.  The bus waits on
    that handle, and every component built on the bus (caches, the
    CPU, MMUs, walkers, DMA engines) takes it from {!engine}, so no
    access on the memory path looks its engine up. *)

val engine : t -> Vmht_sim.Engine.t

val phys : t -> Phys_mem.t

val read_word : t -> int -> int
(** Timed single-word read. *)

val write_word : t -> int -> int -> unit
(** Timed single-word write. *)

val read_burst : t -> addr:int -> words:int -> int array
(** Timed sequential burst read (one bus transaction) into a fresh
    array. *)

val read_burst_into : t -> addr:int -> words:int -> int array -> pos:int -> unit
(** {!read_burst} into the given array from index [pos] on: the words
    land once the transaction's wait is over, and nothing is
    allocated. *)

val write_burst : t -> addr:int -> int array -> unit
(** Timed sequential burst write (one bus transaction). *)

val set_observer : t -> Vmht_obs.Event.emitter -> unit
(** Install an observer invoked (in process context) once per
    transaction with a typed {!Vmht_obs.Event.kind.Bus_txn} event
    carrying the transaction's latency — the hook the SoC's
    observability layer uses.  Without one no event is built. *)

val set_fault : t -> Vmht_fault.Injector.t -> unit
(** Attach a fault injector: a transaction may suffer a slave error
    ([bus_error]; error turnaround plus a full re-issue) or an extra
    contention window ([bus_contention]).  Both stretch the
    transaction in place — masters never observe a failure. *)

val stats : t -> stats

val utilization : t -> total_cycles:int -> float
