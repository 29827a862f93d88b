(** DRAM timing model with per-bank open-row tracking.

    An access to the currently open row of its bank costs the CAS
    latency; any other access pays precharge + activate + CAS.  The
    model only produces latencies — data lives in {!Phys_mem} — so the
    bus can charge time and move words separately.

    The timings are constants, DDR3-ish numbers in 100 MHz fabric
    cycles: 14 cycles each for CAS, activate and precharge, 2 KiB rows
    and 8 banks. *)

type t

type stats = { accesses : int; row_hits : int; row_misses : int }

val create : unit -> t

val access_latency : t -> addr:int -> int
(** Latency of a single-beat access at [addr]; updates open-row state. *)

val burst_latency : t -> addr:int -> words:int -> int
(** Latency of a [words]-long sequential burst starting at [addr]:
    first beat as {!access_latency}, subsequent beats 1 cycle each,
    paying a fresh row activation whenever the burst crosses a row
    boundary. *)

val set_observer : t -> Vmht_obs.Event.emitter -> unit
(** Install an observer that receives an instant
    {!Vmht_obs.Event.kind.Dram_row_hit} / [Dram_row_miss] event per
    latency computation.  Inner beats of a burst that stay within an
    open row are counted as hits in {!stats} but do not emit events.
    Without an observer no event is built. *)

val set_fault : t -> Vmht_fault.Injector.t -> unit
(** Attach a fault injector: each latency computation may suffer a row
    activation failure ([dram_row_failure]) — a latency spike, after
    which the bank's row is left closed. *)

val stats : t -> stats

val row_hit_rate : t -> float
