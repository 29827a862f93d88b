(** A fault-injection plan: which perturbations the simulated SoC
    suffers, how often, and what each one costs.

    A plan is pure data inside {!Vmht.Config.t}; the decisions
    themselves are drawn by per-component {!Injector}s from independent
    splits of the deterministic {!Vmht_util.Rng}, so a (config, seed)
    pair replays the exact same fault schedule on every run and at any
    parallel-harness width.

    Rates are per-opportunity Bernoulli probabilities: per translation
    for TLB shootdowns, per page-table level read for walk stalls, per
    completed walk for transient walk failures, per bus transaction for
    bus errors and contention windows, per DRAM latency computation for
    row failures, and per staged DMA burst for transfer aborts. *)

type t = {
  enabled : bool;  (** master switch; [false] means zero overhead *)
  max_injections : int;
      (** per-injector budget: once spent, that component stops
          injecting.  Bounds every retry loop (a DMA-abort storm ends
          after at most this many re-runs), so recovery always
          terminates — even at rate 1.0. *)
  tlb_shootdown_rate : float;
      (** per translation: invalidate one TLB entry or the whole TLB *)
  walk_stall_rate : float;  (** per page-table level read *)
  walk_stall_cycles : int;
  walk_transient_rate : float;
      (** per completed walk: the walk fails transiently and the
          walker retries (bounded by [walk_retry_limit]) *)
  walk_retry_limit : int;
  walk_retry_cycles : int;
  bus_error_rate : float;
      (** per transaction: the slave errors, the master re-issues *)
  bus_error_cycles : int;  (** error-response turnaround *)
  bus_contention_rate : float;
      (** per transaction: an extra arbitration/contention window *)
  bus_contention_cycles : int;
  dram_row_failure_rate : float;
      (** per access: the activation fails; latency spike + the row
          must be re-opened by the next access *)
  dram_row_failure_cycles : int;
  dma_abort_rate : float;
      (** per staged burst: the transfer aborts; the owning thread
          must re-run its whole copy-in/compute/copy-out *)
  dma_abort_cycles : int;  (** abort-detection cost before the raise *)
}

val none : t
(** Disabled; all rates zero, default cycle costs and budgets. *)

val uniform : rate:float -> t
(** Every fault class at probability [rate] with the default cycle
    costs — the knob the [robust] experiment sweeps.  [rate = 0.]
    returns {!none}; a rate outside 0..1, or NaN, raises
    [Invalid_argument]. *)

val to_string : t -> string
(** Compact summary: ["off"], ["uniform 0.005"], or the per-class
    rates. *)
