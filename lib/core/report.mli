(** Consolidated post-run reporting: one place that gathers what every
    component of the SoC observed during an execution and renders it
    for humans (the CLI's [--stats] view) or for the experiment
    harness. *)

type t = {
  workload : string;
  mode : string;
  size : int;
  result : Launch.result;
  bus : Vmht_mem.Bus.stats;
  dram_row_hit_rate : float;
  cpu : Vmht_cpu.Cpu.stats;
  cpu_cache : Vmht_mem.Cache.stats;
  mapped_pages : int;
  counters : (string * int) list;  (** {!Soc.counters} at gather *)
  gauges : (string * float) list;  (** {!Soc.gauges} at gather *)
  histograms : (string * Vmht_obs.Histogram.t) list;
      (** {!Soc.histograms}: the SoC's own, read when rendered *)
}

val gather :
  Soc.t -> workload:string -> mode:string -> size:int -> Launch.result -> t
(** Read all component statistics after a run on [soc]. *)

val to_string : t -> string
(** Multi-section human-readable rendering, ending with the run's
    cycle-attribution waterfall. *)

val to_json : t -> Vmht_obs.Json.t
(** Machine-readable report: run identity, phases, attribution and a
    [metrics] object of the counters, gauges and histograms, each in
    name order, a histogram as its count, sum, min, max, p50–p99 and
    populated buckets (the CLI's [--metrics-json] payload). *)
