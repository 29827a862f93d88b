(** The synthesis-as-a-service load generator.

    Draws a seeded request mix — synthesis and execution jobs over six
    kernels crossed with a config sweep (unroll, optimization level,
    TLB size, wrapper style) — and drives it through a
    {!Vmht_serve.Server}, reporting throughput, latency quantiles and
    the store hit rate into a machine-readable manifest.

    The printed report is built only from the request list and the
    reply outcomes, both of which are deterministic, so stdout is
    byte-identical between a cold and a warm store and at any pool
    width — the timing-bearing numbers live exclusively in the
    manifest. *)

val subjects : string list
(** The six kernels the mix draws from. *)

val handle : Vmht_serve.Proto.request -> Vmht_serve.Proto.outcome
(** The full job handler: [Synthesize] through the flow (and the
    installed store), [Execute] through {!Common.run} on a fresh
    simulated SoC.  An input {!Common.run} rejects fails with the
    message the command line prints for it ({!Common.rejection}). *)

val mix :
  config:Vmht.Config.t ->
  requests:int ->
  seed:int ->
  Vmht_serve.Proto.request list
(** Deterministic in [(config, requests, seed)]; rids are [0..n-1]. *)

type report = {
  output : string;  (** deterministic, for stdout *)
  manifest : Vmht_obs.Json.t;  (** schema [vmht-loadgen/2]; carries timing *)
  failures : int;  (** replies with a [Failed] or incorrect outcome *)
  hit_rate : float;  (** store hit rate over this batch's synthesis keys *)
  perf_line : string;
      (** one timing-bearing summary line, for stderr — never stdout *)
}

val run :
  ?store:Vmht_serve.Store.t ->
  server:Vmht_serve.Server.t ->
  seed:int ->
  Vmht_serve.Proto.request list ->
  report
(** Run one batch and build the report.  [store] only feeds the
    manifest's store-counter section. *)
