(** Perf-regression gate: compare two [vmht-bench/4] manifests.

    Host time (per-experiment wall seconds and ns/run, micro-benchmark
    ns/run, total seconds) regresses when it grows by at least the
    threshold percentage.  Counts (each experiment's run-ledger sums,
    named [<experiment>.counts.<name>]) are deterministic and must be
    equal: a count that differs has moved, whatever the threshold.  A
    metric of the old manifest that the new one lacks makes the
    comparison incomplete (see {!complete}), so renames can't silently
    weaken the gate.  Each manifest's ["build_profile"] (the dune
    profile its binary was built in) is read too: host times of two
    profiles do not compare, so {!render} names a difference, but it
    fails nothing. *)

type row = {
  metric : string;  (** e.g. ["fig1.seconds"], ["micro.vm/.../run.ns_per_run"] *)
  old_v : float;
  new_v : float;
  delta_pct : float;  (** positive = slower *)
}

type moved = {
  count : string;  (** e.g. ["fig6.counts.engine.dispatches"] *)
  old_c : int;
  new_c : int;
}

type report = {
  rows : row list;  (** compared host-time metrics, manifest order *)
  regressions : row list;  (** rows with [delta_pct >= threshold] *)
  counts : int;  (** counts compared, equal or not *)
  moved : moved list;  (** counts that differ, manifest order *)
  dropped : string list;  (** metrics of OLD that NEW lacks *)
  added : string list;  (** metrics only NEW has — listed, never failing *)
  build_profiles : string * string;
      (** OLD's and NEW's ["build_profile"]; ["unknown"] where absent *)
}

val check_manifest : Json.t -> (Json.t, string) result
(** [Ok] for a manifest whose ["schema"] is ["vmht-bench/4"] and whose
    experiment and micro-target names are each unique; an error naming
    the schema (or its absence) or the repeated name otherwise. *)

val diff :
  ?threshold:float -> old_manifest:Json.t -> new_manifest:Json.t -> unit -> report
(** [threshold] is a percentage; default 10.  It applies to host time
    only. *)

val complete : report -> bool
(** At least one metric compared and none of OLD's missing from NEW.
    An incomplete report fails the gate whatever the deltas. *)

val render : threshold:float -> report -> string
(** Aligned table of the host-time rows and the moved counts, plus the
    verdict: moved counts, regressions, an incomplete comparison, or
    ok.  When the build profiles differ, a first line names both
    ([build profile: OLD -> NEW]). *)
