(** Perf-regression gate: compare two bench manifests (any
    ["vmht-bench..."] schema).

    Extracts per-experiment wall seconds, ns/run and simulated cycle
    percentiles, plus micro-benchmark ns/run, and flags every metric
    that grew by at least the threshold percentage.  A metric of the
    old manifest that the new one lacks makes the comparison
    incomplete (see {!complete}), so renames can't silently weaken
    the gate. *)

type row = {
  metric : string;  (** e.g. ["fig1.seconds"], ["micro.vm/.../run.ns_per_run"] *)
  old_v : float;
  new_v : float;
  delta_pct : float;  (** positive = slower *)
}

type report = {
  rows : row list;  (** compared metrics, manifest order *)
  regressions : row list;  (** rows with [delta_pct >= threshold] *)
  dropped : string list;  (** metrics of OLD that NEW lacks *)
  added : string list;  (** metrics only NEW has — listed, never failing *)
  unattributed : string list;
      (** experiments (from either manifest) with no [ns_per_run] and
          no ["kind": "synthesis"] marking to explain its absence —
          reported, never silently skipped *)
}

val check_schema : Json.t -> (Json.t, string) result
(** [Ok] for a manifest whose ["schema"] starts with ["vmht-bench"];
    an error naming the schema (or its absence) otherwise. *)

val diff :
  ?threshold:float -> old_manifest:Json.t -> new_manifest:Json.t -> unit -> report
(** [threshold] is a percentage; default 10. *)

val complete : report -> bool
(** At least one metric compared and none of OLD's missing from NEW.
    An incomplete report fails the gate whatever the deltas. *)

val render : threshold:float -> report -> string
(** Aligned table plus the verdict: regressions, an incomplete
    comparison, or ok. *)
