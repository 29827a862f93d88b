(** Metrics registry: named counters, gauges and HDR-style latency
    histograms.

    Components (or the SoC on their behalf) register instruments under
    a ["component.metric"] naming convention; {!snapshot} produces one
    uniform, sorted view that the report renders as text or JSON.
    Counters hold exact integers, gauges hold floats (rates, ratios,
    high-water marks), and histograms are {!Histogram.t}: log-bucketed
    with 16 sub-buckets per power of two, so p50/p90/p95/p99 summaries
    carry at most 1/16 relative error across the full int range. *)

type t

type counter

type gauge

type histogram = Histogram.t

val create : unit -> t

val counter : t -> string -> counter
(** Get or create (registries are open: first use registers). *)

val gauge : t -> string -> gauge

val histogram : t -> string -> histogram

val incr : ?by:int -> counter -> unit

val set_counter : counter -> int -> unit
(** Absolute set — how component stats structs are synced in. *)

val set_gauge : gauge -> float -> unit

val observe : histogram -> int -> unit
(** Record one sample (clamped below at 0). *)

val bucket_index : int -> int
(** The histogram bucket a value lands in (see {!Histogram}). *)

val bucket_upper : int -> int
(** Inclusive upper bound of bucket [k]. *)

(** {2 Snapshots} *)

type histogram_snapshot = {
  count : int;
  sum : int;
  min : int;  (** 0 when empty *)
  max : int;
  p50 : int;  (** upper bound of the median's bucket, clamped to max *)
  p90 : int;
  p95 : int;
  p99 : int;
  buckets : (int * int) list;  (** (inclusive upper bound, count), populated buckets only *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;
  histograms : (string * histogram_snapshot) list;
}

val snapshot : t -> snapshot

val histogram_snapshot : histogram -> histogram_snapshot

val reset : t -> unit
(** Drop every registered instrument (for SoC reuse across runs). *)

val snapshot_to_json : snapshot -> Json.t
