type counter = { mutable count : int }

type gauge = { mutable value : float }

type histogram = Histogram.t

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let find_or_add table name make =
  match Hashtbl.find_opt table name with
  | Some v -> v
  | None ->
    let v = make () in
    Hashtbl.replace table name v;
    v

let counter t name = find_or_add t.counters name (fun () -> { count = 0 })

let gauge t name = find_or_add t.gauges name (fun () -> { value = 0. })

let histogram t name = find_or_add t.histograms name Histogram.create

let incr ?(by = 1) c = c.count <- c.count + by

let set_counter c v = c.count <- v

let set_gauge g v = g.value <- v

let bucket_index = Histogram.bucket_index

let bucket_upper = Histogram.bucket_upper

let observe = Histogram.observe

type histogram_snapshot = {
  count : int;
  sum : int;
  min : int;
  max : int;
  p50 : int;
  p90 : int;
  p95 : int;
  p99 : int;
  buckets : (int * int) list;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_snapshot) list;
}

let histogram_snapshot h =
  let s = Histogram.summary h in
  {
    count = s.Histogram.count;
    sum = s.Histogram.sum;
    min = s.Histogram.min;
    max = s.Histogram.max;
    p50 = s.Histogram.p50;
    p90 = s.Histogram.p90;
    p95 = s.Histogram.p95;
    p99 = s.Histogram.p99;
    buckets = Histogram.nonzero_buckets h;
  }

let sorted_bindings table value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters (t : t) = sorted_bindings t.counters (fun c -> c.count)

let snapshot (t : t) : snapshot =
  {
    counters = counters t;
    gauges = sorted_bindings t.gauges (fun g -> g.value);
    histograms = sorted_bindings t.histograms histogram_snapshot;
  }

let reset (t : t) =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.histograms

let histogram_snapshot_to_json (h : histogram_snapshot) =
  Json.Obj
    [
      ("count", Json.Int h.count);
      ("sum", Json.Int h.sum);
      ("min", Json.Int h.min);
      ("max", Json.Int h.max);
      ("p50", Json.Int h.p50);
      ("p90", Json.Int h.p90);
      ("p95", Json.Int h.p95);
      ("p99", Json.Int h.p99);
      ( "buckets",
        Json.List
          (List.map
             (fun (le, c) -> Json.List [ Json.Int le; Json.Int c ])
             h.buckets) );
    ]

let snapshot_to_json (s : snapshot) =
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.counters) );
      ( "gauges",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.gauges) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (k, h) -> (k, histogram_snapshot_to_json h))
             s.histograms) );
    ]
