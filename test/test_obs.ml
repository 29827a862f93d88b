(* Observability layer: JSON round-trips, histograms, the SoC's counters, the
   trace ring's retention properties, Chrome-trace export shape, and —
   the load-bearing invariant — per-phase cycle attribution summing
   exactly to every run's total cycles, for every workload in every
   interface style. *)

open Vmht_obs
module Workload = Vmht_workloads.Workload
module Registry = Vmht_workloads.Registry

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_str = Alcotest.(check string)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* ------------------------- Json ----------------------------------- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("null", Json.Null);
        ("flag", Json.Bool true);
        ("int", Json.Int (-42));
        ("float", Json.Float 1.5);
        ("str", Json.String "hi \"there\"\n\ttab");
        ("list", Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ]);
        ("nested", Json.Obj [ ("k", Json.String "v") ]);
      ]
  in
  let parsed = Json.of_string (Json.to_string doc) in
  check_bool "compact round-trips" true (parsed = doc);
  let parsed = Json.of_string (Json.to_string_pretty doc) in
  check_bool "pretty round-trips" true (parsed = doc)

let test_json_escapes () =
  let s = Json.to_string (Json.String "a\"b\\c\nd") in
  check_str "escaped" {|"a\"b\\c\nd"|} s;
  (match Json.of_string {|"Aé"|} with
   | Json.String v -> check_str "unicode escapes decode" "A\xc3\xa9" v
   | _ -> Alcotest.fail "expected a string");
  match Json.of_string {|"😀"|} with
  | Json.String v ->
    check_str "surrogate pair decodes" "\xf0\x9f\x98\x80" v
  | _ -> Alcotest.fail "expected a string"

let test_json_parse_errors () =
  let fails s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  check_bool "truncated object" true (fails {|{"a": 1|});
  check_bool "trailing garbage" true (fails "[1, 2] x");
  check_bool "bare word" true (fails "frue")

(* ------------------------- Histograms ----------------------------- *)

let test_histogram_buckets () =
  (* HDR geometry: 16 sub-buckets per power of two, so values below 32
     are recorded exactly and every bucket above keeps relative width
     <= 1/16. *)
  for v = 0 to 31 do
    check_int "small values are exact" v (Histogram.bucket_index v);
    check_int "small uppers are the value" v (Histogram.bucket_upper v)
  done;
  check_int "32 opens the first lossy bucket" 32 (Histogram.bucket_index 32);
  check_int "33 shares it" 32 (Histogram.bucket_index 33);
  check_int "34 is the next" 33 (Histogram.bucket_index 34);
  (* Every bucket's upper bound must land in that bucket, the next
     value in the next one, and the bucket width must respect the
     1/16 relative-error contract. *)
  for k = 1 to 400 do
    let lower = Histogram.bucket_lower k in
    let upper = Histogram.bucket_upper k in
    check_int "lower in bucket" k (Histogram.bucket_index lower);
    check_int "upper in bucket" k (Histogram.bucket_index upper);
    check_int "upper+1 in next" (k + 1) (Histogram.bucket_index (upper + 1));
    check_bool "relative width <= 1/16" true
      (16 * (upper - lower) <= max 16 lower)
  done

let test_histogram_snapshot () =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) [ 1; 1; 2; 3; 100 ];
  let s = Histogram.summary h in
  check_int "count" 5 s.Histogram.count;
  check_int "sum" 107 s.Histogram.sum;
  check_int "min" 1 s.Histogram.min;
  check_int "max" 100 s.Histogram.max;
  (* Rank ceil(0.5 * 5) = 3 -> the third smallest sample, exactly. *)
  check_int "p50" 2 s.Histogram.p50;
  (* p95 hits the top bucket; quantiles clamp to the observed max. *)
  check_int "p95 clamped to max" 100 s.Histogram.p95;
  check_int "p99 clamped to max" 100 s.Histogram.p99

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.observe a) [ 1; 5; 1000 ];
  List.iter (Histogram.observe b) [ 2; 700000 ];
  Histogram.merge_into ~src:b ~dst:a;
  check_int "merged count" 5 (Histogram.count a);
  check_int "merged sum" (1 + 5 + 1000 + 2 + 700000) (Histogram.sum a);
  check_int "merged min" 1 (Histogram.min_value a);
  check_int "merged max" 700000 (Histogram.max_value a);
  check_int "src untouched" 2 (Histogram.count b)

(* Quantiles against the naive sorted-array oracle: the histogram must
   return exactly the upper bound of the bucket holding the oracle's
   rank-ceil(q*n) element, clamped to the observed max. *)
let quantile_oracle_property =
  QCheck.Test.make ~count:300 ~name:"histogram quantile = bucketed oracle"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 200) (int_range 0 2_000_000))
        (int_range 1 99))
    (fun (samples, pct) ->
      QCheck.assume (samples <> []);
      let q = float_of_int pct /. 100. in
      let h = Histogram.create () in
      List.iter (Histogram.observe h) samples;
      let sorted = List.sort compare samples in
      let n = List.length sorted in
      let rank =
        (* First 1-based rank r with r >= q*n — the element the
           cumulative bucket scan stops at. *)
        let r = int_of_float (ceil (q *. float_of_int n)) in
        max 1 (min n r)
      in
      let oracle = List.nth sorted (rank - 1) in
      let expected =
        min (Histogram.max_value h)
          (Histogram.bucket_upper (Histogram.bucket_index oracle))
      in
      Histogram.quantile h q = expected
      (* And the bucketed answer is within 1/16 of the true value. *)
      && Histogram.quantile h q >= oracle
      && 16 * (Histogram.quantile h q - oracle) <= max 16 oracle)

(* A fresh SoC lists its 49 component counters and no histogram; a
   pass's counter appears with the first launch that ran it (even at
   zero rewrites) and sums over launches, the abort count appears with
   the first abort, and every list stays in name order. *)
let test_metrics_snapshot_sorted () =
  let soc = Vmht.Soc.create Vmht.Config.default in
  let sorted l =
    let names = List.map fst l in
    names = List.sort_uniq String.compare names
  in
  check_int "fixed counters" 49 (List.length (Vmht.Soc.counters soc));
  check_bool "no histogram before a sample" true
    (Vmht.Soc.histograms soc = []);
  check_bool "gauges sorted" true
    (List.map fst (Vmht.Soc.gauges soc)
    = [ "bus.max_queue"; "dram.row_hit_rate" ]);
  Vmht.Soc.add_pass_rewrites soc ~pass:"dce" 2;
  Vmht.Soc.add_pass_rewrites soc ~pass:"cse" 0;
  Vmht.Soc.add_pass_rewrites soc ~pass:"dce" 3;
  Vmht.Soc.count_thread_abort soc;
  let counters = Vmht.Soc.counters soc in
  check_int "summed over launches" 5
    (List.assoc "pass.dce.rewrites" counters);
  check_int "listed at zero" 0 (List.assoc "pass.cse.rewrites" counters);
  check_int "aborts" 1 (List.assoc "fault.thread_aborts" counters);
  check_int "three more" 52 (List.length counters);
  check_bool "counters sorted" true (sorted counters)

(* ------------------------- Trace ring (qcheck) -------------------- *)

let ring_property =
  QCheck.Test.make ~count:200
    ~name:"trace ring keeps the newest [capacity] events"
    QCheck.(pair (int_range 1 40) (int_range 0 120))
    (fun (capacity, n) ->
      let tr = Vmht_sim.Trace.create ~capacity () in
      Vmht_sim.Trace.enable tr true;
      for i = 0 to n - 1 do
        Vmht_sim.Trace.record tr ~at:i ~component:"c"
          (Event.Note (string_of_int i))
      done;
      let events = Vmht_sim.Trace.events tr in
      Vmht_sim.Trace.count tr = min n capacity
      && Vmht_sim.Trace.dropped tr = max 0 (n - capacity)
      && List.length events = min n capacity
      && List.for_all2
           (fun (e : Event.t) expected -> e.Event.at = expected)
           events
           (List.init (min n capacity) (fun i -> max 0 (n - capacity) + i)))

(* ------------------------- Event tags ----------------------------- *)

(* One event of each kind: its tag is in [Event.labels], and the tags
   of all kinds are exactly that list. *)
let test_event_labels () =
  let kinds =
    [
      Event.Tlb_hit { vaddr = 0; asid = 0 };
      Event.Tlb_miss { vaddr = 0; asid = 0 };
      Event.Tlb2_hit { vaddr = 0; asid = 0 };
      Event.Tlb2_miss { vaddr = 0; asid = 0 };
      Event.Ptw_walk { vaddr = 0; levels = 1 };
      Event.Page_fault { vaddr = 0; asid = 0 };
      Event.Bus_txn { op = Event.Read; addr = 0; words = 1 };
      Event.Dram_row_hit { bank = 0 };
      Event.Dram_row_miss { bank = 0 };
      Event.Dma_burst { op = Event.Write; words = 1 };
      Event.Cache_hit { op = Event.Read; addr = 0 };
      Event.Cache_miss { op = Event.Write; addr = 0 };
      Event.Fsm_state { block = "L0" };
      Event.Phase_begin { phase = "stage" };
      Event.Phase_end { phase = "stage" };
      Event.Fault_inject { target = "bus"; fault = "delay" };
      Event.Fault_retry { target = "bus"; fault = "delay"; attempt = 1 };
      Event.Fault_abort { target = "bus"; fault = "delay" };
      Event.Fault_recover { target = "bus"; fault = "delay"; attempt = 1 };
      Event.Pass_run { pass = "dce"; rewrites = 0; kernel = "k" };
      Event.Note "note";
    ]
  in
  List.iter
    (fun k ->
      check_bool (Event.label k ^ " listed") true
        (List.mem (Event.label k) Event.labels))
    kinds;
  Alcotest.(check (list string))
    "one tag per kind, sorted" Event.labels
    (List.sort_uniq compare (List.map Event.label kinds))

(* ------------------------- Chrome trace --------------------------- *)

let sample_events =
  [
    {
      Event.at = 10;
      duration = 5;
      component = "bus";
      kind = Event.Bus_txn { op = Event.Read; addr = 0x40; words = 4 };
    };
    {
      Event.at = 12;
      duration = 0;
      component = "mmu";
      kind = Event.Tlb_miss { vaddr = 0x1000; asid = 0 };
    };
    {
      Event.at = 13;
      duration = 30;
      component = "mmu";
      kind = Event.Ptw_walk { vaddr = 0x1000; levels = 2 };
    };
  ]

let test_chrome_trace_shape () =
  let doc = Json.of_string (Chrome_trace.to_string sample_events) in
  (match Json.member "displayTimeUnit" doc with
   | Some (Json.String _) -> ()
   | _ -> Alcotest.fail "displayTimeUnit missing");
  let entries =
    match Json.member "traceEvents" doc with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "traceEvents array missing"
  in
  (* process_name + 2 thread_name metadata events + 3 payload events. *)
  check_int "entry count" 6 (List.length entries);
  List.iter
    (fun e ->
      check_bool "ph present" true
        (match Json.member "ph" e with
         | Some (Json.String _) -> true
         | _ -> false);
      check_bool "pid present" true (Json.member "pid" e <> None);
      check_bool "tid present" true (Json.member "tid" e <> None))
    entries;
  let payload =
    List.filter
      (fun e -> Json.member "ph" e <> Some (Json.String "M"))
      entries
  in
  check_int "payload count" 3 (List.length payload);
  List.iter
    (fun e ->
      check_bool "ts present" true
        (match Json.member "ts" e with Some (Json.Int _) -> true | _ -> false))
    payload;
  (* The bus span comes out as a complete event with its duration. *)
  let bus =
    List.find
      (fun e -> Json.member "cat" e = Some (Json.String "bus"))
      payload
  in
  check_bool "span is ph=X" true (Json.member "ph" bus = Some (Json.String "X"));
  check_bool "dur carried" true (Json.member "dur" bus = Some (Json.Int 5));
  check_bool "ts is start" true (Json.member "ts" bus = Some (Json.Int 10));
  (* Instants are thread-scoped. *)
  let miss =
    List.find
      (fun e -> Json.member "name" e = Some (Json.String "tlb_miss"))
      payload
  in
  check_bool "instant is ph=i" true
    (Json.member "ph" miss = Some (Json.String "i"))

(* ------------------------- Attribution ---------------------------- *)

let test_waterfall_renders () =
  let a =
    {
      Attribution.translate = 100;
      walk = 200;
      fault = 0;
      bus_wait = 50;
      dram = 400;
      compute = 1000;
      dma_stage = 0;
      drain = 250;
    }
  in
  check_int "total" 2000 (Attribution.total a);
  let s = Attribution.waterfall a in
  check_bool "compute row" true (contains s "compute");
  check_bool "zero rows dropped" true (not (contains s "fault"))

(* Small sizes (mirroring test_system) keep the full sweep quick while
   still crossing several pages. *)
let attr_size (w : Workload.t) =
  match w.Workload.name with
  | "mmul" -> 8
  | "spmv" -> 128
  | "tree_search" -> 256
  | _ -> 1024

let test_attribution_sums_to_total () =
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun mode ->
          let o =
            Vmht_eval.Common.run mode w ~size:(attr_size w)
          in
          let r = o.Vmht_eval.Common.result in
          let a = r.Vmht.Launch.attribution in
          let label what =
            Printf.sprintf "%s/%s: %s" w.Workload.name
              (Vmht_eval.Common.mode_name mode)
              what
          in
          List.iter
            (fun (seg, v) ->
              check_bool (label (seg ^ " non-negative")) true (v >= 0))
            (Attribution.to_list a);
          check_int
            (label "attribution sums to total_cycles")
            r.Vmht.Launch.total_cycles (Attribution.total a))
        [ Vmht_eval.Common.Sw; Vmht_eval.Common.Vm; Vmht_eval.Common.Dma ])
    Registry.all

let test_metrics_cover_components () =
  let o =
    Vmht_eval.Common.run ~observe:true Vmht_eval.Common.Vm
      (Registry.find "vecadd") ~size:512
  in
  let soc = o.Vmht_eval.Common.soc in
  let report =
    Vmht.Report.gather soc ~workload:"vecadd" ~mode:"vm" ~size:512
      o.Vmht_eval.Common.result
  in
  let counters = report.Vmht.Report.counters in
  let positive name =
    match List.assoc_opt name counters with
    | Some v -> v > 0
    | None -> false
  in
  List.iter
    (fun name -> check_bool (name ^ " > 0") true (positive name))
    [
      "tlb.lookups";
      "ptw.walks";
      "mmu.accesses";
      "bus.reads";
      "bus.words_moved";
      "dram.accesses";
      "stream_buffer.read_misses";
    ];
  check_bool "counter exists even when zero" true
    (List.mem_assoc "dma.transfers" counters);
  (* Observers fed the duration histograms while the run was traced. *)
  let hist name = List.assoc_opt name report.Vmht.Report.histograms in
  (match hist "bus.txn_cycles" with
   | Some h -> check_bool "bus latency samples" true (Histogram.count h > 0)
   | None -> Alcotest.fail "bus.txn_cycles histogram missing");
  (* And the machine-readable report parses back as JSON. *)
  let json =
    Json.of_string (Json.to_string (Vmht.Report.to_json report))
  in
  check_bool "attribution in report json" true
    (Json.member "attribution" json <> None)

let test_dma_burst_events () =
  let o =
    Vmht_eval.Common.run ~observe:true Vmht_eval.Common.Dma
      (Registry.find "vecadd") ~size:256
  in
  let events =
    Vmht_sim.Trace.events (Vmht.Soc.trace o.Vmht_eval.Common.soc)
  in
  check_bool "dma bursts observed" true
    (List.exists
       (fun (e : Event.t) ->
         match e.Event.kind with Event.Dma_burst _ -> true | _ -> false)
       events);
  check_bool "phase markers observed" true
    (List.exists
       (fun (e : Event.t) ->
         match e.Event.kind with
         | Event.Phase_begin { phase = "stage" } -> true
         | _ -> false)
       events)

(* ------------------------- Spans ---------------------------------- *)

let test_span_nesting_parallel () =
  Vmht_obs.Span.enable true;
  Vmht_par.Parmap.set_jobs 4;
  Fun.protect
    ~finally:(fun () ->
      Vmht_par.Parmap.shutdown ();
      Vmht_obs.Span.enable false)
    (fun () ->
      let sum =
        Span.with_span ~cat:"test" "sweep" (fun () ->
            List.fold_left ( + ) 0
              (Vmht_par.Parmap.map
                 (fun x ->
                   Span.with_span ~cat:"test" "inner" (fun () -> x * 2))
                 (List.init 16 Fun.id)))
      in
      check_int "pool still computes" (16 * 15) sum;
      let spans = Span.spans () in
      check_int "sweep + 16 tasks + 16 inners" 33 (List.length spans);
      let by_id =
        List.fold_left
          (fun acc (s : Span.t) -> (s.Span.id, s) :: acc)
          [] spans
      in
      check_int "ids unique" (List.length spans) (List.length by_id);
      let sweep =
        List.find (fun (s : Span.t) -> s.Span.name = "sweep") spans
      in
      List.iter
        (fun (s : Span.t) ->
          check_bool (s.Span.name ^ ": begin before end (seq)") true
            (s.Span.seq0 < s.Span.seq1);
          check_bool (s.Span.name ^ ": non-negative duration") true
            (s.Span.t1_ns >= s.Span.t0_ns);
          (match s.Span.parent with
           | None -> ()
           | Some pid -> (
             match List.assoc_opt pid by_id with
             | None -> Alcotest.fail (s.Span.name ^ ": dangling parent")
             | Some p ->
               (* Same track, and strictly nested in global begin/end
                  order — true whatever the scheduler did. *)
               check_int (s.Span.name ^ ": parent on same tid") p.Span.tid
                 s.Span.tid;
               check_bool (s.Span.name ^ ": nested inside parent") true
                 (p.Span.seq0 < s.Span.seq0 && s.Span.seq1 < p.Span.seq1)));
          if String.length s.Span.name >= 5 && String.sub s.Span.name 0 5 = "task:"
          then
            check_bool "task flows from the submitting sweep" true
              (s.Span.flow_from = Some sweep.Span.id))
        spans;
      (* The Chrome export stays structurally sound: every X event
         carries pid/tid/ts/dur and flow pairs come s-then-f. *)
      let doc = Span.to_chrome_json spans in
      match Json.member "traceEvents" doc with
      | Some (Json.List evs) ->
        check_bool "export non-empty" true (List.length evs > List.length spans)
      | _ -> Alcotest.fail "traceEvents missing")

(* ------------------------- Phase profiler ------------------------- *)

let test_profile_exact_attribution_engine () =
  Profile.enable true;
  Fun.protect
    ~finally:(fun () -> Profile.enable false)
    (fun () ->
      let eng = Vmht_sim.Engine.create () in
      (* Host time spent in a phase within one dispatch: no wait, so
         no dispatch boundary falls inside it. *)
      let burn_ms = 5. in
      let burn () =
        let t0 = Unix.gettimeofday () in
        while Unix.gettimeofday () -. t0 < burn_ms /. 1e3 do
          ()
        done
      in
      Vmht_sim.Engine.spawn eng (fun () ->
          Vmht_sim.Engine.with_phase eng Profile.Actor (fun () ->
              Vmht_sim.Engine.wait_on eng 10);
          Vmht_sim.Engine.with_phase eng Profile.Memory (fun () ->
              Vmht_sim.Engine.wait_on eng 5;
              Vmht_sim.Engine.with_phase eng Profile.Translate (fun () ->
                  Vmht_sim.Engine.wait_on eng 7);
              burn ());
          Vmht_sim.Engine.wait_on eng 3);
      Vmht_sim.Engine.run eng;
      let t = Profile.totals () in
      let host_ms p = t.Profile.host_ns.(Profile.phase_index p) /. 1e6 in
      check_bool "the burn is charged to memory" true
        (host_ms Profile.Memory >= burn_ms);
      check_int "one engine" 1 t.Profile.engines;
      check_int "engine total" 25 t.Profile.engine_cycles;
      let ph p = t.Profile.cycles.(Profile.phase_index p) in
      check_int "actor cycles" 10 (ph Profile.Actor);
      check_int "memory cycles" 5 (ph Profile.Memory);
      check_int "translate cycles" 7 (ph Profile.Translate);
      check_int "dispatch gets the rest" 3 (ph Profile.Dispatch);
      check_int "attribution sums exactly" t.Profile.engine_cycles
        (Profile.cycle_sum t);
      check_bool "dispatch batches observed" true
        (Histogram.count t.Profile.batch > 0))

let test_profile_exact_attribution_end_to_end () =
  Profile.enable true;
  Fun.protect
    ~finally:(fun () -> Profile.enable false)
    (fun () ->
      List.iter
        (fun mode ->
          ignore
            (Vmht_eval.Common.run mode (Registry.find "vecadd") ~size:512))
        [ Vmht_eval.Common.Sw; Vmht_eval.Common.Vm; Vmht_eval.Common.Dma ];
      let t = Profile.totals () in
      check_bool "engines ran" true (t.Profile.engines >= 3);
      check_bool "cycles simulated" true (t.Profile.engine_cycles > 0);
      check_int "attribution sums exactly across every run"
        t.Profile.engine_cycles (Profile.cycle_sum t);
      (* The VM style must show translation work; every style touches
         memory. *)
      check_bool "translate attributed" true
        (t.Profile.cycles.(Profile.phase_index Profile.Translate) > 0);
      check_bool "memory attributed" true
        (t.Profile.cycles.(Profile.phase_index Profile.Memory) > 0);
      (* JSON export parses back and carries all four phases. *)
      let json = Json.of_string (Json.to_string (Profile.to_json t)) in
      match Json.member "phases" json with
      | Some (Json.Obj phases) -> check_int "four phases" 4 (List.length phases)
      | _ -> Alcotest.fail "phases object missing")

(* ------------------------- Perf diff ------------------------------ *)

(* A vmht-bench/4 manifest: per experiment, its wall seconds and the
   sums of its run ledger. *)
let manifest ?(schema = "vmht-bench/4") rows =
  Json.Obj
    [
      ("schema", Json.String schema);
      ( "experiments",
        Json.List
          (List.map
             (fun (name, seconds, counts) ->
               Json.Obj
                 [
                   ("name", Json.String name);
                   ("kind", Json.String "run");
                   ("seconds", Json.Float seconds);
                   ("runs", Json.Int 4);
                   ("ns_per_run", Json.Float (seconds *. 1e9 /. 4.));
                   ( "counts",
                     Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counts)
                   );
                   ("output_bytes", Json.Int 100);
                 ])
             rows) );
      ("total_seconds", Json.Float 1.0);
    ]

let counts cycles = [ ("cycles", cycles); ("engine.dispatches", 7) ]

let test_perf_diff_identical () =
  let m = manifest [ ("fig1", 0.5, counts 120); ("table2", 1.25, counts 90) ] in
  let r = Perf_diff.diff ~old_manifest:m ~new_manifest:m () in
  check_bool "no regressions" true (r.Perf_diff.regressions = []);
  check_bool "nothing moved" true (r.Perf_diff.moved = []);
  check_bool "nothing one-sided" true
    (r.Perf_diff.dropped = [] && r.Perf_diff.added = []);
  check_bool "complete" true (Perf_diff.complete r);
  check_int "host-time rows compared" 5 (List.length r.Perf_diff.rows);
  check_int "counts compared" 4 r.Perf_diff.counts;
  check_bool "verdict ok" true
    (contains
       (Perf_diff.render ~threshold:10. r)
       "ok: 5 metric(s) within +10.0%, 4 count(s) equal")

let test_perf_diff_regression () =
  let old_m = manifest [ ("fig1", 0.5, counts 120) ] in
  let new_m = manifest [ ("fig1", 0.5 *. 1.25, counts 120) ] in
  let r = Perf_diff.diff ~threshold:10. ~old_manifest:old_m ~new_manifest:new_m () in
  check_bool "seconds + ns_per_run regressed" true
    (List.length r.Perf_diff.regressions = 2);
  check_bool "flagged in render" true
    (contains (Perf_diff.render ~threshold:10. r) "REGRESSED");
  (* Below threshold passes, *)
  let r =
    Perf_diff.diff ~threshold:30. ~old_manifest:old_m ~new_manifest:new_m ()
  in
  check_bool "under threshold is clean" true (r.Perf_diff.regressions = []);
  (* and improvements never trip the gate. *)
  let r =
    Perf_diff.diff ~threshold:10. ~old_manifest:new_m ~new_manifest:old_m ()
  in
  check_bool "speedup is not a regression" true (r.Perf_diff.regressions = [])

let test_perf_diff_counts_exact () =
  let old_m = manifest [ ("fig1", 0.5, counts 120) ] in
  let new_m = manifest [ ("fig1", 0.5, counts 121) ] in
  (* A count that moves by one is reported at any threshold, *)
  let r =
    Perf_diff.diff ~threshold:1000. ~old_manifest:old_m ~new_manifest:new_m ()
  in
  check_bool "no host-time regression" true (r.Perf_diff.regressions = []);
  check_bool "the moved count, both values" true
    (r.Perf_diff.moved
    = [ { Perf_diff.count = "fig1.counts.cycles"; old_c = 120; new_c = 121 } ]);
  let text = Perf_diff.render ~threshold:1000. r in
  check_bool "MOVED with the signed delta" true
    (contains text "fig1.counts.cycles" && contains text "+1  MOVED");
  check_bool "verdict is not ok" true
    (contains text "moved: 1 count(s)" && not (contains text "ok:"));
  (* a count only NEW has is listed and passes, *)
  let extra =
    manifest [ ("fig1", 0.5, counts 120 @ [ ("dram.row_hits", 3) ]) ]
  in
  let r = Perf_diff.diff ~old_manifest:old_m ~new_manifest:extra () in
  Alcotest.(check (list string))
    "new count listed" [ "fig1.counts.dram.row_hits" ] r.Perf_diff.added;
  check_bool "new count passes" true
    (Perf_diff.complete r && r.Perf_diff.moved = []);
  (* and a count of OLD that NEW lacks fails. *)
  let r = Perf_diff.diff ~old_manifest:extra ~new_manifest:old_m () in
  Alcotest.(check (list string))
    "dropped count" [ "fig1.counts.dram.row_hits" ] r.Perf_diff.dropped;
  check_bool "dropped count fails" false (Perf_diff.complete r)

let test_perf_diff_missing_metric () =
  let old_m = manifest [ ("fig1", 0.5, counts 120); ("fig9", 0.5, counts 120) ] in
  let new_m = manifest [ ("fig1", 0.5, counts 120) ] in
  let r = Perf_diff.diff ~old_manifest:old_m ~new_manifest:new_m () in
  Alcotest.(check (list string))
    "every fig9 metric of OLD is missing from NEW"
    [
      "fig9.seconds";
      "fig9.ns_per_run";
      "fig9.counts.cycles";
      "fig9.counts.engine.dispatches";
    ]
    r.Perf_diff.dropped;
  check_bool "no regression, yet the gate fails" true
    (r.Perf_diff.regressions = [] && not (Perf_diff.complete r));
  let text = Perf_diff.render ~threshold:10. r in
  check_bool "listed in render" true (contains text "only in one manifest: OLD");
  check_bool "verdict is not ok" true
    (contains text "incomplete:" && not (contains text "ok:"));
  (* A metric only NEW has is listed but passes. *)
  let r = Perf_diff.diff ~old_manifest:new_m ~new_manifest:old_m () in
  check_bool "new-only metrics listed" true
    (List.length r.Perf_diff.added = 4 && r.Perf_diff.dropped = []);
  check_bool "new-only metrics pass" true (Perf_diff.complete r);
  (* Manifests without a metric to compare fail too. *)
  let empty = Json.Obj [ ("schema", Json.String "vmht-bench/4") ] in
  let r = Perf_diff.diff ~old_manifest:empty ~new_manifest:empty () in
  check_bool "nothing compared fails" true
    (r.Perf_diff.rows = [] && not (Perf_diff.complete r))

(* Host times of two build profiles do not compare: the diff names
   both, reads a manifest without the key as unknown and fails
   nothing, and prints no extra line when the profiles agree. *)
let test_perf_diff_build_profile () =
  let m = manifest [ ("fig1", 0.5, counts 120) ] in
  let built profile =
    match m with
    | Json.Obj fields ->
      Json.Obj (("build_profile", Json.String profile) :: fields)
    | j -> j
  in
  let diff old_m new_m =
    let r = Perf_diff.diff ~old_manifest:old_m ~new_manifest:new_m () in
    (r, Perf_diff.render ~threshold:10. r)
  in
  let _, plain = diff m m in
  let r, text = diff (built "dev") (built "release") in
  Alcotest.(check (pair string string))
    "both profiles" ("dev", "release") r.Perf_diff.build_profiles;
  Alcotest.(check string)
    "one line ahead of the table" ("build profile: dev -> release\n" ^ plain)
    text;
  check_bool "fails nothing" true
    (Perf_diff.complete r && r.Perf_diff.regressions = []
    && r.Perf_diff.moved = []);
  let _, text = diff m (built "release") in
  check_bool "absent key reads unknown" true
    (contains text "build profile: unknown -> release\n");
  let _, text = diff (built "release") (built "release") in
  Alcotest.(check string) "one profile: no extra line" plain text

let test_perf_diff_schema () =
  let check j = Perf_diff.check_manifest j in
  let ok j = Result.is_ok (check j) in
  let error j = match check j with Error e -> e | Ok _ -> "" in
  check_bool "bench manifest accepted" true (ok (manifest []));
  check_bool "older bench schema rejected" false
    (ok (manifest ~schema:"vmht-bench/3" []));
  check_bool "rejection says how to re-take" true
    (contains (error (manifest ~schema:"vmht-bench-eval/2" [])) "perf snapshot");
  check_bool "dse manifest rejected" false
    (ok (Json.Obj [ ("schema", Json.String "vmht-dse/1") ]));
  check_bool "schema-less document rejected" false (ok (Json.Obj []));
  (* A repeated experiment or micro name would pair rows wrongly. *)
  let twice = manifest [ ("fig4", 0.5, []); ("fig4", 0.6, []) ] in
  check_bool "repeated experiment named" true
    (contains (error twice) "\"fig4\"");
  let micro =
    Json.Obj
      [
        ("schema", Json.String "vmht-bench/4");
        ( "micro",
          Json.List
            (List.init 2 (fun _ ->
                 Json.Obj
                   [
                     ("name", Json.String "rtl.eval");
                     ("ns_per_run", Json.Float 1.);
                   ])) );
      ]
  in
  check_bool "repeated micro target named" true
    (contains (error micro) "\"rtl.eval\"")

let suite =
  [
    Alcotest.test_case "json: round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: escapes" `Quick test_json_escapes;
    Alcotest.test_case "json: parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "metrics: bucket boundaries" `Quick
      test_histogram_buckets;
    Alcotest.test_case "metrics: histogram snapshot" `Quick
      test_histogram_snapshot;
    Alcotest.test_case "histogram: merge" `Quick test_histogram_merge;
    QCheck_alcotest.to_alcotest quantile_oracle_property;
    Alcotest.test_case "metrics: snapshot sorted" `Quick
      test_metrics_snapshot_sorted;
    QCheck_alcotest.to_alcotest ring_property;
    Alcotest.test_case "spans: nesting well-formed under -j 4" `Quick
      test_span_nesting_parallel;
    Alcotest.test_case "profile: exact attribution (engine)" `Quick
      test_profile_exact_attribution_engine;
    Alcotest.test_case "profile: exact attribution (end to end)" `Quick
      test_profile_exact_attribution_end_to_end;
    Alcotest.test_case "perf diff: identical manifests" `Quick
      test_perf_diff_identical;
    Alcotest.test_case "perf diff: regression + improvement" `Quick
      test_perf_diff_regression;
    Alcotest.test_case "perf diff: counts are exact" `Quick
      test_perf_diff_counts_exact;
    Alcotest.test_case "perf diff: missing metric" `Quick
      test_perf_diff_missing_metric;
    Alcotest.test_case "perf diff: bench schemas only" `Quick
      test_perf_diff_schema;
    Alcotest.test_case "perf diff: build profiles named" `Quick
      test_perf_diff_build_profile;
    Alcotest.test_case "chrome: export shape" `Quick test_chrome_trace_shape;
    Alcotest.test_case "attribution: waterfall" `Quick test_waterfall_renders;
    Alcotest.test_case "attribution: sums to total (all workloads x styles)"
      `Quick test_attribution_sums_to_total;
    Alcotest.test_case "metrics: cover components" `Quick
      test_metrics_cover_components;
    Alcotest.test_case "events: dma bursts + phases" `Quick
      test_dma_burst_events;
    Alcotest.test_case "events: every kind's tag is listed" `Quick
      test_event_labels;
  ]
