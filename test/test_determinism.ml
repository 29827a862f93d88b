(* The parallel-evaluation contract: experiment output, report JSON and
   the mismatch log must be byte-identical whatever the domain-pool
   width, and the synthesis cache must hand back results
   indistinguishable from a fresh flow. *)

module Common = Vmht_eval.Common
module Parmap = Vmht_par.Parmap
module Flow = Vmht.Flow
module Fsm = Vmht_hls.Fsm

let check_string = Alcotest.(check string)

let at_width jobs f =
  Parmap.set_jobs jobs;
  Fun.protect ~finally:Parmap.shutdown f

(* A cheap, representative slice of the 16 experiments: end-to-end
   cycles (table3), synthesis statistics including the wall-clock
   column that only the memo cache keeps stable (table4), the
   synthesis-time figure (fig5), and a config-sweep ablation (abl2). *)
let subset = [ "table3"; "table4"; "fig5"; "abl2" ]

let run_experiment name =
  Vmht_eval.Experiment.(run (Option.get (find name)))

let test_experiments_width_independent () =
  let render () =
    String.concat "\n\012\n" (List.map run_experiment subset)
  in
  let sequential = at_width 1 render in
  let parallel = at_width 4 render in
  List.iteri
    (fun i name ->
      let nth s = List.nth (String.split_on_char '\012' s) i in
      check_string (name ^ " byte-identical at -j 4") (nth sequential)
        (nth parallel))
    subset;
  check_string "whole subset byte-identical" sequential parallel

let test_abl6_width_independent () =
  (* abl6 is the one experiment whose measurements flow through the
     shared L2 TLB and the walk caches — per-SoC state, so parallel
     evaluation must not bleed between subjects. *)
  let render () = run_experiment "abl6" in
  let sequential = at_width 1 render in
  let parallel = at_width 4 render in
  check_string "abl6 byte-identical at -j 4" sequential parallel

let report_json ~seed () =
  let o =
    Common.run ~seed ~observe:true Common.Vm
      (Vmht_workloads.Registry.find "vecadd")
      ~size:256
  in
  assert o.Common.correct;
  let report =
    Vmht.Report.gather o.Common.soc ~workload:"vecadd" ~mode:"vm" ~size:256
      o.Common.result
  in
  Vmht_obs.Json.to_string (Vmht.Report.to_json report)

let test_report_json_width_independent () =
  let seeds = [ 1; 2; 3; 4; 5; 6 ] in
  let sequential =
    at_width 1 (fun () -> List.map (fun seed -> report_json ~seed ()) seeds)
  in
  let parallel =
    at_width 4 (fun () ->
        Common.par_map (fun seed -> report_json ~seed ()) seeds)
  in
  List.iteri
    (fun i (s, p) ->
      check_string (Printf.sprintf "report.to_json for seed %d" (i + 1)) s p)
    (List.combine sequential parallel)

let test_par_map_ordered () =
  at_width 4 (fun () ->
      Alcotest.(check (list int))
        "par_map returns submission order"
        (List.init 200 (fun i -> i * i))
        (Common.par_map (fun i -> i * i) (List.init 200 Fun.id)))

(* --- synthesis cache ---------------------------------------------- *)

let workload_names = [ "vecadd"; "saxpy"; "dotprod"; "list_sum"; "spmv" ]

let arb_synthesis_case =
  QCheck.make
    ~print:(fun (w, style, unroll, entries) ->
      Printf.sprintf "(%s, %s, unroll=%d, tlb=%d)"
        (List.nth workload_names w)
        (if style = 0 then "vm" else "dma")
        unroll entries)
    QCheck.Gen.(
      quad
        (int_bound (List.length workload_names - 1))
        (int_bound 1)
        (oneofl [ 1; 2; 4 ])
        (oneofl [ 8; 16; 32 ]))

let prop_cached_equals_fresh =
  QCheck.Test.make ~count:40
    ~name:"cached synthesize = fresh synthesize (fsm, area, verilog)"
    arb_synthesis_case
    (fun (wi, si, unroll, entries) ->
      let w = Vmht_workloads.Registry.find (List.nth workload_names wi) in
      let style =
        if si = 0 then Vmht.Wrapper.Vm_iface else Vmht.Wrapper.Dma_iface
      in
      let config =
        Vmht.Config.with_tlb_entries
          (Vmht.Config.with_unroll Vmht.Config.default unroll)
          entries
      in
      let cached = Common.synthesize ~config style w in
      let fresh = Common.synthesize ~config ~cache:false style w in
      cached.Flow.fsm.Fsm.stats = fresh.Flow.fsm.Fsm.stats
      && cached.Flow.total_area = fresh.Flow.total_area
      && cached.Flow.datapath_area = fresh.Flow.datapath_area
      && cached.Flow.verilog = fresh.Flow.verilog)

let test_cache_counters () =
  Flow.reset_cache ();
  let w = Vmht_workloads.Registry.find "vecadd" in
  let config = Vmht.Config.default in
  let a = Common.synthesize ~config Vmht.Wrapper.Vm_iface w in
  let b = Common.synthesize ~config Vmht.Wrapper.Vm_iface w in
  Alcotest.(check bool) "repeat call returns the cached value" true (a == b);
  let stats = Flow.cache_stats () in
  Alcotest.(check int) "one miss" 1 stats.Flow.cache_misses;
  Alcotest.(check int) "one hit" 1 stats.Flow.cache_hits;
  Alcotest.(check int) "one entry" 1 stats.Flow.cache_entries;
  (* A config that fingerprints differently is a distinct key... *)
  let config' = Vmht.Config.with_unroll config 2 in
  ignore (Common.synthesize ~config:config' Vmht.Wrapper.Vm_iface w);
  Alcotest.(check int) "second entry" 2 (Flow.cache_stats ()).Flow.cache_entries;
  (* ...an uncached call touches neither counters nor table... *)
  ignore (Common.synthesize ~config ~cache:false Vmht.Wrapper.Vm_iface w);
  Alcotest.(check int) "cache:false bypasses the table" 2
    (Flow.cache_stats ()).Flow.cache_entries;
  (* ...and a sweep over one kernel synthesizes exactly once per config. *)
  Flow.reset_cache ();
  List.iter
    (fun _ -> ignore (Common.synthesize ~config Vmht.Wrapper.Vm_iface w))
    [ 1; 2; 3; 4; 5 ];
  let stats = Flow.cache_stats () in
  Alcotest.(check int) "sweep: one synthesis" 1 stats.Flow.cache_misses;
  Alcotest.(check int) "sweep: four table hits" 4 stats.Flow.cache_hits;
  let m = Vmht_obs.Metrics.create () in
  Flow.sync_cache_metrics m;
  let snap = Vmht_obs.Metrics.snapshot m in
  Alcotest.(check (list (pair string int)))
    "counters surface through vmht_obs"
    [
      ("flow.synth_cache_entries", 1);
      ("flow.synth_cache_hits", 4);
      ("flow.synth_cache_misses", 1);
    ]
    snap.Vmht_obs.Metrics.counters

let test_cache_concurrent_single_flight () =
  Flow.reset_cache ();
  let w = Vmht_workloads.Registry.find "mmul" in
  let config = Vmht.Config.default in
  let results =
    at_width 4 (fun () ->
        Common.par_map
          (fun _ -> Common.synthesize ~config Vmht.Wrapper.Vm_iface w)
          (List.init 8 Fun.id))
  in
  (match results with
   | first :: rest ->
     List.iter
       (fun hw ->
         Alcotest.(check bool)
           "every concurrent caller gets the same hw_thread" true
           (hw == first))
       rest
   | [] -> Alcotest.fail "no results");
  Alcotest.(check int) "single flight: one synthesis for 8 callers" 1
    (Flow.cache_stats ()).Flow.cache_misses

let suite =
  [
    Alcotest.test_case "experiments: -j 1 = -j 4 (byte-identical)" `Slow
      test_experiments_width_independent;
    Alcotest.test_case "abl6: -j 1 = -j 4 (byte-identical)" `Slow
      test_abl6_width_independent;
    Alcotest.test_case "report JSON: width-independent" `Quick
      test_report_json_width_independent;
    Alcotest.test_case "par_map: submission order" `Quick test_par_map_ordered;
    Alcotest.test_case "cache: counters, reuse, bypass" `Quick
      test_cache_counters;
    Alcotest.test_case "cache: concurrent single flight" `Quick
      test_cache_concurrent_single_flight;
    QCheck_alcotest.to_alcotest prop_cached_equals_fresh;
  ]
