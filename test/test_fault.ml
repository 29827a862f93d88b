(* Fault injection and recovery: deterministic schedules, zero cost
   when disabled, value-preserving recovery in every style, and the
   recovery-cost asymmetry (local VM recovery vs whole-thread
   copy-based re-runs) that the robust experiment reports. *)

module Common = Vmht_eval.Common
module Parmap = Vmht_par.Parmap
module Plan = Vmht_fault.Plan
module Injector = Vmht_fault.Injector

let find = Vmht_workloads.Registry.find

let at_width jobs f =
  Parmap.set_jobs jobs;
  Fun.protect ~finally:Parmap.shutdown f

let faulty_config ?(seed = Vmht.Config.default.Vmht.Config.seed) rate =
  Vmht.Config.with_seed
    (Vmht.Config.with_fault Vmht.Config.default (Plan.uniform ~rate))
    seed

(* --- injector streams --------------------------------------------- *)

let drain inj n =
  List.init n (fun _ ->
      (Injector.fires inj ~rate:0.5, Injector.coin inj, Injector.draw inj 1000))

let test_injector_deterministic () =
  let plan = Plan.uniform ~rate:0.5 in
  let make component = Injector.create ~plan ~seed:42 ~component in
  Alcotest.(check bool)
    "same (plan, seed, component): identical decision stream" true
    (drain (make "bus") 200 = drain (make "bus") 200);
  Alcotest.(check bool)
    "different components: independent streams" false
    (drain (make "bus") 200 = drain (make "dram") 200)

let test_disabled_draws_nothing () =
  let inj = Injector.create ~plan:Plan.none ~seed:42 ~component:"bus" in
  for _ = 1 to 100 do
    Alcotest.(check bool) "disabled plan never fires" false
      (Injector.fires inj ~rate:1.0)
  done;
  Alcotest.(check bool) "no stats accumulated" true
    (Injector.stats inj = Injector.zero_stats)

(* --- zero perturbation when nothing fires ------------------------- *)

(* All the injector plumbing wired up (enabled plan) but every rate
   zero: byte-for-byte the cycles of a run with no fault support at
   all, and not a single stat counted. *)
let test_zero_rates_zero_perturbation () =
  let w = find "list_sum" in
  let size = 256 in
  let clean = Common.run Common.Vm w ~size in
  let armed_config =
    Vmht.Config.with_fault Vmht.Config.default
      { Plan.none with Plan.enabled = true }
  in
  let armed = Common.run ~config:armed_config Common.Vm w ~size in
  assert (clean.Common.correct && armed.Common.correct);
  Alcotest.(check int) "identical cycles" (Common.cycles clean)
    (Common.cycles armed);
  Alcotest.(check bool) "injectors exist but did nothing" true
    (Vmht.Soc.fault_stats armed.Common.soc = Injector.zero_stats)

(* --- faults land, are observable, and preserve values ------------- *)

let test_vm_faults_observable () =
  let w = find "list_sum" in
  let o =
    Common.run
      ~config:(faulty_config 0.02)
      ~observe:true Common.Vm w ~size:w.Vmht_workloads.Workload.default_size
  in
  Alcotest.(check bool) "faulty VM run still correct" true o.Common.correct;
  let stats = Vmht.Soc.fault_stats o.Common.soc in
  Alcotest.(check bool) "faults were injected" true
    (stats.Injector.injected > 0);
  let labels =
    List.map
      (fun (e : Vmht_obs.Event.t) -> Vmht_obs.Event.label e.Vmht_obs.Event.kind)
      (Vmht_sim.Trace.events (Vmht.Soc.trace o.Common.soc))
  in
  Alcotest.(check bool) "Fault_inject events in the trace" true
    (List.mem "fault_inject" labels);
  Vmht.Soc.sync_metrics o.Common.soc;
  let counters =
    (Vmht_obs.Metrics.snapshot (Vmht.Soc.metrics o.Common.soc))
      .Vmht_obs.Metrics.counters
  in
  Alcotest.(check bool) "fault.injected counter surfaced" true
    (List.mem_assoc "fault.injected" counters)

let test_dma_abort_rerun () =
  let w = find "tree_search" in
  let o =
    Common.run
      ~config:(faulty_config 0.02)
      ~observe:true Common.Dma w ~size:w.Vmht_workloads.Workload.default_size
  in
  Alcotest.(check bool) "aborted copy-based run recovers" true o.Common.correct;
  let stats = Vmht.Soc.fault_stats o.Common.soc in
  Alcotest.(check bool) "DMA aborts were raised" true
    (stats.Injector.aborts > 0);
  Alcotest.(check bool)
    "lost attempts attributed to fault time" true
    (o.Common.result.Vmht.Launch.attribution.Vmht_obs.Attribution.fault > 0);
  let labels =
    List.map
      (fun (e : Vmht_obs.Event.t) -> Vmht_obs.Event.label e.Vmht_obs.Event.kind)
      (Vmht_sim.Trace.events (Vmht.Soc.trace o.Common.soc))
  in
  Alcotest.(check bool) "abort and recovery both in the trace" true
    (List.mem "fault_abort" labels && List.mem "fault_recover" labels)

(* --- recovery preserves values: the property ---------------------- *)

let kernels = [ "vecadd"; "list_sum"; "tree_search"; "bfs" ]

let arb_recovery_case =
  QCheck.make
    ~print:(fun (k, s, rate, seed) ->
      Printf.sprintf "(%s, %s, rate=%g, seed=%d)" (List.nth kernels k)
        (Common.mode_name (List.nth [ Common.Sw; Common.Dma; Common.Vm ] s))
        rate seed)
    QCheck.Gen.(
      quad
        (int_bound (List.length kernels - 1))
        (int_bound 2)
        (oneofl [ 0.002; 0.01; 0.05; 1.0 ])
        (int_bound 1000))

(* Injected faults may cost cycles but never values: a run under any
   fault plan computes exactly what the fault-free reference does.
   rate 1.0 doubles as the termination test — the injection budget
   bounds every retry loop, including DMA abort storms. *)
let prop_recovery_preserves_values =
  QCheck.Test.make ~count:25 ~name:"recovery = fault-free values (any rate)"
    arb_recovery_case
    (fun (k, s, rate, seed) ->
      let w = find (List.nth kernels k) in
      let style = List.nth [ Common.Sw; Common.Dma; Common.Vm ] s in
      let o =
        Common.run ~config:(faulty_config ~seed rate) ~seed style w ~size:64
      in
      o.Common.correct)

(* --- the robust experiment ---------------------------------------- *)

let test_robust_width_independent () =
  let render () = Vmht_eval.Experiment.(run (Option.get (find "robust"))) in
  let sequential = at_width 1 render in
  let parallel = at_width 4 render in
  Alcotest.(check string) "robust byte-identical at -j 4" sequential parallel

let overhead style (w : Vmht_workloads.Workload.t) =
  let size = w.Vmht_workloads.Workload.default_size in
  let clean = Common.run style w ~size in
  let faulty = Common.run ~config:(faulty_config 0.005) style w ~size in
  assert (clean.Common.correct && faulty.Common.correct);
  float_of_int (Common.cycles faulty - Common.cycles clean)
  /. float_of_int (Common.cycles clean)

(* The paper-level claim the subsystem exists to demonstrate: on the
   pointer kernels, VM threads recover locally while the copy-based
   style re-runs its whole copy-in/compute/copy-out. *)
let test_vm_recovery_cheaper_than_dma () =
  List.iter
    (fun name ->
      let w = find name in
      let vm = overhead Common.Vm w in
      let dma = overhead Common.Dma w in
      Alcotest.(check bool)
        (Printf.sprintf "%s: vm overhead %.3f < dma overhead %.3f" name vm dma)
        true (vm < dma))
    [ "list_sum"; "tree_search"; "bfs" ]

let suite =
  [
    Alcotest.test_case "injector: deterministic streams" `Quick
      test_injector_deterministic;
    Alcotest.test_case "injector: disabled draws nothing" `Quick
      test_disabled_draws_nothing;
    Alcotest.test_case "zero rates: zero perturbation" `Quick
      test_zero_rates_zero_perturbation;
    Alcotest.test_case "vm: faults observable, values intact" `Quick
      test_vm_faults_observable;
    Alcotest.test_case "dma: abort, re-run, recover" `Quick
      test_dma_abort_rerun;
    QCheck_alcotest.to_alcotest prop_recovery_preserves_values;
    Alcotest.test_case "robust: -j 1 = -j 4 (byte-identical)" `Slow
      test_robust_width_independent;
    Alcotest.test_case "pointer kernels: vm recovery < dma re-run" `Slow
      test_vm_recovery_cheaper_than_dma;
  ]
