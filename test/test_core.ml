(* Unit tests for the core (Vmht) library: configuration helpers,
   wrapper area models, the synthesis flow, and SoC construction. *)

open Vmht
module Optypes = Vmht_hls.Optypes
module Workload = Vmht_workloads.Workload

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let vecadd = Vmht_workloads.Registry.find "vecadd"

(* ------------------------- Config --------------------------------- *)

let test_config_with_tlb () =
  let c = Config.with_tlb_entries Config.default 64 in
  check_int "entries set" 64 c.Config.mmu.Vmht_vm.Mmu.tlb.Vmht_vm.Tlb.entries;
  (* The base config is unchanged (records are immutable). *)
  check_int "default untouched" 16
    Config.default.Config.mmu.Vmht_vm.Mmu.tlb.Vmht_vm.Tlb.entries

let test_config_with_page_shift () =
  let c = Config.with_page_shift Config.default 14 in
  check_int "shift" 14 c.Config.page_shift

(* ------------------------- Wrapper -------------------------------- *)

let test_vm_area_grows_with_tlb () =
  let area entries =
    (Wrapper.vm_area
       (Config.with_tlb_entries Config.default entries).Config.mmu)
      .Optypes.lut
  in
  check_bool "64 entries cost more than 8" true (area 64 > area 8)

let test_vm_area_walker_costs () =
  let with_walker = Wrapper.vm_area Config.default.Config.mmu in
  let without =
    Wrapper.vm_area { Config.default.Config.mmu with Vmht_vm.Mmu.hw_walk = false }
  in
  check_bool "walker adds LUTs" true
    (with_walker.Optypes.lut > without.Optypes.lut)

let test_dma_area_has_bram () =
  let a = Wrapper.dma_area ~scratchpad_words:16384 ~windows:3 in
  check_bool "scratchpad BRAM counted" true (a.Optypes.bram > 0);
  let bigger = Wrapper.dma_area ~scratchpad_words:65536 ~windows:3 in
  check_bool "more scratchpad, more BRAM" true
    (bigger.Optypes.bram > a.Optypes.bram)

let test_wrapper_ports_differ () =
  check_bool "vm and dma expose different ports" true
    (Wrapper.ports Wrapper.Vm_iface <> Wrapper.ports Wrapper.Dma_iface)

(* ------------------------- Flow ----------------------------------- *)

let test_flow_total_is_sum () =
  let hw = Flow.run_exn
      (Flow.Request.of_kernel ~style:Wrapper.Vm_iface (Workload.kernel vecadd)) in
  let sum = Optypes.add_area hw.Flow.datapath_area hw.Flow.wrapper_area in
  check_bool "total = datapath + wrapper" true (hw.Flow.total_area = sum)

let test_flow_verilog_has_wrapper_ports () =
  let hw = Flow.run_exn
      (Flow.Request.of_kernel ~style:Wrapper.Vm_iface (Workload.kernel vecadd)) in
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  check_bool "ptw port present" true (contains hw.Flow.verilog "ptw_addr")

let test_flow_rejects_ill_typed () =
  check_bool "typed frontend error" true
    (match
       Flow.run
         (Flow.Request.of_source ~style:Wrapper.Vm_iface
            "kernel bad(x: int) { y = 1; }")
     with
     | Error (Flow.Frontend _) -> true
     | _ -> false)

let test_flow_synthesis_time_recorded () =
  let hw = Flow.run_exn
      (Flow.Request.of_kernel ~style:Wrapper.Vm_iface (Workload.kernel vecadd)) in
  check_bool "non-negative" true (hw.Flow.synthesis_seconds >= 0.)

let test_compile_sw_runs () =
  let func = Flow.compile_sw Config.default (Workload.kernel vecadd) in
  check_bool "has blocks" true (Vmht_ir.Ir.block_count func > 0)

(* compile_sw is memoized on what it reads: the opt level, the pass
   list and the kernel.  A memoized function runs as a fresh one does. *)
let test_compile_sw_memo () =
  Flow.reset_cache ();
  let kernel = Workload.kernel vecadd in
  let config = Config.default in
  let f = Flow.compile_sw config kernel in
  check_bool "same key, same function" true
    (f == Flow.compile_sw config kernel);
  check_bool "fields outside the key share it" true
    (f
    == Flow.compile_sw
         (Config.with_unroll (Config.with_tlb_entries config 64) 4)
         kernel);
  check_bool "an equal kernel parsed again shares it" true
    (f
    == Flow.compile_sw config
         (Vmht_lang.Parser.parse_kernel vecadd.Workload.source));
  check_bool "another opt level, another function" true
    (f != Flow.compile_sw (Config.with_opt_level config 0) kernel);
  check_bool "another pass list, another function" true
    (f != Flow.compile_sw (Config.with_passes config (Some [ "dce" ])) kernel);
  let st = Flow.cache_stats () in
  check_int "not counted as synthesis" 0 (st.Flow.cache_hits + st.Flow.cache_misses);
  Flow.reset_cache ();
  let g = Flow.compile_sw config kernel in
  check_bool "compiled again after a reset" true (f != g);
  let run func =
    let soc = Soc.create config in
    let inst = vecadd.Workload.setup (Soc.aspace soc) ~size:64 ~seed:3 in
    let r =
      Launch.run_to_completion soc (fun () ->
          Launch.run_sw soc func
            { Launch.args = inst.Workload.args; buffers = inst.Workload.buffers })
    in
    (r.Launch.total_cycles, r.Launch.ret)
  in
  let memoized = run f in
  check_bool "it runs" true (fst memoized > 0);
  Alcotest.(check (pair int (option int)))
    "cycle-identical" memoized (run g)

(* Workload.kernel parses a source once and hands out that AST. *)
let test_workload_kernel_shared () =
  List.iter
    (fun (w : Workload.t) ->
      check_bool w.Workload.name true (Workload.kernel w == Workload.kernel w))
    Vmht_workloads.Registry.all

(* ------------------------- Soc ------------------------------------ *)

let test_soc_fresh_mmus () =
  let soc = Soc.create Config.default in
  let m1 = Soc.make_mmu soc in
  let m2 = Soc.make_mmu soc in
  check_bool "distinct MMU instances" true (m1 != m2);
  check_int "both registered" 2 (List.length (Soc.mmus soc))

let test_soc_run_executes () =
  let soc = Soc.create Config.default in
  let ran = ref false in
  Soc.run soc (fun () ->
      Vmht_sim.Engine.wait_on (Soc.engine soc) 5;
      ran := true);
  check_bool "main ran" true !ran;
  check_int "time advanced" 5 (Soc.now soc)

(* A main that parks on something nothing will signal is a deadlock,
   and the run says so, with the cycle it stopped at, rather than
   reporting a main that never ran. *)
let test_soc_run_names_deadlock () =
  let soc = Soc.create Config.default in
  match
    Launch.run_to_completion soc (fun () ->
        Vmht_sim.Engine.wait_on (Soc.engine soc) 7;
        Vmht_sim.Engine.suspend ignore)
  with
  | () -> Alcotest.fail "a parked main completed"
  | exception Vmht_sim.Engine.Stuck msg ->
    Alcotest.(check string)
      "stuck, named" "1 process(es) still suspended at t=7" msg

let test_report_gathers_and_renders () =
  let w = Vmht_workloads.Registry.find "vecadd" in
  let soc = Soc.create Config.default in
  let instance =
    w.Vmht_workloads.Workload.setup (Soc.aspace soc) ~size:128 ~seed:1
  in
  let result =
    Launch.run_to_completion soc (fun () ->
        let hw =
          Flow.run_exn
            (Flow.Request.of_kernel ~style:Wrapper.Vm_iface
               (Vmht_workloads.Workload.kernel w))
        in
        Launch.run_hw soc hw
          {
            Launch.args = instance.Vmht_workloads.Workload.args;
            buffers = [];
          })
  in
  let report =
    Report.gather soc ~workload:"vecadd" ~mode:"vm" ~size:128 result
  in
  let rendered = Report.to_string report in
  check_bool "mentions mmu" true
    (String.length rendered > 100
     &&
     let has sub =
       let n = String.length sub in
       let rec go i =
         i + n <= String.length rendered
         && (String.sub rendered i n = sub || go (i + 1))
       in
       go 0
     in
     has "mmu:" && has "bus:" && has "dram:")

let test_soc_trace_records () =
  let soc = Soc.create Config.default in
  Soc.enable_tracing soc;
  let base = Vmht_vm.Addr_space.alloc (Soc.aspace soc) ~bytes:4096 in
  let mmu = Soc.make_mmu soc in
  ignore
    (Launch.run_to_completion soc (fun () -> Vmht_vm.Mmu.load mmu base));
  let events = Vmht_sim.Trace.events (Soc.trace soc) in
  check_bool "events recorded" true (List.length events > 0);
  check_bool "mmu miss present" true
    (List.exists
       (fun e ->
         e.Vmht_obs.Event.component = "mmu"
         &&
         match e.Vmht_obs.Event.kind with
         | Vmht_obs.Event.Tlb_miss _ -> true
         | _ -> false)
       events);
  check_bool "bus traffic present" true
    (List.exists
       (fun e ->
         e.Vmht_obs.Event.component = "bus"
         &&
         match e.Vmht_obs.Event.kind with
         | Vmht_obs.Event.Bus_txn _ -> true
         | _ -> false)
       events)

let test_trace_off_by_default () =
  let soc = Soc.create Config.default in
  let base = Vmht_vm.Addr_space.alloc (Soc.aspace soc) ~bytes:4096 in
  let mmu = Soc.make_mmu soc in
  ignore (Launch.run_to_completion soc (fun () -> Vmht_vm.Mmu.load mmu base));
  check_int "nothing recorded" 0
    (Vmht_sim.Trace.count (Soc.trace soc))

(* ------------------------- Sysgen --------------------------------- *)

let test_sysgen_compose_fits () =
  let hw = Flow.run_exn
      (Flow.Request.of_kernel ~style:Wrapper.Vm_iface (Workload.kernel vecadd)) in
  let design = Sysgen.compose [ (hw, 2) ] in
  check_bool "two copies fit a 7020" true design.Sysgen.fits;
  check_bool "utilization reported" true
    (List.length design.Sysgen.utilization = 4);
  (* total = static + 2x thread *)
  let expected =
    Vmht_hls.Optypes.add_area Sysgen.static_overhead
      (Vmht_hls.Optypes.scale_area 2 hw.Flow.total_area)
  in
  check_bool "area accounting" true (design.Sysgen.total_area = expected)

let test_sysgen_overbudget_reported () =
  let hw = Flow.run_exn
      (Flow.Request.of_kernel ~style:Wrapper.Vm_iface (Workload.kernel vecadd)) in
  let design = Sysgen.compose [ (hw, 1000) ] in
  check_bool "does not fit" true (not design.Sysgen.fits);
  check_bool "utilization exceeds 1" true
    (List.exists (fun (_, f) -> f > 1.) design.Sysgen.utilization)

let test_sysgen_mmio_disjoint () =
  let hw = Flow.run_exn
      (Flow.Request.of_kernel ~style:Wrapper.Vm_iface (Workload.kernel vecadd)) in
  let design = Sysgen.compose [ (hw, 3); (hw, 2) ] in
  match design.Sysgen.placements with
  | [ a; b ] ->
    check_bool "second group above first" true
      (b.Sysgen.mmio_base >= a.Sysgen.mmio_base + (3 * 0x1000))
  | _ -> Alcotest.fail "expected two placements"

let test_sysgen_max_instances_monotone () =
  let hw = Flow.run_exn
      (Flow.Request.of_kernel ~style:Wrapper.Vm_iface (Workload.kernel vecadd)) in
  let small = Sysgen.max_instances ~device:Sysgen.zynq_7020 hw in
  let large = Sysgen.max_instances ~device:Sysgen.zynq_7045 hw in
  check_bool "some fit" true (small >= 1);
  check_bool "bigger device hosts more" true (large > small)

let test_sysgen_top_mentions_instances () =
  let hw = Flow.run_exn
      (Flow.Request.of_kernel ~style:Wrapper.Vm_iface (Workload.kernel vecadd)) in
  let design = Sysgen.compose [ (hw, 2) ] in
  let has sub =
    let s = Sysgen.top_verilog design in
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  check_bool "instance 0" true (has "u_vecadd_0");
  check_bool "instance 1" true (has "u_vecadd_1");
  check_bool "top module" true (has "module system_top")

let test_run_to_completion_propagates () =
  let soc = Soc.create Config.default in
  check_bool "exception propagates" true
    (match Launch.run_to_completion soc (fun () -> failwith "inner") with
     | _ -> false
     | exception Failure _ -> true)

let suite =
  [
    Alcotest.test_case "config: with_tlb_entries" `Quick test_config_with_tlb;
    Alcotest.test_case "config: with_page_shift" `Quick
      test_config_with_page_shift;
    Alcotest.test_case "wrapper: vm area grows with tlb" `Quick
      test_vm_area_grows_with_tlb;
    Alcotest.test_case "wrapper: walker costs" `Quick test_vm_area_walker_costs;
    Alcotest.test_case "wrapper: dma bram" `Quick test_dma_area_has_bram;
    Alcotest.test_case "wrapper: ports differ" `Quick test_wrapper_ports_differ;
    Alcotest.test_case "flow: total area" `Quick test_flow_total_is_sum;
    Alcotest.test_case "flow: wrapper ports in RTL" `Quick
      test_flow_verilog_has_wrapper_ports;
    Alcotest.test_case "flow: rejects ill-typed" `Quick
      test_flow_rejects_ill_typed;
    Alcotest.test_case "flow: synth time" `Quick
      test_flow_synthesis_time_recorded;
    Alcotest.test_case "flow: compile_sw" `Quick test_compile_sw_runs;
    Alcotest.test_case "flow: compile_sw memo" `Quick test_compile_sw_memo;
    Alcotest.test_case "workload: one AST per kernel" `Quick
      test_workload_kernel_shared;
    Alcotest.test_case "soc: fresh mmus" `Quick test_soc_fresh_mmus;
    Alcotest.test_case "soc: run executes" `Quick test_soc_run_executes;
    Alcotest.test_case "soc: a deadlocked run is named" `Quick
      test_soc_run_names_deadlock;
    Alcotest.test_case "launch: exception propagation" `Quick
      test_run_to_completion_propagates;
    Alcotest.test_case "report: gathers and renders" `Quick
      test_report_gathers_and_renders;
    Alcotest.test_case "trace: records when enabled" `Quick
      test_soc_trace_records;
    Alcotest.test_case "trace: off by default" `Quick test_trace_off_by_default;
    Alcotest.test_case "sysgen: compose fits" `Quick test_sysgen_compose_fits;
    Alcotest.test_case "sysgen: over budget" `Quick
      test_sysgen_overbudget_reported;
    Alcotest.test_case "sysgen: mmio disjoint" `Quick test_sysgen_mmio_disjoint;
    Alcotest.test_case "sysgen: max instances" `Quick
      test_sysgen_max_instances_monotone;
    Alcotest.test_case "sysgen: top RTL" `Quick
      test_sysgen_top_mentions_instances;
  ]
