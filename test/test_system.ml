(* Full-system integration: every workload runs in all three execution
   styles on a fresh SoC; results must match the expected values and
   the per-style invariants (staging only for DMA, TLB activity only
   for VM, ...) must hold. *)

open Vmht
module Workload = Vmht_workloads.Workload
module Registry = Vmht_workloads.Registry
module Addr_space = Vmht_vm.Addr_space

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* Small sizes keep `dune runtest` quick; these exercise multiple pages
   nonetheless (4 KiB pages, 8-byte words). *)
let test_size (w : Workload.t) =
  match w.Workload.name with
  | "mmul" -> 8
  | "spmv" -> 128
  | "tree_search" -> 256
  | _ -> 1024

type mode = Sw | Vm | Dma

let mode_name = function Sw -> "sw" | Vm -> "vm" | Dma -> "dma"

let run_workload ?(config = Config.default) mode (w : Workload.t) ~size =
  let soc = Soc.create config in
  let instance = w.Workload.setup (Soc.aspace soc) ~size ~seed:42 in
  let request =
    { Launch.args = instance.Workload.args; buffers = instance.Workload.buffers }
  in
  let result =
    Launch.run_to_completion soc (fun () ->
        match mode with
        | Sw ->
          let func = Flow.compile_sw config (Workload.kernel w) in
          Launch.run_sw soc func request
        | Vm ->
          let hw = Flow.run_exn
              (Flow.Request.of_kernel ~config ~style:Wrapper.Vm_iface
                 (Workload.kernel w)) in
          Launch.run_hw soc hw request
        | Dma ->
          let hw = Flow.run_exn
              (Flow.Request.of_kernel ~config ~style:Wrapper.Dma_iface
                 (Workload.kernel w)) in
          Launch.run_hw soc hw request)
  in
  (soc, instance, result)

let check_result (w : Workload.t) mode instance (result : Launch.result) =
  let label what = Printf.sprintf "%s/%s: %s" w.Workload.name (mode_name mode) what in
  check_bool (label "return value") true
    (result.Launch.ret = instance.Workload.expected_ret);
  check_bool (label "cycles positive") true (result.Launch.total_cycles > 0)

let check_outputs soc (w : Workload.t) mode instance =
  let load = Addr_space.load_word (Soc.aspace soc) in
  check_bool
    (Printf.sprintf "%s/%s: outputs" w.Workload.name (mode_name mode))
    true
    (instance.Workload.check load)

let test_all_workloads_all_modes () =
  List.iter
    (fun w ->
      let size = test_size w in
      List.iter
        (fun mode ->
          let soc, instance, result = run_workload mode w ~size in
          check_result w mode instance result;
          check_outputs soc w mode instance)
        [ Sw; Vm; Dma ])
    Registry.all

let test_vm_reports_tlb_activity () =
  let _, _, result = run_workload Vm (Registry.find "list_sum") ~size:512 in
  match result.Launch.mmu_stats with
  | Some s ->
    check_bool "accesses recorded" true (s.Vmht_vm.Mmu.accesses > 0);
    check_bool "some misses (scattered list)" true (s.Vmht_vm.Mmu.tlb_misses > 0)
  | None -> Alcotest.fail "VM run must report MMU stats"

let test_dma_has_staging_phase () =
  let _, _, result = run_workload Dma (Registry.find "vecadd") ~size:1024 in
  check_bool "staging cycles" true (result.Launch.phases.Launch.stage_cycles > 0);
  check_bool "drain cycles" true (result.Launch.phases.Launch.drain_cycles > 0)

let test_sw_has_no_accel_stats () =
  let _, _, result = run_workload Sw (Registry.find "vecadd") ~size:256 in
  check_bool "no accel stats" true (result.Launch.accel_stats = None);
  check_bool "no mmu stats" true (result.Launch.mmu_stats = None)

let test_hw_faster_than_sw_on_streaming () =
  let _, _, sw = run_workload Sw (Registry.find "vecadd") ~size:2048 in
  let _, _, vm = run_workload Vm (Registry.find "vecadd") ~size:2048 in
  check_bool "hardware thread outruns software" true
    (vm.Launch.total_cycles < sw.Launch.total_cycles)

let test_vm_beats_dma_on_pointer_chase () =
  let w = Registry.find "list_sum" in
  let _, _, vm = run_workload Vm w ~size:2048 in
  let _, _, dma = run_workload Dma w ~size:2048 in
  check_bool "VM wins the pointer chase" true
    (vm.Launch.total_cycles < dma.Launch.total_cycles)

let test_window_overflow_detected () =
  let config = { Config.default with Config.scratchpad_words = 64 } in
  let w = Registry.find "vecadd" in
  let soc = Soc.create config in
  let instance = w.Workload.setup (Soc.aspace soc) ~size:1024 ~seed:1 in
  let request =
    { Launch.args = instance.Workload.args; buffers = instance.Workload.buffers }
  in
  check_bool "raises Window_overflow" true
    (match
       Launch.run_to_completion soc (fun () ->
           let hw =
             Flow.run_exn
              (Flow.Request.of_kernel ~config ~style:Wrapper.Dma_iface
                 (Workload.kernel w))
           in
           Launch.run_hw soc hw request)
     with
     | _ -> false
     | exception Launch.Window_overflow _ -> true);
  (* The bound is exact: vecadd 64's three 64-word buffers fill a
     192-word scratchpad and run, and one word more than the capacity
     is refused with the words named. *)
  let at_capacity words =
    run_workload
      ~config:{ Config.default with Config.scratchpad_words = words }
      Dma w ~size:64
  in
  let soc, instance, result = at_capacity 192 in
  check_result w Dma instance result;
  check_outputs soc w Dma instance;
  match at_capacity 191 with
  | _ -> Alcotest.fail "192 words of buffers ran on a 191-word scratchpad"
  | exception Launch.Window_overflow msg ->
    Alcotest.(check string)
      "one word over" "buffers need 192 words but the scratchpad holds 191" msg

let test_demand_paging_in_vm_mode () =
  (* A kernel writing a lazily-allocated output region must fault its
     pages in through the MMU. *)
  let config = Config.default in
  let soc = Soc.create config in
  let aspace = Soc.aspace soc in
  let n = 2048 in
  let src =
    Vmht_workloads.Workload.alloc_array aspace ~words:n ~init:(fun i -> i)
  in
  let dst = Addr_space.alloc ~lazy_:true aspace ~bytes:(n * 8) in
  let kernel =
    Vmht_lang.Parser.parse_kernel
      {|kernel copy(a: int*, b: int*, n: int) {
          var i: int;
          for (i = 0; i < n; i = i + 1) { b[i] = a[i]; }
        }|}
  in
  let result =
    Launch.run_to_completion soc (fun () ->
        let hw = Flow.run_exn
          (Flow.Request.of_kernel ~config ~style:Wrapper.Vm_iface kernel) in
        Launch.run_hw soc hw
          { Launch.args = [ src; dst; n ]; buffers = [] })
  in
  check_bool "page faults occurred" true (result.Launch.page_faults > 0);
  check_int "all pages materialized" (n * 8 / 4096)
    (Addr_space.touched_lazy_pages aspace);
  check_int "data copied" 1234 (Addr_space.load_word aspace (dst + (1234 * 8)))

let test_multi_thread_concurrent () =
  (* Two VM-enabled hardware threads run concurrently; both results
     must be correct and the span shorter than the sum of solo runs. *)
  let config = Config.default in
  let soc = Soc.create config in
  let w = Registry.find "dotprod" in
  let i1 = w.Workload.setup (Soc.aspace soc) ~size:1024 ~seed:1 in
  let i2 = w.Workload.setup (Soc.aspace soc) ~size:1024 ~seed:2 in
  let hw = Flow.run_exn
              (Flow.Request.of_kernel ~config ~style:Wrapper.Vm_iface
                 (Workload.kernel w)) in
  let r1, r2 =
    Launch.run_to_completion soc (fun () ->
        let spawn (i : Workload.instance) =
          Vmht_rt.Hthreads.spawn ~engine:(Soc.engine soc) (fun () ->
              Launch.run_hw soc hw
                { Launch.args = i.Workload.args; buffers = [] })
        in
        let t1 = spawn i1 in
        let t2 = spawn i2 in
        (Vmht_rt.Hthreads.join t1, Vmht_rt.Hthreads.join t2))
  in
  check_bool "thread 1 result" true (r1.Launch.ret = i1.Workload.expected_ret);
  check_bool "thread 2 result" true (r2.Launch.ret = i2.Workload.expected_ret)

let test_dma_phases_sum_to_total () =
  let _, _, r = run_workload Dma (Registry.find "saxpy") ~size:1024 in
  let p = r.Launch.phases in
  check_int "phases partition the run" r.Launch.total_cycles
    (p.Launch.stage_cycles + p.Launch.compute_cycles + p.Launch.drain_cycles)

let test_deterministic_cycles () =
  let run () =
    let _, _, r = run_workload Vm (Registry.find "spmv") ~size:128 in
    r.Launch.total_cycles
  in
  check_int "same cycle count across runs" (run ()) (run ())

(* A hardware thread's memory access allocates nothing on its way
   through the accelerator and the wrapper: a VM access through the
   port, the TLB, the stream buffer and the bus, a DMA access through
   the scratchpad.  What a lone run allocates is set-up (the compiled
   states, the MMU, the buffer's lines; the DMA style's page lists and
   copy bursts) plus a line's fill now and then, a few words per access
   in all where per-access lists and closures cost about a hundred and
   a forked process per access about forty. *)
let minor_words_per_access mode name ~size =
  let config = Config.default in
  let w = Registry.find name in
  let soc = Soc.create config in
  let instance = w.Workload.setup (Soc.aspace soc) ~size ~seed:42 in
  let request =
    { Launch.args = instance.Workload.args; buffers = instance.Workload.buffers }
  in
  let style = if mode = Dma then Wrapper.Dma_iface else Wrapper.Vm_iface in
  let hw =
    Flow.run_exn
      (Flow.Request.of_kernel ~config ~style (Workload.kernel w))
  in
  let before = Gc.minor_words () in
  let result =
    Launch.run_to_completion soc (fun () -> Launch.run_hw soc hw request)
  in
  let words = Gc.minor_words () -. before in
  check_result w mode instance result;
  let s = Option.get result.Launch.accel_stats in
  words /. float_of_int (s.Vmht_hls.Accel.loads + s.Vmht_hls.Accel.stores)

let access_allocation_budget mode ~bound points =
  List.iter
    (fun (name, size) ->
      let per_access = minor_words_per_access mode name ~size in
      check_bool
        (Printf.sprintf "%s %s %d: %.1f minor words per access < %.0f" name
           (mode_name mode) size per_access bound)
        true (per_access < bound))
    points

let test_vm_access_allocation_budget () =
  access_allocation_budget Vm ~bound:32.
    [ ("vecadd", 4096); ("stencil3", 4096); ("spmv", 512) ]

(* The same on a profiled engine, whose VM port enters the Translate
   and Memory phases and reads the host clock three times on every
   access: neither the phase changes nor the clock reads allocate, so
   a profiled access costs what an unprofiled one does (about 1 word),
   where closures per access cost about 24. *)
let test_profiled_vm_access_allocation_budget () =
  Vmht_obs.Profile.enable true;
  Fun.protect
    ~finally:(fun () -> Vmht_obs.Profile.enable false)
    (fun () ->
      access_allocation_budget Vm ~bound:8.
        [ ("vecadd", 4096); ("stencil3", 4096); ("spmv", 512) ])

let test_dma_access_allocation_budget () =
  access_allocation_budget Dma ~bound:8.
    [ ("vecadd", 4096); ("saxpy", 4096); ("spmv", 512) ]

(* Every sim, rtl and served execute op builds a fresh SoC, so what
   [Soc.create] allocates is on their timed paths: the components'
   state (about 350 minor words), and nothing for observation, whose
   histograms are made at their first sample.  The 944-bucket
   histograms of an eager registry would cost thousands. *)
let test_soc_create_allocation_budget () =
  ignore (Soc.create Config.default : Soc.t);
  let before = Gc.minor_words () in
  let soc = Soc.create Config.default in
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity soc : Soc.t);
  check_bool
    (Printf.sprintf "Soc.create: %.0f minor words < 400" words)
    true (words < 400.)

let suite =
  [
    Alcotest.test_case "all workloads x all modes" `Slow
      test_all_workloads_all_modes;
    Alcotest.test_case "vm: tlb activity" `Quick test_vm_reports_tlb_activity;
    Alcotest.test_case "dma: staging phases" `Quick test_dma_has_staging_phase;
    Alcotest.test_case "sw: no accel stats" `Quick test_sw_has_no_accel_stats;
    Alcotest.test_case "hw beats sw (streaming)" `Quick
      test_hw_faster_than_sw_on_streaming;
    Alcotest.test_case "vm beats dma (pointer chase)" `Quick
      test_vm_beats_dma_on_pointer_chase;
    Alcotest.test_case "dma: window overflow" `Quick
      test_window_overflow_detected;
    Alcotest.test_case "vm: demand paging" `Quick test_demand_paging_in_vm_mode;
    Alcotest.test_case "multi-thread concurrency" `Quick
      test_multi_thread_concurrent;
    Alcotest.test_case "dma: phases sum to total" `Quick
      test_dma_phases_sum_to_total;
    Alcotest.test_case "deterministic cycle counts" `Quick
      test_deterministic_cycles;
    Alcotest.test_case "vm: access allocation budget" `Quick
      test_vm_access_allocation_budget;
    Alcotest.test_case "vm: profiled access allocation budget" `Quick
      test_profiled_vm_access_allocation_budget;
    Alcotest.test_case "dma: access allocation budget" `Quick
      test_dma_access_allocation_budget;
    Alcotest.test_case "soc: create allocation budget" `Quick
      test_soc_create_allocation_budget;
  ]
