(* Bechamel micro-benchmarks behind [vmht perf micro] and [vmht perf
   snapshot]: one target per table/figure plus targets for the
   simulator machinery itself (event queue, MMU translation, the VM
   port, SoC creation), for single synthesis stages (IR verifier,
   scheduler, pipeliner, binding, Verilog emit), for the model's
   accelerator run alone and for the RTL evaluator's parse and run.  Target names,
   bodies and Bechamel settings are what the committed BENCH_eval.json
   measured; change any of them and the perf gate no longer compares
   like with like. *)

open Bechamel
module Workload = Vmht_workloads.Workload
module Registry = Vmht_workloads.Registry
module Json = Vmht_obs.Json

(* Lazy so that running a single micro target (or none) doesn't pay
   for the others' workload lookups at startup. *)
let vecadd = lazy (Registry.find "vecadd")

let list_sum = lazy (Registry.find "list_sum")

let spmv = lazy (Registry.find "spmv")

let tree_search = lazy (Registry.find "tree_search")

(* The largest loop body of the benchmark's synth grid: stencil3 at
   unroll 8 on four banks, pipelined (133 instructions after O2).  The
   hls.* targets rerun one stage of its synthesis each. *)
let stencil3_fsm =
  lazy
    (let config =
       Vmht.Config.with_pipelining
         (Vmht.Config.with_banks (Vmht.Config.with_unroll Vmht.Config.default 8) 4)
         true
     in
     (Vmht_eval.Common.synthesize ~config ~cache:false Vmht.Wrapper.Vm_iface
        (Registry.find "stencil3"))
       .Vmht.Flow.fsm)

let hls_schedule () =
  let fsm = Lazy.force stencil3_fsm in
  ignore
    (Vmht_hls.Schedule.schedule_func
       ~resources:fsm.Vmht_hls.Fsm.schedule.Vmht_hls.Schedule.resources
       fsm.Vmht_hls.Fsm.func)

let hls_pipeline () =
  let fsm = Lazy.force stencil3_fsm in
  ignore
    (Vmht_hls.Pipeliner.plan_loops
       ~resources:fsm.Vmht_hls.Fsm.schedule.Vmht_hls.Schedule.resources
       fsm.Vmht_hls.Fsm.func)

let hls_bind () =
  ignore (Vmht_hls.Bind.bind (Lazy.force stencil3_fsm).Vmht_hls.Fsm.schedule)

(* The IR verifier alone, on the same function after O2: the check the
   pass manager runs after every pass application. *)
let ir_verify () =
  Vmht_ir.Verify.run (Lazy.force stencil3_fsm).Vmht_hls.Fsm.func

let hls_emit () =
  ignore
    (Vmht_hls.Verilog.emit_with_wrapper (Lazy.force stencil3_fsm)
       ~wrapper_ports:(Vmht.Wrapper.ports Vmht.Wrapper.Vm_iface))

(* The rtl benchmark's stencil3 point at unroll 4 on four banks (VM
   style, unpipelined): four memory channels and 61 arms.  rtl.parse
   reads its text back; rtl.eval runs its compiled program and
   hls.accel the model's FSM. *)
let stencil3_u4b4 =
  lazy
    (let config =
       Vmht.Config.with_banks (Vmht.Config.with_unroll Vmht.Config.default 4) 4
     in
     Vmht_eval.Common.synthesize ~config ~cache:false Vmht.Wrapper.Vm_iface
       (Registry.find "stencil3"))

let stencil3_verilog = lazy (Lazy.force stencil3_u4b4).Vmht.Flow.verilog

let rtl_parse () =
  ignore (Vmht_rtl.Parse.parse_module (Lazy.force stencil3_verilog))

let stencil3_program =
  lazy
    (Vmht_rtl.Eval.compile
       (Vmht_rtl.Parse.parse_module (Lazy.force stencil3_verilog)))

(* The evaluator alone: stencil3 over 64 words on an untimed array port
   in a private engine, so no memory system runs. *)
let rtl_eval () =
  let n = 64 in
  let data = Array.init (2 * n) (fun i -> i) in
  let port =
    Vmht_hls.Accel.untimed_port (Vmht_lang.Ast_interp.array_memory data)
  in
  let eng = Vmht_sim.Engine.create () in
  Vmht_sim.Engine.spawn eng (fun () ->
      ignore
        (Vmht_rtl.Eval.run ~engine:eng (Lazy.force stencil3_program) ~port
           ~args:[ 0; n * 8; n - 1 ]));
  Vmht_sim.Engine.run eng;
  assert (data.(n + 1) = (0 + 1 + 2) / 3)

(* The model's accelerator alone, on rtl.eval's set-up: the same
   point, words, untimed port and private engine. *)
let hls_accel () =
  let n = 64 in
  let data = Array.init (2 * n) (fun i -> i) in
  let port =
    Vmht_hls.Accel.untimed_port (Vmht_lang.Ast_interp.array_memory data)
  in
  let eng = Vmht_sim.Engine.create () in
  Vmht_sim.Engine.spawn eng (fun () ->
      ignore
        (Vmht_hls.Accel.run ~engine:eng (Lazy.force stencil3_u4b4).Vmht.Flow.fsm
           ~port ~args:[ 0; n * 8; n - 1 ]));
  Vmht_sim.Engine.run eng;
  assert (data.(n + 1) = (0 + 1 + 2) / 3)

(* --- micro-benchmark bodies ------------------------------------- *)

(* Synthesis bodies pass ~cache:false: with the process-wide memo
   cache they would otherwise time a table lookup after the first
   iteration. *)

let synthesize_vm () =
  ignore
    (Vmht_eval.Common.synthesize ~cache:false Vmht.Wrapper.Vm_iface
       (Lazy.force vecadd))

let synthesize_dma () =
  ignore
    (Vmht_eval.Common.synthesize ~cache:false Vmht.Wrapper.Dma_iface
       (Lazy.force vecadd))

let run_small mode w () =
  let o = Vmht_eval.Common.run mode (Lazy.force w) ~size:256 in
  assert o.Vmht_eval.Common.correct

let optimize_pipeline () =
  let f = Vmht_ir.Lower.lower_kernel (Workload.kernel (Lazy.force spmv)) in
  ignore (Vmht_ir.Pass_manager.optimize f)

let tlb_churn () =
  let tlb =
    Vmht_vm.Tlb.create
      { Vmht_vm.Tlb.entries = 16; assoc = 0; policy = Vmht_vm.Tlb.Lru }
  in
  for i = 0 to 999 do
    let vpn = i * 7 mod 64 in
    (match Vmht_vm.Tlb.lookup tlb ~vpn with
     | Some _ -> ()
     | None ->
       Vmht_vm.Tlb.insert tlb ~vpn
         { Vmht_vm.Tlb.frame = vpn * 4096; writable = true });
    ignore (Vmht_vm.Tlb.lookup tlb ~vpn)
  done

let page_table_churn () =
  let phys = Vmht_mem.Phys_mem.create ~bytes:(1 lsl 21) in
  let frames =
    Vmht_vm.Frame_alloc.create ~base:0 ~bytes:(1 lsl 21) ~page_bytes:4096
  in
  let pt = Vmht_vm.Page_table.create phys frames ~page_shift:12 ~va_bits:24 in
  for vpn = 1 to 100 do
    Vmht_vm.Page_table.map pt ~vaddr:(vpn * 4096)
      ~frame:(Vmht_vm.Frame_alloc.alloc frames)
      ~writable:true
  done;
  for vpn = 1 to 100 do
    ignore (Vmht_vm.Page_table.lookup pt ~vaddr:(vpn * 4096))
  done

let event_queue_churn () =
  let q = Vmht_sim.Event_queue.create () in
  for round = 0 to 3 do
    for i = 0 to 255 do
      (* Scrambled arrival times exercise sift-up and sift-down. *)
      Vmht_sim.Event_queue.push q ~at:((i * 37) land 1023) (round + i)
    done;
    for _ = 0 to 191 do
      ignore (Vmht_sim.Event_queue.pop_payload_exn q)
    done
  done;
  while not (Vmht_sim.Event_queue.is_empty q) do
    ignore (Vmht_sim.Event_queue.pop_payload_exn q)
  done

let mmu_translate_churn () =
  let bytes = 1 lsl 21 in
  let phys = Vmht_mem.Phys_mem.create ~bytes in
  let dram = Vmht_mem.Dram.create () in
  let eng = Vmht_sim.Engine.create () in
  let bus = Vmht_mem.Bus.create ~engine:eng phys dram in
  let frames = Vmht_vm.Frame_alloc.create ~base:0 ~bytes ~page_bytes:4096 in
  let aspace =
    Vmht_vm.Addr_space.create phys frames ~page_shift:12 ~va_bits:24
  in
  let base = Vmht_vm.Addr_space.alloc aspace ~bytes:(8 * 4096) in
  let mmu = Vmht_vm.Mmu.create Vmht_vm.Mmu.default_config bus aspace in
  Vmht_sim.Engine.spawn eng (fun () ->
      (* 8 pages of working set against a 16-entry TLB: after the 8
         cold misses every translate is a hit — the fast path. *)
      for i = 0 to 4095 do
        ignore (Vmht_vm.Mmu.translate mmu ~vaddr:(base + (i * 8 mod 32768)))
      done);
  Vmht_sim.Engine.run eng

(* The VM wrapper's port on a fresh SoC: the same 8-page stream as
   sim.mmu-translate through [Soc.vm_port_metered]'s load, with the
   default 16-entry TLB and stream buffer, so each load is a
   translate, a buffer lookup and, once per line, a bus burst. *)
let mem_vm_port () =
  let soc = Vmht.Soc.create Vmht.Config.default in
  let base =
    Vmht_vm.Addr_space.alloc (Vmht.Soc.aspace soc) ~bytes:(8 * 4096)
  in
  let port, _flush, _meter =
    Vmht.Soc.vm_port_metered soc (Vmht.Soc.make_mmu soc)
  in
  Vmht.Soc.run soc (fun () ->
      for i = 0 to 4095 do
        ignore (port.Vmht_hls.Accel.load (base + (i * 8 mod 32768)))
      done)

(* The engine's own machinery, no component model: a lone process's
   waits (each fast-forwarded), two processes ticking in lockstep (each
   wait yields to the other) and two-child joins (two spawns, a suspend
   and the resume of the child that finishes last). *)
let engine_wait () =
  let module Engine = Vmht_sim.Engine in
  let eng = Engine.create () in
  let ticks n () =
    for _ = 1 to n do
      Engine.wait_on eng 1
    done
  in
  Engine.spawn eng (ticks 4096);
  Engine.run eng;
  Engine.spawn eng (ticks 1024);
  Engine.spawn eng (ticks 1024);
  Engine.run eng;
  Engine.spawn eng (fun () ->
      for _ = 1 to 256 do
        let remaining = ref 2 and parked = ref ignore in
        let child () =
          ticks 1 ();
          decr remaining;
          if !remaining = 0 then !parked ()
        in
        Engine.spawn eng child;
        Engine.spawn eng child;
        Engine.suspend (fun resume -> parked := resume)
      done);
  Engine.run eng

let multi_thread_pair () =
  (* Two concurrent hardware threads, as fig6 scales up. *)
  let vecadd = Lazy.force vecadd in
  let config = Vmht.Config.default in
  let soc = Vmht.Soc.create config in
  let i1 = vecadd.Workload.setup (Vmht.Soc.aspace soc) ~size:128 ~seed:1 in
  let i2 = vecadd.Workload.setup (Vmht.Soc.aspace soc) ~size:128 ~seed:2 in
  let hw =
    Vmht.Flow.run_exn
      (Vmht.Flow.Request.of_kernel ~config ~style:Vmht.Wrapper.Vm_iface
         (Workload.kernel vecadd))
  in
  Vmht.Launch.run_to_completion soc (fun () ->
      let spawn inst =
        Vmht_rt.Hthreads.spawn ~engine:(Vmht.Soc.engine soc) (fun () ->
            Vmht.Launch.run_hw soc hw
              { Vmht.Launch.args = inst.Workload.args; buffers = [] })
      in
      let t1 = spawn i1 in
      let t2 = spawn i2 in
      ignore (Vmht_rt.Hthreads.join t1);
      ignore (Vmht_rt.Hthreads.join t2))

(* The SoC a served execute builds before its set-up: engine, memory,
   bus, CPU and its cache, no workload. *)
let soc_create () = ignore (Vmht.Soc.create Vmht.Config.default : Vmht.Soc.t)

(* The data set-up of the sim benchmark's largest points, each on a
   fresh SoC: a streaming kernel's arrays and a scattered search tree. *)
let workload_setup () =
  List.iter
    (fun (w, size) ->
      let soc = Vmht.Soc.create Vmht.Config.default in
      ignore
        ((Lazy.force w).Workload.setup (Vmht.Soc.aspace soc) ~size ~seed:42
          : Workload.instance))
    [ (vecadd, 16384); (tree_search, 65536) ]

(* Lazy Test.t per target: selecting a subset by name never builds
   (or forces the workloads of) the rest. *)
let targets : (string * Test.t Lazy.t) list =
  let t name body = (name, lazy (Test.make ~name (Staged.stage body))) in
  [
    t "table1.sw-profile" (run_small Vmht_eval.Common.Sw vecadd);
    t "table2.synthesize-vm" synthesize_vm;
    t "table3.run-vm-small" (run_small Vmht_eval.Common.Vm vecadd);
    t "table4.optimizer" optimize_pipeline;
    t "table5.synthesize-dma" synthesize_dma;
    t "fig1.run-dma-small" (run_small Vmht_eval.Common.Dma vecadd);
    t "fig2.tlb-churn" tlb_churn;
    t "fig3.page-table-churn" page_table_churn;
    t "fig4.pointer-chase-vm" (run_small Vmht_eval.Common.Vm list_sum);
    t "fig5.unroll-synthesis" (fun () ->
        let config = Vmht.Config.with_unroll Vmht.Config.default 8 in
        ignore
          (Vmht_eval.Common.synthesize ~config ~cache:false
             Vmht.Wrapper.Vm_iface (Lazy.force vecadd)));
    t "fig6.two-threads" multi_thread_pair;
    t "core.soc-create" soc_create;
    t "hls.accel" hls_accel;
    t "hls.bind" hls_bind;
    t "hls.emit" hls_emit;
    t "hls.pipeline" hls_pipeline;
    t "hls.schedule" hls_schedule;
    t "ir.verify" ir_verify;
    t "mem.vm-port" mem_vm_port;
    t "rtl.eval" rtl_eval;
    t "rtl.parse" rtl_parse;
    t "sim.engine-wait" engine_wait;
    t "sim.event-queue-churn" event_queue_churn;
    t "sim.mmu-translate" mmu_translate_churn;
    t "workload.setup" workload_setup;
  ]

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* With filters, only the targets whose name contains one of them. *)
let select filters =
  List.filter
    (fun (name, _) ->
      filters = [] || List.exists (contains_substring name) filters)
    targets

(* --- micro measurement ------------------------------------------- *)

(* (name, ns per run) for each target, sorted by name; names carry the
   group prefix ("vmht table1.sw-profile"). *)
let estimates targets =
  let tests = List.map (fun (_, t) -> Lazy.force t) targets in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 200) ()
  in
  let test = Test.make_grouped ~name:"vmht" ~fmt:"%s %s" tests in
  let raw_results = Benchmark.all cfg instances test in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  let rows = ref [] in
  Hashtbl.iter
    (fun _metric tbl ->
      Hashtbl.iter
        (fun name ols_result ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some [ e ] -> Some e
            | Some _ | None -> None
          in
          rows := (name, estimate) :: !rows)
        tbl)
    results;
  List.sort compare !rows

let print estimates =
  print_endline "micro-benchmarks (monotonic clock, ns per run):";
  List.iter
    (fun (name, estimate) ->
      let cell =
        match estimate with
        | Some e -> Printf.sprintf "%14.0f ns" e
        | None -> "n/a"
      in
      Printf.printf "  %-32s %s\n" name cell)
    estimates

let to_json estimates =
  Json.List
    (List.map
       (fun (name, estimate) ->
         Json.Obj
           [
             ("name", Json.String name);
             ( "ns_per_run",
               match estimate with Some e -> Json.Float e | None -> Json.Null );
           ])
       estimates)
