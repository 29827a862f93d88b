(* The compiled CPU against its per-instruction reference: the IR
   interpreter driven through hooks, each instruction and each branch
   a wait of its own cost and each load or store a timed access
   through the CPU's L1.  Both run on SoCs built alike and must agree
   on the return value, the final memory, every [Cpu.stats] counter,
   the L1's counters and the cycle every run ends at — alone, and with
   a VM hardware thread contending for the same bus. *)

open Vmht
module Engine = Vmht_sim.Engine
module Cpu = Vmht_cpu.Cpu
module Cost_model = Vmht_cpu.Cost_model
module Cache = Vmht_mem.Cache
module Addr_space = Vmht_vm.Addr_space
module Ir_interp = Vmht_ir.Ir_interp
module Ast_interp = Vmht_lang.Ast_interp
module Workload = Vmht_workloads.Workload
module Registry = Vmht_workloads.Registry
module Hthreads = Vmht_rt.Hthreads

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* ---------------- the reference ------------------------------------ *)

type counts = {
  mutable instructions : int;
  mutable branches : int;
  mutable mem_accesses : int;
  mutable faults : int;
  mutable mem_cycles : int;
}

let fresh_counts () =
  { instructions = 0; branches = 0; mem_accesses = 0; faults = 0;
    mem_cycles = 0 }

let stats_of c =
  {
    Cpu.instructions = c.instructions;
    branches = c.branches;
    mem_accesses = c.mem_accesses;
    faults = c.faults;
    mem_cycles = c.mem_cycles;
  }

(* The CPU as a hook-driven interpreter: a wait per instruction and per
   conditional branch, translation through the page table on every
   access (demand paging pays the handler penalty), and every access's
   span summed into [mem_cycles]. *)
let reference_run ?max_steps counts ~engine ~cache ~aspace f ~args =
  let resolve vaddr =
    match Addr_space.translate aspace vaddr with
    | Some paddr -> paddr
    | None -> (
      counts.faults <- counts.faults + 1;
      Engine.wait_on engine Cost_model.fault_penalty;
      if not (Addr_space.handle_fault aspace ~vaddr) then
        raise (Addr_space.Segfault vaddr);
      match Addr_space.translate aspace vaddr with
      | Some paddr -> paddr
      | None -> raise (Addr_space.Segfault vaddr))
  in
  let timed g =
    let t0 = Engine.now engine in
    let v = g () in
    counts.mem_cycles <- counts.mem_cycles + (Engine.now engine - t0);
    v
  in
  let memory =
    {
      Ast_interp.load =
        (fun vaddr ->
          counts.mem_accesses <- counts.mem_accesses + 1;
          timed (fun () ->
              let phys = resolve vaddr in
              Cache.read cache ~addr:vaddr ~phys));
      store =
        (fun vaddr value ->
          counts.mem_accesses <- counts.mem_accesses + 1;
          timed (fun () ->
              let phys = resolve vaddr in
              Cache.write cache ~addr:vaddr ~phys value));
    }
  in
  let hooks =
    {
      Ir_interp.on_instr =
        (fun instr ->
          counts.instructions <- counts.instructions + 1;
          Engine.wait_on engine (Cost_model.instr_cycles instr));
      on_branch =
        (fun ~taken:_ ->
          counts.branches <- counts.branches + 1;
          Engine.wait_on engine Cost_model.branch);
    }
  in
  Ir_interp.run ?max_steps ~hooks memory f ~args

(* ---------------- one software run, both ways ---------------------- *)

(* What a run leaves behind: return value, the cycle the last thread
   ended at, CPU and L1 counters, what [prepare]'s reader makes of the
   final memory, and the hardware thread's return value when one ran
   beside. *)
type outcome = {
  ret : int option;
  cycles : int;
  stats : Cpu.stats;
  l1 : Cache.stats;
  memory : int list;
  beside : int option option;
}

(* A VM hardware thread of vecadd over its own data, contending with
   the software thread for the bus. *)
let hw_partner soc =
  let w = Registry.find "vecadd" in
  let inst = w.Workload.setup (Soc.aspace soc) ~size:64 ~seed:9 in
  let hw =
    Flow.run_exn
      (Flow.Request.of_kernel ~config:Config.default
         ~style:Wrapper.Vm_iface (Workload.kernel w))
  in
  fun () ->
    (Launch.run_hw soc hw { Launch.args = inst.Workload.args; buffers = [] })
      .Launch.ret

(* [prepare soc] sets up the data and returns the arguments and a
   reader of the final memory; [compiled] picks the CPU or the
   reference. *)
let observe ~compiled ~beside ~prepare f =
  let soc = Soc.create Config.default in
  let cpu = Soc.cpu soc in
  let aspace = Soc.aspace soc in
  let args, read_back = prepare soc in
  let partner = if beside then Some (hw_partner soc) else None in
  let counts = fresh_counts () in
  let sw () =
    let ret =
      if compiled then Cpu.run_func cpu f ~args
      else
        reference_run counts ~engine:(Soc.engine soc) ~cache:(Cpu.cache cpu)
          ~aspace f ~args
    in
    Cpu.flush_cache cpu;
    ret
  in
  let ret, beside, cycles =
    Launch.run_to_completion soc (fun () ->
        let t0 = Soc.now soc in
        let spawn = Hthreads.spawn ~engine:(Soc.engine soc) in
        let sw_thread = spawn sw in
        let hw_thread = Option.map spawn partner in
        let ret = Hthreads.join sw_thread in
        let beside = Option.map Hthreads.join hw_thread in
        (ret, beside, Soc.now soc - t0))
  in
  {
    ret;
    cycles;
    stats = (if compiled then Cpu.stats cpu else stats_of counts);
    l1 = Cache.stats (Cpu.cache cpu);
    memory = read_back (Addr_space.load_word aspace);
    beside;
  }

let both ~beside ~prepare f =
  ( observe ~compiled:true ~beside ~prepare f,
    observe ~compiled:false ~beside ~prepare f )

(* ---------------- random programs ---------------------------------- *)

(* [m] is a fresh region: eager and filled, or lazy and untouched so
   that the program's first access to each page takes a demand-page
   fault. *)
let gen_prepare ~lazy_ ~a ~b soc =
  let aspace = Soc.aspace soc in
  let bytes = Gen_prog.mem_words * 8 in
  let base = Addr_space.alloc ~lazy_ aspace ~bytes in
  if not lazy_ then
    Addr_space.store_words aspace base ~words:Gen_prog.mem_words (fun i ->
        (i * 37) mod 101);
  ( [ base; a; b ],
    fun load -> List.init Gen_prog.mem_words (fun i -> load (base + (i * 8))) )

let arb_cpu_case =
  QCheck.make
    ~print:(fun (seed, lazy_, beside) ->
      Printf.sprintf "(kernel seed %d, lazy %b, beside a hw thread %b)" seed
        lazy_ beside)
    QCheck.Gen.(
      triple (0 -- 20000) bool
        (frequency [ (4, return false); (1, return true) ]))

let prop_compiled_cpu_reference =
  QCheck.Test.make ~count:100
    ~name:"cpu: compiled = interpreter (ret, memory, stats, cycles)"
    arb_cpu_case
    (fun (seed, lazy_, beside) ->
      let f =
        Flow.compile_sw Config.default (Gen_prog.gen_kernel seed)
      in
      let prepare = gen_prepare ~lazy_ ~a:(seed mod 11) ~b:(seed mod 7) in
      let compiled, reference = both ~beside ~prepare f in
      compiled = reference)

(* ---------------- the registry kernels ----------------------------- *)

let small_size (w : Workload.t) =
  match w.Workload.name with
  | "mmul" -> 8
  | "spmv" | "bfs" -> 64
  | _ -> 256

(* Each kernel's own checker reads the outputs, so the memory entry
   is [[1]] for correct outputs. *)
let test_registry_kernels () =
  List.iter
    (fun (w : Workload.t) ->
      let f = Flow.compile_sw Config.default (Workload.kernel w) in
      let expected = ref None in
      let prepare soc =
        let inst =
          w.Workload.setup (Soc.aspace soc) ~size:(small_size w) ~seed:42
        in
        expected := inst.Workload.expected_ret;
        ( inst.Workload.args,
          fun load -> [ Bool.to_int (inst.Workload.check load) ] )
      in
      List.iter
        (fun beside ->
          let at =
            Printf.sprintf "%s%s" w.Workload.name
              (if beside then " beside a hw thread" else "")
          in
          let compiled, reference = both ~beside ~prepare f in
          check_bool (at ^ ": expected ret") true (compiled.ret = !expected);
          (* Beside a hardware thread, whose end runs host cache
             maintenance on the CPU's L1 while the software thread
             still stores to it, every output must reach memory too. *)
          check_bool (at ^ ": outputs") true (compiled.memory = [ 1 ]);
          check_int (at ^ ": cycles") reference.cycles compiled.cycles;
          check_bool (at ^ ": everything else") true (compiled = reference))
        [ false; true ])
    Registry.all

(* ---------------- traps and the step bound ------------------------- *)

let compile_source text =
  Flow.compile_sw Config.default (Vmht_lang.Parser.parse_kernel text)

let in_soc f =
  let soc = Soc.create Config.default in
  Launch.run_to_completion soc (fun () -> f soc)

let test_divide_by_zero () =
  let f = compile_source "kernel f(x: int) : int { return 10 / x; }" in
  check_bool "Eval_error surfaces" true
    (match in_soc (fun soc -> Cpu.run_func (Soc.cpu soc) f ~args:[ 0 ]) with
     | _ -> false
     | exception Ast_interp.Eval_error _ -> true)

let test_runaway () =
  let f =
    compile_source
      "kernel f(n: int) : int { var i: int = 0; while (i < n) { i = i + 1; \
       } return i; }"
  in
  let run ?max_steps n =
    in_soc (fun soc -> Cpu.run_func ?max_steps (Soc.cpu soc) f ~args:[ n ])
  in
  check_bool "a short loop finishes" true (run ~max_steps:1000 10 = Some 10);
  check_bool "a long one is a runaway" true
    (match run ~max_steps:1000 1_000_000_000 with
     | _ -> false
     | exception Ir_interp.Runaway n -> n > 1000);
  check_bool "the reference agrees" true
    (match
       in_soc (fun soc ->
           let cpu = Soc.cpu soc in
           reference_run ~max_steps:1000 (fresh_counts ())
             ~engine:(Soc.engine soc) ~cache:(Cpu.cache cpu)
             ~aspace:(Soc.aspace soc) f
             ~args:[ 1_000_000_000 ])
     with
     | _ -> false
     | exception Ir_interp.Runaway _ -> true)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_compiled_cpu_reference;
    Alcotest.test_case "compiled = interpreter: registry kernels" `Quick
      test_registry_kernels;
    Alcotest.test_case "divide by zero raises Eval_error" `Quick
      test_divide_by_zero;
    Alcotest.test_case "runaway loop stops at max_steps" `Quick test_runaway;
  ]
