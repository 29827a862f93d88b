module Ast = Vmht_lang.Ast
module Typecheck = Vmht_lang.Typecheck
module Ir = Vmht_ir.Ir
module Lower = Vmht_ir.Lower
module Pass_manager = Vmht_ir.Pass_manager
module Ast_unroll = Vmht_ir.Ast_unroll

type stats = {
  ir_instrs : int;
  blocks : int;
  states : int;
  reg_count : int;
  opt_report : Pass_manager.report;
  unrolled_loops : int;
  pipelined_loops : int;
}

type t = {
  name : string;
  func : Ir.func;
  schedule : Schedule.t;
  binding : Bind.t;
  area : Optypes.area;
  plans : Pipeliner.plan list;
  stats : stats;
}

let datapath_area (binding : Bind.t) ~states =
  let fu_area =
    List.fold_left
      (fun acc (cls, n) ->
        Optypes.add_area acc (Optypes.scale_area n (Optypes.fu_area cls)))
      Optypes.zero_area binding.Bind.fu_counts
  in
  Optypes.add_area
    (Optypes.bank_area ~banks:binding.Bind.mem_banks)
    (Optypes.add_area fu_area
       (Optypes.add_area
          (Optypes.register_area binding.Bind.reg_count)
          (Optypes.fsm_area ~states)))

let synthesize ?(resources = Schedule.default_resources) ?(unroll = 1)
    ?(pipeline = false) ?schedule:opt_schedule kernel =
  Typecheck.check_kernel kernel;
  let kernel', unrolled_loops = Ast_unroll.unroll_kernel ~factor:unroll kernel in
  let func = Lower.lower_kernel kernel' in
  let opt_report =
    Vmht_obs.Span.with_span ~cat:"flow" "passes" (fun () ->
        Pass_manager.optimize ?schedule:opt_schedule func)
  in
  let schedule = Schedule.schedule_func ~resources func in
  let binding = Bind.bind schedule in
  let states = Schedule.total_states schedule in
  let plans =
    if pipeline then Pipeliner.plan_loops func ~resources else []
  in
  (* Overlapped iterations keep more values in flight: account one
     extra register set per pipeline stage of each pipelined loop. *)
  let pipeline_regs =
    List.fold_left
      (fun acc (p : Pipeliner.plan) ->
        acc + (binding.Bind.reg_count * (p.Pipeliner.depth / max 1 p.Pipeliner.ii)))
      0 plans
  in
  let area =
    Optypes.add_area
      (datapath_area binding ~states)
      (Optypes.register_area pipeline_regs)
  in
  {
    name = kernel.Ast.kname;
    func;
    schedule;
    binding;
    area;
    plans;
    stats =
      {
        ir_instrs = Ir.instr_count func;
        blocks = Ir.block_count func;
        states;
        reg_count = binding.Bind.reg_count;
        opt_report;
        unrolled_loops;
        pipelined_loops = List.length plans;
      };
  }

(* Trace compilation of a block schedule.

   The interpreter's per-cycle scan asks every instruction "do you
   start this cycle?" — O(instrs * makespan) per block visit.  The
   compiled form buckets instruction indices by start cycle once and
   groups maximal runs of memory-free cycles into one [Pure] step, so a
   visit costs O(instrs + steps) and the executor can collapse a pure
   run's unit waits into a single wait.  Memory cycles stay unfused
   ([Mem] steps): every translation, bus transaction and fault-injector
   draw happens exactly where the interpreter would perform it — that
   is the de-optimization boundary of the compiled trace. *)
module Trace = struct
  type step =
    | Pure of int array array
        (* consecutive cycles without memory ops; instruction indices
           per cycle, in instruction order *)
    | Mem of int array (* one cycle containing at least one Load/Store *)

  type block = step array

  let compile_block (b : Schedule.block_schedule) : block =
    let per_cycle = Array.map Array.of_list (Schedule.instrs_by_cycle b) in
    let is_mem i =
      match b.Schedule.instrs.(i) with
      | Ir.Load _ | Ir.Store _ -> true
      | Ir.Bin _ | Ir.Un _ | Ir.Mov _ -> false
    in
    let steps = ref [] in
    let pure_run = ref [] in
    let flush_pure () =
      if !pure_run <> [] then begin
        steps := Pure (Array.of_list (List.rev !pure_run)) :: !steps;
        pure_run := []
      end
    in
    Array.iter
      (fun ids ->
        if Array.exists is_mem ids then begin
          flush_pure ();
          steps := Mem ids :: !steps
        end
        else pure_run := ids :: !pure_run)
      per_cycle;
    flush_pure ();
    Array.of_list (List.rev !steps)
end

let add_stats buf s =
  let str = Buffer.add_string buf and int = Vmht_util.Buf.add_int buf in
  int s.ir_instrs;
  str " IR instrs in ";
  int s.blocks;
  str " blocks, ";
  int s.states;
  str " FSM states, ";
  int s.reg_count;
  str " registers, ";
  int s.unrolled_loops;
  str " loop(s) unrolled, ";
  int s.pipelined_loops;
  str " pipelined; ";
  Pass_manager.add_report buf s.opt_report

let stats_to_string s =
  let buf = Buffer.create 256 in
  add_stats buf s;
  Buffer.contents buf
