module Ir = Vmht_ir.Ir
module Engine = Vmht_sim.Engine
module Ast_interp = Vmht_lang.Ast_interp

type port = { load : int -> int; store : int -> int -> unit }

type run_stats = {
  mutable fsm_cycles : int;
  mutable loads : int;
  mutable stores : int;
  mutable block_visits : int;
}

let fresh_stats () =
  { fsm_cycles = 0; loads = 0; stores = 0; block_visits = 0 }

let untimed_port (mem : Ast_interp.memory) =
  { load = mem.Ast_interp.load; store = mem.Ast_interp.store }

(* Run every thunk as a child process and block until all complete. *)
let par_run fns = Engine.join_all ~name:"mem-lane" fns

let rec chunks n = function
  | [] -> []
  | l ->
    let rec take k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> take (k - 1) (x :: acc) rest
    in
    let chunk, rest = take n [] l in
    chunk :: chunks n rest

let run ?observer ?(stats = fresh_stats ()) ?(ports = 1) (hw : Fsm.t) ~port
    ~args =
  let f = hw.Fsm.func in
  if List.length args <> List.length f.Ir.arg_regs then
    invalid_arg
      (Printf.sprintf "Accel.run: %s expects %d args, got %d" f.Ir.fname
         (List.length f.Ir.arg_regs)
         (List.length args));
  let regs = Array.make (max f.Ir.next_reg 1) 0 in
  List.iter2 (fun r v -> regs.(r) <- v) f.Ir.arg_regs args;
  let value = function Ir.Reg r -> regs.(r) | Ir.Imm n -> n in
  let sched_blocks = Hashtbl.create 16 in
  List.iter
    (fun (b : Schedule.block_schedule) ->
      Hashtbl.replace sched_blocks b.Schedule.label b)
    hw.Fsm.schedule.Schedule.blocks;
  (* Blocks execute their trace-compiled form (instruction indices
     bucketed by start cycle, see {!Fsm.Trace}); compiled lazily, once
     per label per run. *)
  let compiled_blocks = Hashtbl.create 16 in
  let compiled_for label b =
    match Hashtbl.find_opt compiled_blocks label with
    | Some c -> c
    | None ->
      let c = Fsm.Trace.compile_block b in
      Hashtbl.add compiled_blocks label c;
      c
  in
  (* Execute one memory FSM state (= one schedule cycle of a block
     holding at least one access).  All operand reads happen against
     the register file as it was at state entry; commits are buffered
     and applied at state exit. *)
  let exec_mem_cycle (b : Schedule.block_schedule) (ids : int array) =
    let commits = ref [] in
    let mem_ops = ref [] in
    Array.iter
      (fun i ->
        match b.Schedule.instrs.(i) with
        | Ir.Bin (op, d, x, y) ->
          let v = Ast_interp.eval_binop op (value x) (value y) in
          commits := (d, v) :: !commits
        | Ir.Un (op, d, x) ->
          commits := (d, Ast_interp.eval_unop op (value x)) :: !commits
        | Ir.Mov (d, x) -> commits := (d, value x) :: !commits
        | Ir.Load (d, addr) ->
          let a = value addr in
          stats.loads <- stats.loads + 1;
          mem_ops :=
            (fun () ->
              (* Complete the access before touching the commit list:
                 concurrent lanes must not capture a stale snapshot
                 of it across their suspension. *)
              let v = port.load a in
              commits := (d, v) :: !commits)
            :: !mem_ops
        | Ir.Store (addr, v) ->
          let a = value addr in
          let v = value v in
          stats.stores <- stats.stores + 1;
          mem_ops := (fun () -> port.store a v) :: !mem_ops)
      ids;
    (* The state holds until every access of the cycle completes;
       accesses run [ports]-wide. *)
    List.iter par_run (chunks ports (List.rev !mem_ops));
    stats.fsm_cycles <- stats.fsm_cycles + 1;
    List.iter (fun (d, v) -> regs.(d) <- v) (List.rev !commits)
  in
  (* A [Pure] step: no memory, so the unit waits of its cycles fuse
     into one wait at the end.  Register semantics are preserved
     exactly — each cycle still reads the file as of its own entry and
     commits at its own exit (buffered when a cycle holds several ops);
     only the wait placement moves, which nothing can observe because
     pure cycles touch no shared structure. *)
  let exec_pure_fused (b : Schedule.block_schedule) (cycles : int array array)
      =
    let n = Array.length cycles in
    for c = 0 to n - 1 do
      let ids = cycles.(c) in
      if Array.length ids = 1 then
        (match b.Schedule.instrs.(ids.(0)) with
        | Ir.Bin (op, d, x, y) ->
          regs.(d) <- Ast_interp.eval_binop op (value x) (value y)
        | Ir.Un (op, d, x) -> regs.(d) <- Ast_interp.eval_unop op (value x)
        | Ir.Mov (d, x) -> regs.(d) <- value x
        | Ir.Load _ | Ir.Store _ -> assert false)
      else begin
        let commits = ref [] in
        Array.iter
          (fun i ->
            match b.Schedule.instrs.(i) with
            | Ir.Bin (op, d, x, y) ->
              let v = Ast_interp.eval_binop op (value x) (value y) in
              commits := (d, v) :: !commits
            | Ir.Un (op, d, x) ->
              commits := (d, Ast_interp.eval_unop op (value x)) :: !commits
            | Ir.Mov (d, x) -> commits := (d, value x) :: !commits
            | Ir.Load _ | Ir.Store _ -> assert false)
          ids;
        List.iter (fun (d, v) -> regs.(d) <- v) (List.rev !commits)
      end
    done;
    stats.fsm_cycles <- stats.fsm_cycles + n;
    Engine.wait n
  in
  (* Sequential functional execution of one instruction, used by the
     software-pipelined loop path: results are exact (program order);
     only memory advances simulated time — compute time is charged at
     the initiation-interval granularity by the caller. *)
  let exec_seq instr =
    match instr with
    | Ir.Bin (op, d, x, y) ->
      regs.(d) <- Ast_interp.eval_binop op (value x) (value y)
    | Ir.Un (op, d, x) -> regs.(d) <- Ast_interp.eval_unop op (value x)
    | Ir.Mov (d, x) -> regs.(d) <- value x
    | Ir.Load (d, addr) ->
      stats.loads <- stats.loads + 1;
      regs.(d) <- port.load (value addr)
    | Ir.Store (addr, v) ->
      stats.stores <- stats.stores + 1;
      port.store (value addr) (value v)
  in
  (* Run a modulo-scheduled loop: one iteration initiates every II
     cycles once the pipeline is full; iterations whose memory exceeds
     the II stall the pipeline for the difference. *)
  let exec_pipelined (plan : Pipeliner.plan) =
    let header = Ir.find_block f plan.Pipeliner.header in
    let body = Ir.find_block f plan.Pipeliner.body in
    let cond =
      match header.Ir.term with
      | Ir.Br (c, _, _) -> c
      | Ir.Jmp _ | Ir.Ret _ -> assert false
    in
    Engine.wait (max 0 (plan.Pipeliner.depth - plan.Pipeliner.ii));
    let rec iterate () =
      let t0 = Engine.now_p () in
      stats.block_visits <- stats.block_visits + 1;
      List.iter exec_seq header.Ir.instrs;
      if value cond <> 0 then begin
        stats.block_visits <- stats.block_visits + 1;
        List.iter exec_seq body.Ir.instrs;
        let elapsed = Engine.now_p () - t0 in
        Engine.wait (max 0 (plan.Pipeliner.ii - elapsed));
        stats.fsm_cycles <- stats.fsm_cycles + max plan.Pipeliner.ii elapsed;
        iterate ()
      end
    in
    iterate ();
    plan.Pipeliner.exit
  in
  let plan_for label =
    List.find_opt
      (fun (p : Pipeliner.plan) -> p.Pipeliner.header = label)
      hw.Fsm.plans
  in
  (* One FSM-state event per block entry (a pipelined region counts as
     one state spanning all its iterations), with the measured span. *)
  let observe_block label body =
    match observer with
    | None -> body ()
    | Some (emit : Vmht_obs.Event.emitter) ->
      let t0 = Engine.now_p () in
      let r = body () in
      emit
        ~duration:(Engine.now_p () - t0)
        (Vmht_obs.Event.Fsm_state { block = Printf.sprintf "L%d" label });
      r
  in
  let rec exec_block label =
    match plan_for label with
    | Some plan ->
      exec_block (observe_block label (fun () -> exec_pipelined plan))
    | None ->
      stats.block_visits <- stats.block_visits + 1;
      let b = Hashtbl.find sched_blocks label in
      let steps = compiled_for label b in
      observe_block label (fun () ->
          Array.iter
            (fun (step : Fsm.Trace.step) ->
              match step with
              | Fsm.Trace.Mem ids -> exec_mem_cycle b ids
              | Fsm.Trace.Pure cycles -> exec_pure_fused b cycles)
            steps);
      let ir_block = Ir.find_block f label in
      (match ir_block.Ir.term with
       | Ir.Jmp l -> exec_block l
       | Ir.Br (c, l1, l2) -> exec_block (if value c <> 0 then l1 else l2)
       | Ir.Ret v -> Option.map value v)
  in
  exec_block (Ir.entry f).Ir.label
