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

(* A block's trace-compiled steps ({!Fsm.Trace}), each [Pure] run
   carrying the unit cost of each of its cycles for {!Engine.waits}. *)
type step = Mem of int array | Pure of int array array * int array

(* What entering a label runs, resolved once per run. *)
type code =
  | Absent
  | Pipelined of { plan : Pipeliner.plan; header : Ir.block; body : Ir.block }
  | Block of {
      sched : Schedule.block_schedule;
      steps : step array;
      term : Ir.terminator;
    }

(* One entry per label: the first plan headed there, else the label's
   scheduled block with its terminator. *)
let label_codes (hw : Fsm.t) =
  let f = hw.Fsm.func in
  let sched = hw.Fsm.schedule.Schedule.blocks in
  let index = Ir.block_index f in
  let codes = Array.make (Ir.label_bound f) Absent in
  List.iter
    (fun (b : Schedule.block_schedule) ->
      let steps =
        Array.map
          (function
            | Fsm.Trace.Mem ids -> Mem ids
            | Fsm.Trace.Pure cycles ->
              Pure (cycles, Array.make (Array.length cycles) 1))
          (Fsm.Trace.compile_block b)
      in
      let term = (Hashtbl.find index b.Schedule.label).Ir.term in
      codes.(b.Schedule.label) <- Block { sched = b; steps; term })
    sched;
  List.iter
    (fun (plan : Pipeliner.plan) ->
      let l = plan.Pipeliner.header in
      codes.(l) <-
        Pipelined
          {
            plan;
            header = Hashtbl.find index l;
            body = Hashtbl.find index plan.Pipeliner.body;
          })
    (List.rev hw.Fsm.plans);
  codes

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
  let codes = label_codes hw in
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
       accesses issue [ports] at a time. *)
    List.iter
      (Engine.join_all ~name:"mem-lane")
      (chunks ports (List.rev !mem_ops));
    stats.fsm_cycles <- stats.fsm_cycles + 1;
    List.iter (fun (d, v) -> regs.(d) <- v) (List.rev !commits)
  in
  (* A [Pure] step: no memory, so its cycles' unit waits go to the
     engine as one run ({!Engine.waits}), which moves the clock once
     when nothing else is queued before the run ends and otherwise
     breaks every same-cycle tie as the per-state waits would.  Register
     semantics are preserved exactly — each cycle still reads the file
     as of its own entry and commits at its own exit (buffered when a
     cycle holds several ops). *)
  let exec_pure_fused (b : Schedule.block_schedule) (cycles : int array array)
      units =
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
    Engine.waits units
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
  let exec_pipelined (plan : Pipeliner.plan) (header : Ir.block)
      (body : Ir.block) =
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
  let exec_steps sched steps =
    for i = 0 to Array.length steps - 1 do
      match steps.(i) with
      | Mem ids -> exec_mem_cycle sched ids
      | Pure (cycles, units) -> exec_pure_fused sched cycles units
    done
  in
  (* One FSM-state event per block entry (a pipelined region counts as
     one state spanning all its iterations), with the measured span. *)
  let emit_state (emit : Vmht_obs.Event.emitter) label t0 =
    emit
      ~duration:(Engine.now_p () - t0)
      (Vmht_obs.Event.Fsm_state { block = Printf.sprintf "L%d" label })
  in
  let rec exec_block label =
    match codes.(label) with
    | Absent -> raise Not_found
    | Pipelined { plan; header; body } ->
      let next =
        match observer with
        | None -> exec_pipelined plan header body
        | Some emit ->
          let t0 = Engine.now_p () in
          let next = exec_pipelined plan header body in
          emit_state emit label t0;
          next
      in
      exec_block next
    | Block { sched; steps; term } -> (
      stats.block_visits <- stats.block_visits + 1;
      (match observer with
      | None -> exec_steps sched steps
      | Some emit ->
        let t0 = Engine.now_p () in
        exec_steps sched steps;
        emit_state emit label t0);
      match term with
      | Ir.Jmp l -> exec_block l
      | Ir.Br (c, l1, l2) -> exec_block (if value c <> 0 then l1 else l2)
      | Ir.Ret v -> Option.map value v)
  in
  exec_block (Ir.entry f).Ir.label
