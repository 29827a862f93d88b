module Ir = Vmht_ir.Ir
module Engine = Vmht_sim.Engine
module Ast_interp = Vmht_lang.Ast_interp
module Ir_interp = Vmht_ir.Ir_interp

type port = {
  load : int -> int;
  store : int -> int -> unit;
  hold : int -> int;
}

type run_stats = {
  mutable fsm_cycles : int;
  mutable loads : int;
  mutable stores : int;
  mutable block_visits : int;
}

let fresh_stats () =
  { fsm_cycles = 0; loads = 0; stores = 0; block_visits = 0 }

let untimed_port (mem : Ast_interp.memory) =
  {
    load = mem.Ast_interp.load;
    store = mem.Ast_interp.store;
    hold = Fun.const 0;
  }

(* A block compiles, once per run, into one closure per trace step
   ({!Fsm.Trace}) over the run's register file.  The closures are
   built when the run starts, so executing a state allocates
   nothing. *)
type code =
  | Absent
  | Pipelined of { plan : Pipeliner.plan; header : Ir.block; body : Ir.block }
  | Block of { steps : (unit -> unit) array; term : Ir.terminator }

(* The register a datapath op writes. *)
let dest instr = Option.get (Ir.def_of instr)

let no_op () = ()

(* One memory-free cycle.  Every op reads the register file as of the
   cycle's entry: a lone op writes its register directly, several
   evaluate into a scratch array and commit in instruction order. *)
let compile_pure_cycle regs (instrs : Ir.instr array) ids =
  match ids with
  | [||] -> no_op
  | [| i |] ->
    Ir_interp.compile_op regs ~into:regs ~slot:(dest instrs.(i)) instrs.(i)
  | _ ->
    let n = Array.length ids in
    let scratch = Array.make n 0 in
    let evals =
      Array.mapi
        (fun k i -> Ir_interp.compile_op regs ~into:scratch ~slot:k instrs.(i))
        ids
    in
    let dsts = Array.map (fun i -> dest instrs.(i)) ids in
    fun () ->
      for k = 0 to n - 1 do
        (Array.unsafe_get evals k) ()
      done;
      for k = 0 to n - 1 do
        regs.(Array.unsafe_get dsts k) <- Array.unsafe_get scratch k
      done

(* A run of memory-free cycles: each cycle's ops, then the run's unit
   waits as one {!Engine.waits_on}, which moves the clock once when
   nothing else is queued before the run ends and otherwise breaks
   every same-cycle tie as the per-state waits would. *)
let compile_pure ~engine ~stats regs instrs cycles =
  let ops = Array.map (compile_pure_cycle regs instrs) cycles in
  let n = Array.length ops in
  let units = Array.make n 1 in
  fun () ->
    for c = 0 to n - 1 do
      (Array.unsafe_get ops c) ()
    done;
    stats.fsm_cycles <- stats.fsm_cycles + n;
    Engine.waits_on engine units

(* One memory state.  At entry it walks its instructions in order:
   datapath ops evaluate into a scratch array, accesses snapshot their
   address (and a store its data) and count themselves.  Then it issues
   the accesses one after another in instruction order and waits the
   port's price for all of them, once.  At exit it commits the datapath
   results in instruction order, then the loaded values. *)
let compile_mem ~engine ~stats ~port regs (instrs : Ir.instr array) ids =
  let is_access i =
    match instrs.(i) with
    | Ir.Load _ | Ir.Store _ -> true
    | Ir.Bin _ | Ir.Un _ | Ir.Mov _ -> false
  in
  let n_acc =
    Array.fold_left (fun n i -> if is_access i then n + 1 else n) 0 ids
  in
  let hold = port.hold n_acc in
  let n_dp = Array.length ids - n_acc in
  let scratch = Array.make n_dp 0 and dsts = Array.make n_dp 0 in
  (* Per access: its address, a store's data, a load's destination
     register (-1 for a store) and its loaded value. *)
  let addr = Array.make n_acc 0 and data = Array.make n_acc 0 in
  let load_dst = Array.make n_acc (-1) and loaded = Array.make n_acc 0 in
  let value = function Ir.Reg r -> regs.(r) | Ir.Imm n -> n in
  let next_slot = ref 0 and next_access = ref 0 in
  let snapshot =
    Array.map
      (fun i ->
        match instrs.(i) with
        | Ir.Load (d, a) ->
          let j = !next_access in
          incr next_access;
          load_dst.(j) <- d;
          fun () ->
            addr.(j) <- value a;
            stats.loads <- stats.loads + 1
        | Ir.Store (a, v) ->
          let j = !next_access in
          incr next_access;
          fun () ->
            addr.(j) <- value a;
            data.(j) <- value v;
            stats.stores <- stats.stores + 1
        | (Ir.Bin _ | Ir.Un _ | Ir.Mov _) as instr ->
          let slot = !next_slot in
          incr next_slot;
          dsts.(slot) <- dest instr;
          Ir_interp.compile_op regs ~into:scratch ~slot instr)
      ids
  in
  let n_snap = Array.length snapshot in
  fun () ->
    for s = 0 to n_snap - 1 do
      (Array.unsafe_get snapshot s) ()
    done;
    for j = 0 to n_acc - 1 do
      if load_dst.(j) >= 0 then loaded.(j) <- port.load addr.(j)
      else port.store addr.(j) data.(j)
    done;
    Engine.wait_on engine hold;
    stats.fsm_cycles <- stats.fsm_cycles + 1;
    for k = 0 to n_dp - 1 do
      regs.(dsts.(k)) <- scratch.(k)
    done;
    for j = 0 to n_acc - 1 do
      if load_dst.(j) >= 0 then regs.(load_dst.(j)) <- loaded.(j)
    done

(* One entry per label: the first plan headed there, else the label's
   scheduled block compiled over [regs], with its terminator. *)
let label_codes ~engine ~stats ~port regs (hw : Fsm.t) =
  let f = hw.Fsm.func in
  let index = Ir.block_index f in
  let codes = Array.make (Ir.label_bound f) Absent in
  List.iter
    (fun (b : Schedule.block_schedule) ->
      let instrs = b.Schedule.instrs in
      let steps =
        Array.map
          (function
            | Fsm.Trace.Mem ids ->
              compile_mem ~engine ~stats ~port regs instrs ids
            | Fsm.Trace.Pure cycles ->
              compile_pure ~engine ~stats regs instrs cycles)
          (Fsm.Trace.compile_block b)
      in
      let term = (Hashtbl.find index b.Schedule.label).Ir.term in
      codes.(b.Schedule.label) <- Block { steps; term })
    hw.Fsm.schedule.Schedule.blocks;
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

let run ?observer ?(stats = fresh_stats ()) ~engine (hw : Fsm.t) ~port ~args =
  let f = hw.Fsm.func in
  if List.length args <> List.length f.Ir.arg_regs then
    invalid_arg
      (Printf.sprintf "Accel.run: %s expects %d args, got %d" f.Ir.fname
         (List.length f.Ir.arg_regs)
         (List.length args));
  let regs = Array.make (max f.Ir.next_reg 1) 0 in
  List.iter2 (fun r v -> regs.(r) <- v) f.Ir.arg_regs args;
  let value = function Ir.Reg r -> regs.(r) | Ir.Imm n -> n in
  let codes = label_codes ~engine ~stats ~port regs hw in
  (* Sequential functional execution of one instruction, used by the
     software-pipelined loop path: results are exact (program order);
     only memory advances simulated time, each access issued alone —
     compute time is charged at the initiation-interval granularity by
     the caller. *)
  let hold1 = port.hold 1 in
  let exec_seq instr =
    match instr with
    | Ir.Bin (op, d, x, y) ->
      regs.(d) <- Ast_interp.eval_binop op (value x) (value y)
    | Ir.Un (op, d, x) -> regs.(d) <- Ast_interp.eval_unop op (value x)
    | Ir.Mov (d, x) -> regs.(d) <- value x
    | Ir.Load (d, addr) ->
      stats.loads <- stats.loads + 1;
      regs.(d) <- port.load (value addr);
      Engine.wait_on engine hold1
    | Ir.Store (addr, v) ->
      stats.stores <- stats.stores + 1;
      port.store (value addr) (value v);
      Engine.wait_on engine hold1
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
    Engine.wait_on engine (max 0 (plan.Pipeliner.depth - plan.Pipeliner.ii));
    let rec iterate () =
      let t0 = Engine.now engine in
      stats.block_visits <- stats.block_visits + 1;
      List.iter exec_seq header.Ir.instrs;
      if value cond <> 0 then begin
        stats.block_visits <- stats.block_visits + 1;
        List.iter exec_seq body.Ir.instrs;
        let elapsed = Engine.now engine - t0 in
        Engine.wait_on engine (max 0 (plan.Pipeliner.ii - elapsed));
        stats.fsm_cycles <- stats.fsm_cycles + max plan.Pipeliner.ii elapsed;
        iterate ()
      end
    in
    iterate ();
    plan.Pipeliner.exit
  in
  let exec_steps steps =
    for i = 0 to Array.length steps - 1 do
      (Array.unsafe_get steps i) ()
    done
  in
  (* One FSM-state event per block entry (a pipelined region counts as
     one state spanning all its iterations), with the measured span. *)
  let emit_state (emit : Vmht_obs.Event.emitter) label t0 =
    emit
      ~duration:(Engine.now engine - t0)
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
          let t0 = Engine.now engine in
          let next = exec_pipelined plan header body in
          emit_state emit label t0;
          next
      in
      exec_block next
    | Block { steps; term } -> (
      stats.block_visits <- stats.block_visits + 1;
      (match observer with
      | None -> exec_steps steps
      | Some emit ->
        let t0 = Engine.now engine in
        exec_steps steps;
        emit_state emit label t0);
      match term with
      | Ir.Jmp l -> exec_block l
      | Ir.Br (c, l1, l2) -> exec_block (if value c <> 0 then l1 else l2)
      | Ir.Ret v -> Option.map value v)
  in
  exec_block (Ir.entry f).Ir.label
