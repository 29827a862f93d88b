module Engine = Vmht_sim.Engine
module Cache = Vmht_mem.Cache
module Addr_space = Vmht_vm.Addr_space
module Ir = Vmht_ir.Ir
module Ir_interp = Vmht_ir.Ir_interp

type stats = {
  instructions : int;
  branches : int;
  mem_accesses : int;
  faults : int;
  mem_cycles : int;
}

type t = {
  engine : Engine.t;
  cache : Cache.t;
  aspace : Addr_space.t;
  mutable instructions : int;
  mutable branches : int;
  mutable mem_accesses : int;
  mutable faults : int;
  mutable mem_cycles : int;
  mutable observer : Vmht_obs.Event.emitter option;
}

let create bus aspace =
  {
    engine = Vmht_mem.Bus.engine bus;
    cache = Cache.create bus;
    aspace;
    instructions = 0;
    branches = 0;
    mem_accesses = 0;
    faults = 0;
    mem_cycles = 0;
    observer = None;
  }

let set_observer t f = t.observer <- Some f

(* Resolve a virtual address, paying the fault penalty when demand
   paging has to install the page.  The page table is read on every
   access, so an unmap needs no hook here. *)
let resolve t vaddr =
  let paddr = Addr_space.paddr t.aspace vaddr in
  if paddr >= 0 then paddr
  else begin
    t.faults <- t.faults + 1;
    Engine.wait_on t.engine Cost_model.fault_penalty;
    (match t.observer with
    | Some f ->
      f ~duration:Cost_model.fault_penalty
        (Vmht_obs.Event.Page_fault { vaddr; asid = 0 })
    | None -> ());
    if not (Addr_space.handle_fault t.aspace ~vaddr) then
      raise (Addr_space.Segfault vaddr);
    let paddr = Addr_space.paddr t.aspace vaddr in
    if paddr < 0 then raise (Addr_space.Segfault vaddr);
    paddr
  end

(* The CPU is a single simulation process, so load/store spans never
   overlap and summing them attributes memory time exactly. *)
let load t vaddr =
  t.mem_accesses <- t.mem_accesses + 1;
  let t0 = Engine.now t.engine in
  let v = Cache.read t.cache ~addr:vaddr ~phys:(resolve t vaddr) in
  t.mem_cycles <- t.mem_cycles + (Engine.now t.engine - t0);
  v

let store t vaddr value =
  t.mem_accesses <- t.mem_accesses + 1;
  let t0 = Engine.now t.engine in
  Cache.write t.cache ~addr:vaddr ~phys:(resolve t vaddr) value;
  t.mem_cycles <- t.mem_cycles + (Engine.now t.engine - t0)

(* A function compiles, once per run, into one entry per label.  A
   block is a sequence of segments: the memory-free instructions up to
   the next load or store, as closures over register slots, then that
   access.  A segment's costs are its instructions' cycles followed by
   the access's issue cycle, or in the block's last segment by the
   branch cost; they go to the engine as one run of waits, so the
   clock moves once per segment when nothing else is queued, and every
   access still happens at the cycle a per-instruction wait would put
   it. *)
type access =
  | No_access
  | Load of Ir.reg * Ir.operand
  | Store of Ir.operand * Ir.operand

type segment = {
  ops : (unit -> unit) array;
  costs : int array;
  retired : int; (* instructions, the access included *)
  access : access;
}

type block = {
  steps : int; (* toward the runaway bound: the entry and each instruction *)
  segments : segment array;
  term : Ir.terminator;
}

let compile_block regs (b : Ir.block) =
  let segments = ref [] and ops = ref [] and costs = ref [] in
  (* End the open segment with [access] (if any) and the cost [last]. *)
  let close last access =
    let run = match last with Some c -> c :: !costs | None -> !costs in
    let retired =
      List.length !ops + match access with No_access -> 0 | _ -> 1
    in
    if retired > 0 || run <> [] then
      segments :=
        {
          ops = Array.of_list (List.rev !ops);
          costs = Array.of_list (List.rev run);
          retired;
          access;
        }
        :: !segments;
    ops := [];
    costs := []
  in
  List.iter
    (fun instr ->
      let c = Cost_model.instr_cycles instr in
      match instr with
      | Ir.Load (d, a) -> close (Some c) (Load (d, a))
      | Ir.Store (a, v) -> close (Some c) (Store (a, v))
      | Ir.Bin (_, d, _, _) | Ir.Un (_, d, _) | Ir.Mov (d, _) ->
        ops := Ir_interp.compile_op regs ~into:regs ~slot:d instr :: !ops;
        costs := c :: !costs)
    b.Ir.instrs;
  close
    (match b.Ir.term with
    | Ir.Br _ -> Some Cost_model.branch
    | Ir.Jmp _ | Ir.Ret _ -> None)
    No_access;
  {
    steps = 1 + List.length b.Ir.instrs;
    segments = Array.of_list (List.rev !segments);
    term = b.Ir.term;
  }

let run_func ?(max_steps = 100_000_000) t (f : Ir.func) ~args =
  if List.length args <> List.length f.Ir.arg_regs then
    invalid_arg
      (Printf.sprintf "Cpu.run_func: %s expects %d arguments, got %d"
         f.Ir.fname
         (List.length f.Ir.arg_regs)
         (List.length args));
  let regs = Array.make (max f.Ir.next_reg 1) 0 in
  List.iter2 (fun r v -> regs.(r) <- v) f.Ir.arg_regs args;
  let value = function Ir.Reg r -> regs.(r) | Ir.Imm n -> n in
  let blocks = Array.make (Ir.label_bound f) None in
  List.iter
    (fun (b : Ir.block) ->
      blocks.(b.Ir.label) <- Some (compile_block regs b))
    f.Ir.blocks;
  let exec_segment s =
    t.instructions <- t.instructions + s.retired;
    if Array.length s.costs > 0 then Engine.waits_on t.engine s.costs;
    let ops = s.ops in
    for i = 0 to Array.length ops - 1 do
      (Array.unsafe_get ops i) ()
    done;
    match s.access with
    | No_access -> ()
    | Load (d, a) -> regs.(d) <- load t (value a)
    | Store (a, v) -> store t (value a) (value v)
  in
  (* A block that would take the step count past [max_steps] is not
     entered, so a runaway thread stops within the budget. *)
  let steps = ref 0 in
  let rec exec label =
    match blocks.(label) with
    | None -> raise Not_found
    | Some b -> (
      let s = !steps + b.steps in
      if s > max_steps then raise (Ir_interp.Runaway s);
      steps := s;
      Array.iter exec_segment b.segments;
      match b.term with
      | Ir.Jmp l -> exec l
      | Ir.Br (c, l1, l2) ->
        t.branches <- t.branches + 1;
        exec (if value c <> 0 then l1 else l2)
      | Ir.Ret v -> Option.map value v)
  in
  exec (Ir.entry f).Ir.label

let flush_cache t =
  (* Sweep cost plus the (timed) write-back of every dirty line. *)
  Engine.wait_on t.engine 64;
  Cache.flush t.cache

let cache t = t.cache

let stats (t : t) : stats =
  {
    instructions = t.instructions;
    branches = t.branches;
    mem_accesses = t.mem_accesses;
    faults = t.faults;
    mem_cycles = t.mem_cycles;
  }
