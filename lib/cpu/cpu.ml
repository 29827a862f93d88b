module Engine = Vmht_sim.Engine
module Cache = Vmht_mem.Cache
module Addr_space = Vmht_vm.Addr_space
module Ir = Vmht_ir.Ir
module Ir_interp = Vmht_ir.Ir_interp
module Ast_interp = Vmht_lang.Ast_interp

type stats = {
  instructions : int;
  branches : int;
  mem_accesses : int;
  faults : int;
  mem_cycles : int;
}

type t = {
  cost : Cost_model.t;
  cache : Cache.t;
  aspace : Addr_space.t;
  mutable instructions : int;
  mutable branches : int;
  mutable mem_accesses : int;
  mutable faults : int;
  mutable mem_cycles : int;
  mutable observer : Vmht_obs.Event.emitter option;
}

let create ?(cost = Cost_model.default) ?cache_config bus aspace =
  {
    cost;
    cache = Cache.create ?config:cache_config bus;
    aspace;
    instructions = 0;
    branches = 0;
    mem_accesses = 0;
    faults = 0;
    mem_cycles = 0;
    observer = None;
  }

let set_observer t f = t.observer <- Some f

let fault_penalty t = t.cost.Cost_model.fault_penalty

(* Resolve a virtual address, paying the fault penalty when demand
   paging has to install the page. *)
let resolve t vaddr =
  match Addr_space.translate t.aspace vaddr with
  | Some paddr -> paddr
  | None ->
    t.faults <- t.faults + 1;
    Engine.wait t.cost.Cost_model.fault_penalty;
    (match t.observer with
    | Some f ->
      f ~duration:t.cost.Cost_model.fault_penalty
        (Vmht_obs.Event.Page_fault { vaddr; asid = 0 })
    | None -> ());
    if Addr_space.handle_fault t.aspace ~vaddr then
      match Addr_space.translate t.aspace vaddr with
      | Some paddr -> paddr
      | None -> raise (Addr_space.Segfault vaddr)
    else raise (Addr_space.Segfault vaddr)

let run_func t (f : Ir.func) ~args =
  (* The CPU is a single simulation process, so load/store spans never
     overlap and summing them attributes memory time exactly. *)
  let timed g =
    let t0 = Engine.now_p () in
    let v = g () in
    t.mem_cycles <- t.mem_cycles + (Engine.now_p () - t0);
    v
  in
  let memory =
    {
      Ast_interp.load =
        (fun vaddr ->
          t.mem_accesses <- t.mem_accesses + 1;
          timed (fun () ->
              let phys = resolve t vaddr in
              Cache.read t.cache ~addr:vaddr ~phys));
      Ast_interp.store =
        (fun vaddr value ->
          t.mem_accesses <- t.mem_accesses + 1;
          timed (fun () ->
              let phys = resolve t vaddr in
              Cache.write t.cache ~addr:vaddr ~phys value));
    }
  in
  let hooks =
    {
      Ir_interp.no_hooks with
      Ir_interp.on_instr =
        (fun instr ->
          t.instructions <- t.instructions + 1;
          Engine.wait (Cost_model.instr_cycles t.cost instr));
      Ir_interp.on_branch =
        (fun ~taken:_ ->
          t.branches <- t.branches + 1;
          Engine.wait t.cost.Cost_model.branch);
    }
  in
  Ir_interp.run ~hooks memory f ~args

let flush_cache t =
  (* Sweep cost plus the (timed) write-back of every dirty line. *)
  Engine.wait 64;
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
