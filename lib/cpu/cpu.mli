(** The simulated host CPU.

    Executes compiled IR (software threads run the same code the HLS
    flow consumes) with per-instruction cycle costs, loads and stores
    through a private L1 cache, untimed address translation (the CPU's
    own MMU is assumed warm; its demand-page faults still pay the
    handler penalty, {!Cost_model.fault_penalty}), and demand paging
    against the shared address space. *)

type stats = {
  instructions : int;
  branches : int;
  mem_accesses : int;
  faults : int;
  mem_cycles : int;
      (** cycles spent in loads/stores: translation, fault handling,
          cache and bus time (the CPU runs as one process, so spans
          never overlap and the sum is exact) *)
}

type t

val create : Vmht_mem.Bus.t -> Vmht_vm.Addr_space.t -> t
(** A CPU on [bus] with a private L1 of the default
    {!Vmht_mem.Cache.default_config} geometry, paying the
    {!Cost_model} costs. *)

val run_func :
  ?max_steps:int -> t -> Vmht_ir.Ir.func -> args:int list -> int option
(** Timed execution in process context.  Raises
    {!Vmht_vm.Addr_space.Segfault} on an unrepairable access,
    {!Vmht_lang.Ast_interp.Eval_error} on a division by zero and
    [Invalid_argument] on an argument-count mismatch.

    The function is compiled once per call into one entry per label:
    each block becomes segments of closures over register slots, each
    segment the memory-free instructions up to the next load or store.
    A segment advances the clock of the bus's engine through
    {!Vmht_sim.Engine.waits_on} over its instructions' costs plus the
    access's issue cycle (or, ending the block, the branch cost), so
    cycles, stats and the cycle of every access are those of a wait
    per instruction — the IR interpreter driven instruction by
    instruction, the reference the tests compare this against.  Every
    access reads the page table afresh, without allocating.

    [max_steps] (default 100 million) bounds block entries plus
    executed instructions, as {!Vmht_ir.Ir_interp.run} does: a block
    that would exceed it is not entered, and
    {!Vmht_ir.Ir_interp.Runaway} is raised instead. *)

val flush_cache : t -> unit
(** Timed: write all dirty L1 lines back (performed after a software
    thread finishes, so other masters observe its results). *)

val cache : t -> Vmht_mem.Cache.t

val set_observer : t -> Vmht_obs.Event.emitter -> unit
(** Observer for the CPU's demand-page faults
    ({!Vmht_obs.Event.kind.Page_fault} with [asid = 0], duration = the
    handler penalty).  Cache events come from the L1 itself via
    {!Vmht_mem.Cache.set_observer} on {!cache}. *)

val stats : t -> stats
