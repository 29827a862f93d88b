(** The simulated host CPU.

    Executes compiled IR (software threads run the same code the HLS
    flow consumes) with per-instruction cycle costs, loads and stores
    through a private L1 cache, untimed address translation (the CPU's
    own MMU is assumed warm; its demand-page faults still pay the
    handler penalty), and demand paging against the shared address
    space. *)

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

val create :
  ?cost:Cost_model.t ->
  ?cache_config:Vmht_mem.Cache.config ->
  Vmht_mem.Bus.t ->
  Vmht_vm.Addr_space.t ->
  t

val run_func : t -> Vmht_ir.Ir.func -> args:int list -> int option
(** Timed execution in process context.  Raises
    {!Vmht_vm.Addr_space.Segfault} on an unrepairable access. *)

val flush_cache : t -> unit
(** Timed: write all dirty L1 lines back (performed after a software
    thread finishes, so other masters observe its results). *)

val cache : t -> Vmht_mem.Cache.t

val set_observer : t -> Vmht_obs.Event.emitter -> unit
(** Observer for the CPU's demand-page faults
    ({!Vmht_obs.Event.kind.Page_fault} with [asid = 0], duration = the
    handler penalty).  Cache events come from the L1 itself via
    {!Vmht_mem.Cache.set_observer} on {!cache}. *)

val fault_penalty : t -> int
(** The configured demand-page fault handler cost, in cycles. *)

val stats : t -> stats
