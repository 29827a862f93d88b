(** Memory-management unit attached to a hardware thread's memory port.

    Translation path:
    - TLB hit: 1 cycle, then the data access goes to the bus;
    - TLB miss, hardware walker enabled: a timed page-table walk
      refills the TLB;
    - TLB miss, software refill ([hw_walk = false]): the CPU services
      the miss — a fixed interrupt/handler penalty plus the walk;
    - page not present: a software page-fault penalty, then the demand-
      paging handler of the owning address space maps the page (or the
      access is a true fault and {!Mmu_fault} is raised).

    Each VM-enabled hardware thread gets its own MMU instance (its own
    TLB), all sharing the process page table — exactly the structure
    the wrapper hardware implements. *)

type config = {
  tlb : Tlb.config;
  hw_walk : bool; (** hardware walker vs software TLB refill *)
  tlb_hit_cycles : int; (** translation pipeline cost on a hit *)
  sw_refill_penalty : int; (** CPU handler cost for a SW TLB refill *)
  fault_penalty : int; (** CPU handler cost for a demand-page fault *)
  walk_cache_entries : int;
      (** walker's page-walk-cache slots; 0 disables (see {!Ptw.create}) *)
}

val default_config : config
(** 16-entry fully-associative LRU TLB, hardware walker, 1-cycle hits,
    600-cycle software refills, 3000-cycle page faults, no walk cache. *)

exception Mmu_fault of int
(** Access to an address the owning address space cannot repair. *)

type stats = {
  accesses : int;
  tlb_hits : int;
  tlb_misses : int;
  page_faults : int;
  walk_cycles : int; (** cycles spent walking/refilling/faulting *)
}

type t

val create :
  ?asid:int ->
  ?tlb2:Tlb2.t ->
  config ->
  Vmht_mem.Bus.t ->
  Addr_space.t ->
  t
(** [asid] tags this thread's TLB entries (default 0); threads serving
    different address spaces must carry distinct ASIDs.  [tlb2] shares
    a second-level TLB with the other MMUs of the SoC: an L1 miss pays
    the L2 probe latency, a hit refills the L1 without walking, and a
    successful walk fills both levels. *)

val asid : t -> int

val translate : t -> vaddr:int -> int
(** Timed translation of a byte address to a physical address. *)

val load : t -> int -> int
(** Timed: translate + bus word read. *)

val store : t -> int -> int -> unit

val set_fault : t -> Vmht_fault.Injector.t -> unit
(** Attach a fault injector to this MMU and its walker.  Before each
    translation the injector may fire a TLB shootdown: a coin picks a
    full flush ([tlb_shootdown]) or a single random slot kill
    ([tlb_invalidate]); the walker additionally suffers per-level
    stalls and transient walk failures. *)

val set_observer : t -> Vmht_obs.Event.emitter -> unit
(** Observer for translation events: typed
    {!Vmht_obs.Event.kind.Tlb_hit} / [Tlb_miss] / [Ptw_walk] (duration
    = measured walk span, [levels] = page-table reads issued) /
    [Page_fault] (duration = the fault handler penalty) events. *)

val invalidate_page : t -> vaddr:int -> unit
(** Drop one translation (the per-page half of a TLB shootdown). *)

val invalidate_walk_cache : t -> unit

val invalidate_walk_cache_page : t -> vaddr:int -> unit
(** Drop the walker's memo for [vaddr]'s level-1 entry — required when
    the page (or its level-2 table) is unmapped, since freed table
    frames are reused. *)

val address_space : t -> Addr_space.t
(** The address space this MMU translates for. *)

val stats : t -> stats

val tlb_stats : t -> Tlb.stats
(** Counters of the MMU's private TLB (lookups, hits, evictions). *)

val tlb_memo_hits : t -> int
(** L1 lookups answered by the translation memo (see {!Tlb.memo_hits}). *)

val ptw_stats : t -> Ptw.stats
(** Counters of the MMU's walker (walks, level reads, failed walks). *)

val tlb_hit_rate : t -> float
