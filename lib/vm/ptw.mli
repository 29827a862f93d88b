(** Hardware page-table walker.

    On a TLB miss the walker issues real bus reads for each page-table
    level (so walk latency includes DRAM and bus-contention effects),
    plus a state-machine overhead of 2 cycles per level. *)

type t

type stats = {
  walks : int;
  level_reads : int;
  failed_walks : int;
  walk_cache_hits : int;
  walk_cache_misses : int;
}

val create : ?walk_cache_entries:int -> Vmht_mem.Bus.t -> Page_table.t -> t
(** [walk_cache_entries] sizes a direct-mapped page-walk cache over
    level-1 entries; a hit skips the L1 bus read so a warm two-level
    walk issues one read instead of two.  Default 0 = disabled.  Raises [Invalid_argument], before
    allocating, on a negative size or one above {!Tlb.max_entries}. *)

val set_fault : t -> Vmht_fault.Injector.t -> unit
(** Attach a fault injector: per-level stalls ([walk_stall]) and
    transient walk failures with bounded retry ([walk_transient]). *)

val walk : t -> vaddr:int -> Page_table.entry option
(** Timed walk.  [None] means the translation is absent (page fault). *)

val invalidate_walk_cache : t -> unit
(** Drop every memoized level-1 entry (full shootdown). *)

val invalidate_walk_cache_entry : t -> vaddr:int -> unit
(** Drop the memo covering [vaddr]'s level-1 entry, if present — part
    of an unmap shootdown, since the freed table frame may be reused. *)

val stats : t -> stats
