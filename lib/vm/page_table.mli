(** Two-level page table, resident in simulated physical memory.

    The table lives in {!Vmht_mem.Phys_mem} frames so that the hardware
    page-table walker's memory traffic is real: a walk reads one
    level-1 entry and one level-2 entry at the physical addresses
    {!walk_addrs} reports, over the same bus the data uses.

    Entry format (a 64-bit word):
    bit 0 = valid, bit 1 = writable; bits 12.. = frame base address
    (frame addresses are page-aligned so low bits are free for flags).
    A zero word is an invalid entry. *)

type t

type entry = { frame : int; writable : bool }

exception Already_mapped of int

val create :
  Vmht_mem.Phys_mem.t -> Frame_alloc.t -> page_shift:int -> va_bits:int -> t
(** [page_shift] = log2 of the page size (>= 6 so a level-2 table of
    512+ entries fits a page); [va_bits] bounds the virtual space. *)

val page_bytes : t -> int

val page_shift : t -> int

val root : t -> int
(** Physical address of the level-1 table (the "page-table base
    register" the MMU is programmed with).  Like every table frame it
    comes from the allocator reading zero, so all entries start
    invalid. *)

val map : t -> vaddr:int -> frame:int -> writable:bool -> unit
(** Install a translation for the page containing [vaddr].  Allocates
    the level-2 table on demand.  Raises {!Already_mapped} if the page
    already has a valid entry. *)

val unmap : t -> vaddr:int -> unit
(** Clears the entry and returns the data frame to the allocator,
    zeroed; once the page's level-2 table holds no more valid entries,
    the table frame (all zero by then) is freed too and the level-1
    entry cleared.  This is the one place a frame is freed, so every
    free frame reads zero.  No-op if not mapped.  Callers owning TLBs
    or walk caches must shoot them down — freed frames are eligible for
    immediate reuse. *)

val lookup : t -> vaddr:int -> entry option
(** Untimed functional walk (what a TLB refill ultimately returns). *)

val walk_addrs : t -> vaddr:int -> int list
(** Physical addresses a hardware walker reads for [vaddr], in order.
    Always the L1 entry; the L2 entry only if L1 is valid. *)

val translate : t -> vaddr:int -> int option
(** Full virtual-to-physical translation of a byte address. *)

val paddr : t -> vaddr:int -> int
(** {!translate} without allocating: the physical address, or [-1]
    when the page is not mapped. *)

val mapped_pages : t -> int
