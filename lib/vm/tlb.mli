(** Translation lookaside buffer model.

    Set-associative (or fully associative with [assoc = 0]) with LRU or
    FIFO replacement.  The TLB is pure bookkeeping — the MMU charges
    lookup latency and drives refills. *)

type policy = Lru | Fifo

type config = {
  entries : int; (** total entries; power of two *)
  assoc : int; (** ways; 0 = fully associative *)
  policy : policy;
}

val default_config : config
(** 16 entries, fully associative, LRU. *)

type entry = { frame : int; writable : bool }

type stats = { lookups : int; hits : int; evictions : int }

type t

val max_entries : int
(** 65,536: the most entries a TLB (or a walk cache, {!Ptw.create}) may
    have.  Every experiment uses 128 or fewer; the bound keeps an
    oversized request from exhausting host memory. *)

val validate : config -> unit
(** Raises [Invalid_argument] when [entries] is non-positive, exceeds
    {!max_entries} or does not divide evenly into [assoc]-way sets — a
    non-divisible geometry would otherwise silently round the capacity
    down.  Allocates nothing. *)

val create : ?memo:bool -> config -> t
(** Raises [Invalid_argument] as {!validate} does.

    [memo] (default [true]) keeps a direct-mapped vpn -> slot pointer
    cache in front of the associative scan.  A memo hit revalidates
    against the slot's own tags, so shootdown, unmap and eviction
    invalidate it implicitly, and it performs the identical counter and
    recency updates — stats and replacement are bit-for-bit unchanged.
    The simulator always runs with it on; [~memo:false] is the
    reference the unit tests compare it against. *)

val lookup : ?asid:int -> t -> vpn:int -> entry option
(** Updates recency and hit/miss counters.  Entries are tagged with an
    address-space id (default 0): a hit requires both the page number
    and the ASID to match, so one TLB can safely serve translations
    cached across context switches. *)

val lookup_frame : ?asid:int -> t -> vpn:int -> int
(** Allocation-free {!lookup} for the translate fast path: the hit's
    frame base, or [-1] on a miss (frames are always non-negative).
    Updates the same recency and hit/miss bookkeeping as {!lookup}. *)

val insert : ?asid:int -> t -> vpn:int -> entry -> unit
(** Insert after a refill, evicting per policy if the set is full. *)

val invalidate : ?asid:int -> t -> vpn:int -> unit

val invalidate_vpn : t -> vpn:int -> unit
(** Drop every entry for [vpn] regardless of ASID — the conservative
    shootdown a shared level uses when it cannot know which address
    spaces alias the page. *)

val invalidate_asid : t -> asid:int -> unit
(** Drop every entry of one address space (context teardown). *)

val invalidate_all : t -> unit

val invalidate_slot : t -> n:int -> unit
(** Drop the [n]-th physical slot (mod capacity), whatever it holds —
    the fault injector's single-entry invalidation.  A no-op when the
    slot is already empty. *)

val slot_count : t -> int
(** Number of physical slots actually built ([sets * ways]); the valid
    range for {!invalidate_slot}. *)

val memo_hits : t -> int
(** Lookups answered by the translation memo without an associative
    scan (a work measure; 0 when the memo is off). *)

val stats : t -> stats

val hit_rate : t -> float

val occupancy : t -> int
