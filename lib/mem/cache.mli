(** Set-associative, write-back, write-allocate cache.

    Used both as the simulated CPU's L1 data cache and as the
    accelerator wrappers' stream buffer.  Dirty lines ride back to DRAM
    on eviction; {!flush} writes all dirty lines back (timed) and is
    what the runtime calls at thread boundaries to make results visible
    to other masters, followed by {!invalidate_all} so subsequently
    read data is fetched fresh (mirroring the cache-maintenance calls a
    real driver performs).

    The cache is indexed by the addresses it is given — the simulated
    CPU hands it virtual addresses and resolves the physical address
    itself — so [read]/[write] take both the (indexing) address and the
    physical address used for fills and write-backs.

    Its lines live in flat arrays, one entry per line (valid, dirty,
    tag, physical base, last use; a flag takes a byte) and one
    [int array] of every line's words, so {!create} allocates a few
    arrays rather than a record and a data array per line.  A fill's
    burst lands in its line's slot of that array, so the fill of a
    clean victim allocates nothing; a write-back copies the line's
    words before it waits for the bus. *)

type config = {
  size_bytes : int;
  line_bytes : int;
  ways : int;
  hit_latency : int;
}

val default_config : config
(** 16 KiB, 32-byte lines, 4 ways, 1-cycle hits. *)

type t

type stats = {
  read_hits : int;
  read_misses : int;
  write_hits : int;
  write_misses : int;
  writebacks : int;
  invalidations : int;
}

val create : ?config:config -> Bus.t -> t
(** A cache in front of [bus], waiting on the bus's engine.  The line
    size and the number of sets ([size_bytes / line_bytes / ways]) must
    be powers of two: a line is found by shift and mask. *)

val read : t -> addr:int -> phys:int -> int
(** Timed.  On a miss the containing line is fetched over the bus
    (evicting — and writing back, if dirty — the victim: the last
    invalid way of the set, else its least recently used, the first
    among ties).  A hit allocates nothing.

    A store from another process to the victim while it is written
    back is written back too before the victim is reused.  From then
    until the fill's words land, the victim answers no access and no
    other fill picks it: an access to its old line misses, and a fill
    that finds every way of its set held by other fills waits a cycle
    and picks again.  A single process never meets either case. *)

val write : t -> addr:int -> phys:int -> int -> unit
(** Timed write-allocate: the line is fetched on a miss, updated in
    place and marked dirty. *)

val flush : t -> unit
(** Timed: write every dirty line back over the bus. *)

val invalidate_all : t -> unit
(** Drop every line, writing dirty ones back first (timed, like
    {!flush}) — an invalidate must never lose stores.  A line that a
    concurrent process stores to while its write-back waits for the
    bus stays valid and dirty.  Free when the cache is clean. *)

val set_observer : t -> Vmht_obs.Event.emitter -> unit
(** Install an observer receiving a typed
    {!Vmht_obs.Event.kind.Cache_hit} / [Cache_miss] event per access;
    miss events carry the measured fill latency (bus + DRAM) as their
    duration. *)

val dirty_lines : t -> int

val stats : t -> stats
