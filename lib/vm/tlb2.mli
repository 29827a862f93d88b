(** Shared second-level TLB.

    A single instance per SoC sits between every MMU's private L1 TLB
    and the page-table walker: an L1 miss probes the L2 (the MMU charges
    [hit_cycles]) and only walks on an L2 miss, inserting the refilled
    translation into both levels on the way back.  Entries are
    ASID-tagged like the L1's, so threads of different address spaces
    share the capacity without sharing translations. *)

type config = {
  enabled : bool;  (** [false] = no L2; MMUs walk directly on L1 miss *)
  entries : int;
  assoc : int;  (** ways; 0 = fully associative *)
  policy : Tlb.policy;
  hit_cycles : int;  (** probe latency the MMU charges on every L2 access *)
}

val default_config : config
(** Disabled; when enabled: 128 entries, 4-way, LRU, 2-cycle probe. *)

type t

val create : config -> t
(** Raises [Invalid_argument] on a non-divisible geometry (see
    {!Tlb.create}) or a negative [hit_cycles]. *)

val config : t -> config

val lookup : ?asid:int -> t -> vpn:int -> Tlb.entry option

val insert : ?asid:int -> t -> vpn:int -> Tlb.entry -> unit

val invalidate_vpn : t -> vpn:int -> unit
(** Shootdown for one page, conservatively across all ASIDs — the
    shared level cannot know which address spaces alias the frame. *)

val stats : t -> Tlb.stats

val occupancy : t -> int
