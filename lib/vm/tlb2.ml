(* Shared second-level TLB.

   One instance serves every MMU of a SoC: an L1 miss probes here before
   paying for a page-table walk, so translations warmed by one hardware
   thread are visible to all of them.  The structure itself is a plain
   [Tlb] — this module pins down the sharing semantics (entries tagged
   by ASID, shootdowns conservative across ASIDs) and carries the
   geometry + probe cost as configuration.  Timing is charged by the
   MMU, like the L1. *)

type config = {
  enabled : bool;
  entries : int;
  assoc : int;
  policy : Tlb.policy;
  hit_cycles : int;
}

let default_config =
  { enabled = false; entries = 128; assoc = 4; policy = Tlb.Lru; hit_cycles = 2 }

type t = { config : config; tlb : Tlb.t }

let create config =
  if config.hit_cycles < 0 then invalid_arg "Tlb2.create: negative hit cost";
  {
    config;
    tlb =
      Tlb.create
        {
          Tlb.entries = config.entries;
          assoc = config.assoc;
          policy = config.policy;
        };
  }

let config t = t.config
let lookup ?asid t ~vpn = Tlb.lookup ?asid t.tlb ~vpn
let insert ?asid t ~vpn entry = Tlb.insert ?asid t.tlb ~vpn entry

(* The shared level cannot assume the unmapping space is the only one
   holding the page, so shoot down the vpn under every ASID. *)
let invalidate_vpn t ~vpn = Tlb.invalidate_vpn t.tlb ~vpn
let stats t = Tlb.stats t.tlb
let occupancy t = Tlb.occupancy t.tlb
