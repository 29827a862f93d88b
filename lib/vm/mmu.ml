module Engine = Vmht_sim.Engine
module Fi = Vmht_fault.Injector
module Fp = Vmht_fault.Plan

type config = {
  tlb : Tlb.config;
  hw_walk : bool;
  tlb_hit_cycles : int;
  sw_refill_penalty : int;
  fault_penalty : int;
  walk_cache_entries : int;
}

let default_config =
  {
    tlb = Tlb.default_config;
    hw_walk = true;
    (* TLB lookup overlaps the downstream access (virtually-indexed
       buffering), so a hit adds no dedicated cycle. *)
    tlb_hit_cycles = 0;
    sw_refill_penalty = 600;
    fault_penalty = 3000;
    walk_cache_entries = 0;
  }

exception Mmu_fault of int

type stats = {
  accesses : int;
  tlb_hits : int;
  tlb_misses : int;
  page_faults : int;
  walk_cycles : int;
}

type t = {
  config : config;
  asid : int;
  bus : Vmht_mem.Bus.t;
  engine : Engine.t;
  aspace : Addr_space.t;
  tlb : Tlb.t;
  tlb2 : Tlb2.t option; (* SoC-shared second level, probed on L1 miss *)
  ptw : Ptw.t;
  page_shift : int; (* fixed at creation; cached off the page table *)
  page_mask : int;
  mutable accesses : int;
  mutable tlb_hits : int;
  mutable tlb_misses : int;
  mutable page_faults : int;
  mutable walk_cycles : int;
  mutable observer : Vmht_obs.Event.emitter option;
  mutable fault : Fi.t option;
}

let create ?(asid = 0) ?tlb2 config bus aspace =
  let page_shift = Page_table.page_shift (Addr_space.page_table aspace) in
  {
    config;
    asid;
    bus;
    engine = Vmht_mem.Bus.engine bus;
    aspace;
    tlb = Tlb.create config.tlb;
    tlb2;
    ptw =
      Ptw.create ~walk_cache_entries:config.walk_cache_entries bus
        (Addr_space.page_table aspace);
    page_shift;
    page_mask = (1 lsl page_shift) - 1;
    accesses = 0;
    tlb_hits = 0;
    tlb_misses = 0;
    page_faults = 0;
    walk_cycles = 0;
    observer = None;
    fault = None;
  }

let asid t = t.asid

let set_fault t inj =
  t.fault <- Some inj;
  Ptw.set_fault t.ptw inj

let set_observer t f = t.observer <- Some f

let emit t ?duration kind =
  match t.observer with Some f -> f ?duration kind | None -> ()

let page_shift t = t.page_shift

(* Walk the page table (timed), servicing a demand-page fault if the
   address space can repair the miss.  Recursion terminates because a
   successful [handle_fault] installs the mapping. *)
let rec refill t ~vaddr =
  match probe_tlb2 t ~vaddr with
  | Some frame -> frame
  | None -> refill_walk t ~vaddr

(* On an L1 miss, probe the SoC-shared second-level TLB before paying
   for a walk; a hit refills the L1 directly.  The probe cost is
   charged either way — the L2 must answer before the walker starts. *)
and probe_tlb2 t ~vaddr =
  match t.tlb2 with
  | None -> None
  | Some l2 ->
    let hit_cycles = (Tlb2.config l2).Tlb2.hit_cycles in
    if hit_cycles > 0 then Engine.wait_on t.engine hit_cycles;
    let vpn = vaddr lsr t.page_shift in
    (match Tlb2.lookup ~asid:t.asid l2 ~vpn with
    | Some entry ->
      emit t ~duration:hit_cycles
        (Vmht_obs.Event.Tlb2_hit { vaddr; asid = t.asid });
      Tlb.insert ~asid:t.asid t.tlb ~vpn entry;
      Some entry.Tlb.frame
    | None ->
      emit t (Vmht_obs.Event.Tlb2_miss { vaddr; asid = t.asid });
      None)

and refill_walk t ~vaddr =
  let walk_start = Engine.now t.engine in
  let reads_before = (Ptw.stats t.ptw).Ptw.level_reads in
  let entry =
    if t.config.hw_walk then Ptw.walk t.ptw ~vaddr
    else begin
      (* Software refill: trap to the CPU, which walks in software —
         charged as a fixed handler penalty plus the same table reads. *)
      Engine.wait_on t.engine t.config.sw_refill_penalty;
      Ptw.walk t.ptw ~vaddr
    end
  in
  emit t
    ~duration:(Engine.now t.engine - walk_start)
    (Vmht_obs.Event.Ptw_walk
       { vaddr; levels = (Ptw.stats t.ptw).Ptw.level_reads - reads_before });
  match entry with
  | Some { Page_table.frame; writable } ->
    let vpn = vaddr lsr page_shift t in
    let data = { Tlb.frame; writable } in
    Tlb.insert ~asid:t.asid t.tlb ~vpn data;
    (match t.tlb2 with
    | Some l2 -> Tlb2.insert ~asid:t.asid l2 ~vpn data
    | None -> ());
    frame
  | None ->
    (* Page not present: software fault path (demand paging). *)
    t.page_faults <- t.page_faults + 1;
    Engine.wait_on t.engine t.config.fault_penalty;
    emit t ~duration:t.config.fault_penalty
      (Vmht_obs.Event.Page_fault { vaddr; asid = t.asid });
    if Addr_space.handle_fault t.aspace ~vaddr then refill t ~vaddr
    else raise (Mmu_fault vaddr)

(* The translate fast path: a TLB hit must not touch the event queue
   (no wait round-trip scheduling a continuation) and must not
   allocate (no option from the lookup, no event payload unless an
   observer is installed).  Nearly every simulated memory access of a
   VM-enabled thread comes through here. *)
(* TLB shootdowns arrive asynchronously (another core remapping a
   shared region); the injector models them as instantaneous entry
   kills whose cost shows up downstream as extra misses and walks. *)
let maybe_shootdown t inj =
  if Fi.fires inj ~rate:(Fi.plan inj).Fp.tlb_shootdown_rate then
    if Fi.coin inj then begin
      Tlb.invalidate_all t.tlb;
      Fi.injected inj ~fault:"tlb_shootdown" ~cycles:0
    end
    else begin
      (* Draw over the slots actually built, not the configured entry
         count — on set-associative geometries the two differ and a
         larger bound skews invalidation toward low slots. *)
      Tlb.invalidate_slot t.tlb ~n:(Fi.draw inj (Tlb.slot_count t.tlb));
      Fi.injected inj ~fault:"tlb_invalidate" ~cycles:0
    end

let translate t ~vaddr =
  t.accesses <- t.accesses + 1;
  (match t.fault with
  | Some inj -> maybe_shootdown t inj
  | None -> ());
  let hit_cycles = t.config.tlb_hit_cycles in
  if hit_cycles > 0 then Engine.wait_on t.engine hit_cycles;
  let vpn = vaddr lsr t.page_shift in
  let offset = vaddr land t.page_mask in
  let frame = Tlb.lookup_frame ~asid:t.asid t.tlb ~vpn in
  if frame >= 0 then begin
    t.tlb_hits <- t.tlb_hits + 1;
    (match t.observer with
     | None -> ()
     | Some f ->
       f ~duration:hit_cycles (Vmht_obs.Event.Tlb_hit { vaddr; asid = t.asid }));
    frame lor offset
  end
  else begin
    t.tlb_misses <- t.tlb_misses + 1;
    (match t.observer with
     | None -> ()
     | Some f -> f (Vmht_obs.Event.Tlb_miss { vaddr; asid = t.asid }));
    let before = Engine.now t.engine in
    let frame = refill t ~vaddr in
    t.walk_cycles <- t.walk_cycles + (Engine.now t.engine - before);
    frame lor offset
  end

let load t vaddr =
  let paddr = translate t ~vaddr in
  Vmht_mem.Bus.read_word t.bus paddr

let store t vaddr value =
  let paddr = translate t ~vaddr in
  Vmht_mem.Bus.write_word t.bus paddr value

let invalidate_page t ~vaddr =
  Tlb.invalidate ~asid:t.asid t.tlb ~vpn:(vaddr lsr page_shift t)

let invalidate_walk_cache t = Ptw.invalidate_walk_cache t.ptw

let invalidate_walk_cache_page t ~vaddr =
  Ptw.invalidate_walk_cache_entry t.ptw ~vaddr

let address_space t = t.aspace

let stats (t : t) : stats =
  {
    accesses = t.accesses;
    tlb_hits = t.tlb_hits;
    tlb_misses = t.tlb_misses;
    page_faults = t.page_faults;
    walk_cycles = t.walk_cycles;
  }

let tlb_stats t = Tlb.stats t.tlb

let tlb_memo_hits t = Tlb.memo_hits t.tlb

let ptw_stats t = Ptw.stats t.ptw

let tlb_hit_rate t =
  if t.accesses = 0 then 0.
  else float_of_int t.tlb_hits /. float_of_int t.accesses
