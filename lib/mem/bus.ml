module Resource = Vmht_sim.Resource
module Event = Vmht_obs.Event
module Fi = Vmht_fault.Injector
module Fp = Vmht_fault.Plan

type stats = {
  reads : int;
  writes : int;
  words_moved : int;
  bus : Resource.stats;
}

type t = {
  arbitration_cycles : int;
  mem : Phys_mem.t;
  dram : Dram.t;
  resource : Resource.t;
  mutable reads : int;
  mutable writes : int;
  mutable words_moved : int;
  mutable observer : Event.emitter option;
  mutable fault : Fi.t option;
}

let create ?(arbitration_cycles = 2) mem dram =
  {
    arbitration_cycles;
    mem;
    dram;
    resource = Resource.create ();
    reads = 0;
    writes = 0;
    words_moved = 0;
    observer = None;
    fault = None;
  }

let phys t = t.mem

let set_observer t f = t.observer <- Some f

let set_fault t inj = t.fault <- Some inj

let emit t ~duration kind =
  match t.observer with Some f -> f ~duration kind | None -> ()

(* Stretch one transaction's latency when the injector fires: a slave
   error costs the error turnaround plus a full re-issue (fresh
   arbitration + DRAM access); a contention window just holds the bus
   longer.  The injection is recorded after the wait so the emitted
   event spans cycles the transaction actually paid. *)
let with_fault t ~addr latency =
  match t.fault with
  | None -> (latency, None)
  | Some inj ->
    let plan = Fi.plan inj in
    if Fi.fires inj ~rate:plan.Fp.bus_error_rate then begin
      let extra =
        plan.Fp.bus_error_cycles + t.arbitration_cycles
        + Dram.access_latency t.dram ~addr
      in
      (latency + extra, Some ("bus_error", extra))
    end
    else if Fi.fires inj ~rate:plan.Fp.bus_contention_rate then
      let extra = plan.Fp.bus_contention_cycles in
      (latency + extra, Some ("bus_contention", extra))
    else (latency, None)

let record_fault t = function
  | None -> ()
  | Some (fault, cycles) -> (
    match t.fault with
    | Some inj -> Fi.injected inj ~fault ~cycles
    | None -> ())

let read_word t addr =
  Resource.acquire t.resource;
  let latency, fault =
    with_fault t ~addr (t.arbitration_cycles + Dram.access_latency t.dram ~addr)
  in
  Vmht_sim.Engine.wait latency;
  let v = Phys_mem.read t.mem addr in
  Resource.release t.resource;
  t.reads <- t.reads + 1;
  t.words_moved <- t.words_moved + 1;
  record_fault t fault;
  emit t ~duration:latency (Event.Bus_txn { op = Event.Read; addr; words = 1 });
  v

let write_word t addr value =
  Resource.acquire t.resource;
  let latency, fault =
    with_fault t ~addr (t.arbitration_cycles + Dram.access_latency t.dram ~addr)
  in
  Vmht_sim.Engine.wait latency;
  Phys_mem.write t.mem addr value;
  Resource.release t.resource;
  t.writes <- t.writes + 1;
  t.words_moved <- t.words_moved + 1;
  record_fault t fault;
  emit t ~duration:latency (Event.Bus_txn { op = Event.Write; addr; words = 1 })

let read_burst t ~addr ~words =
  Resource.acquire t.resource;
  let latency, fault =
    with_fault t ~addr
      (t.arbitration_cycles + Dram.burst_latency t.dram ~addr ~words)
  in
  Vmht_sim.Engine.wait latency;
  let data =
    Array.init words (fun i ->
        Phys_mem.read t.mem (addr + (i * Phys_mem.word_bytes)))
  in
  Resource.release t.resource;
  t.reads <- t.reads + 1;
  t.words_moved <- t.words_moved + words;
  record_fault t fault;
  emit t ~duration:latency (Event.Bus_txn { op = Event.Read; addr; words });
  data

let write_burst t ~addr data =
  let words = Array.length data in
  Resource.acquire t.resource;
  let latency, fault =
    with_fault t ~addr
      (t.arbitration_cycles + Dram.burst_latency t.dram ~addr ~words)
  in
  Vmht_sim.Engine.wait latency;
  Array.iteri
    (fun i v -> Phys_mem.write t.mem (addr + (i * Phys_mem.word_bytes)) v)
    data;
  Resource.release t.resource;
  t.writes <- t.writes + 1;
  t.words_moved <- t.words_moved + words;
  record_fault t fault;
  emit t ~duration:latency (Event.Bus_txn { op = Event.Write; addr; words })

let stats (t : t) : stats =
  {
    reads = t.reads;
    writes = t.writes;
    words_moved = t.words_moved;
    bus = Resource.stats t.resource;
  }

let utilization t ~total_cycles =
  Resource.utilization t.resource ~total_cycles
