module Engine = Vmht_sim.Engine
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
  engine : Engine.t;
  mem : Phys_mem.t;
  dram : Dram.t;
  resource : Resource.t;
  mutable reads : int;
  mutable writes : int;
  mutable words_moved : int;
  mutable observer : Event.emitter option;
  mutable fault : Fi.t option;
  (* The fault the current transaction drew ([""] = none) and its
     extra cycles, recorded once its wait is over.  From the draw to
     the record the transaction holds the bus or runs without
     yielding, so no other transaction draws in between. *)
  mutable drawn : string;
  mutable drawn_cycles : int;
}

(* Cycles a transaction spends winning the bus before its DRAM access. *)
let arbitration_cycles = 2

let create ~engine mem dram =
  {
    engine;
    mem;
    dram;
    resource = Resource.create ~engine;
    reads = 0;
    writes = 0;
    words_moved = 0;
    observer = None;
    fault = None;
    drawn = "";
    drawn_cycles = 0;
  }

let engine t = t.engine

let phys t = t.mem

let set_observer t f = t.observer <- Some f

let set_fault t inj = t.fault <- Some inj

(* Stretch one transaction's latency when the injector fires: a slave
   error costs the error turnaround plus a full re-issue (fresh
   arbitration + DRAM access); a contention window just holds the bus
   longer.  The injection is recorded after the wait so the emitted
   event spans cycles the transaction actually paid. *)
let with_fault t ~addr latency =
  match t.fault with
  | None -> latency
  | Some inj ->
    let plan = Fi.plan inj in
    if Fi.fires inj ~rate:plan.Fp.bus_error_rate then begin
      let extra =
        plan.Fp.bus_error_cycles + arbitration_cycles
        + Dram.access_latency t.dram ~addr
      in
      t.drawn <- "bus_error";
      t.drawn_cycles <- extra;
      latency + extra
    end
    else if Fi.fires inj ~rate:plan.Fp.bus_contention_rate then begin
      let extra = plan.Fp.bus_contention_cycles in
      t.drawn <- "bus_contention";
      t.drawn_cycles <- extra;
      latency + extra
    end
    else latency

let record_fault t =
  match t.fault with
  | Some inj when t.drawn <> "" ->
    Fi.injected inj ~fault:t.drawn ~cycles:t.drawn_cycles;
    t.drawn <- ""
  | Some _ | None -> ()

(* The transaction event is built only for an installed observer. *)
let observe t ~duration op addr words =
  match t.observer with
  | Some f -> f ~duration (Event.Bus_txn { op; addr; words })
  | None -> ()

let read_word t addr =
  Resource.acquire t.resource;
  let latency =
    with_fault t ~addr (arbitration_cycles + Dram.access_latency t.dram ~addr)
  in
  Engine.wait_on t.engine latency;
  let v = Phys_mem.read t.mem addr in
  Resource.release t.resource;
  t.reads <- t.reads + 1;
  t.words_moved <- t.words_moved + 1;
  record_fault t;
  observe t ~duration:latency Event.Read addr 1;
  v

let write_word t addr value =
  Resource.acquire t.resource;
  let latency =
    with_fault t ~addr (arbitration_cycles + Dram.access_latency t.dram ~addr)
  in
  Engine.wait_on t.engine latency;
  Phys_mem.write t.mem addr value;
  Resource.release t.resource;
  t.writes <- t.writes + 1;
  t.words_moved <- t.words_moved + 1;
  record_fault t;
  observe t ~duration:latency Event.Write addr 1

let read_burst_into t ~addr ~words dst ~pos =
  Resource.acquire t.resource;
  let latency =
    with_fault t ~addr
      (arbitration_cycles + Dram.burst_latency t.dram ~addr ~words)
  in
  Engine.wait_on t.engine latency;
  for i = 0 to words - 1 do
    dst.(pos + i) <- Phys_mem.read t.mem (addr + (i * Phys_mem.word_bytes))
  done;
  Resource.release t.resource;
  t.reads <- t.reads + 1;
  t.words_moved <- t.words_moved + words;
  record_fault t;
  observe t ~duration:latency Event.Read addr words

let read_burst t ~addr ~words =
  let data = Array.make words 0 in
  read_burst_into t ~addr ~words data ~pos:0;
  data

let write_burst t ~addr data =
  let words = Array.length data in
  Resource.acquire t.resource;
  let latency =
    with_fault t ~addr
      (arbitration_cycles + Dram.burst_latency t.dram ~addr ~words)
  in
  Engine.wait_on t.engine latency;
  for i = 0 to words - 1 do
    Phys_mem.write t.mem (addr + (i * Phys_mem.word_bytes)) data.(i)
  done;
  Resource.release t.resource;
  t.writes <- t.writes + 1;
  t.words_moved <- t.words_moved + words;
  record_fault t;
  observe t ~duration:latency Event.Write addr words

let stats (t : t) : stats =
  {
    reads = t.reads;
    writes = t.writes;
    words_moved = t.words_moved;
    bus = Resource.stats t.resource;
  }

let utilization t ~total_cycles =
  Resource.utilization t.resource ~total_cycles
