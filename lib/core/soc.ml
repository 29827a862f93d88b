module Engine = Vmht_sim.Engine
module Phys_mem = Vmht_mem.Phys_mem
module Dram = Vmht_mem.Dram
module Bus = Vmht_mem.Bus
module Scratchpad = Vmht_mem.Scratchpad
module Dma = Vmht_mem.Dma
module Frame_alloc = Vmht_vm.Frame_alloc
module Addr_space = Vmht_vm.Addr_space
module Mmu = Vmht_vm.Mmu
module Tlb = Vmht_vm.Tlb
module Tlb2 = Vmht_vm.Tlb2
module Ptw = Vmht_vm.Ptw
module Cpu = Vmht_cpu.Cpu
module Accel = Vmht_hls.Accel
module Cache = Vmht_mem.Cache
module Event = Vmht_obs.Event
module Metrics = Vmht_obs.Metrics
module Fi = Vmht_fault.Injector

type port_meter = {
  mutable translate_cycles : int;
  mutable mem_cycles : int;
}

(* Process-wide SoC numbering, so each SoC has a distinct Chrome-trace
   pid even when several simulations run concurrently on the pool. *)
let next_soc_id = Atomic.make 1

(* Component instances get distinct names ("mmu", "mmu1", "mmu2", ...)
   so the trace export keeps one thread track per instance.  The first
   instance keeps the bare class name: single-instance SoCs — the
   common case — read exactly as before. *)
let instance_name base idx = if idx = 0 then base else base ^ string_of_int idx

type t = {
  id : int;
  config : Config.t;
  engine : Engine.t;
  phys : Phys_mem.t;
  dram : Dram.t;
  bus : Bus.t;
  frames : Frame_alloc.t;
  aspace : Addr_space.t;
  cpu : Cpu.t;
  tlb2 : Tlb2.t option; (* one shared second-level TLB for all MMUs *)
  mutable mmu_list : Mmu.t list;
  mutable next_asid : int;
  trace : Vmht_sim.Trace.t;
  metrics : Metrics.t;
  mutable observing : bool;
  mutable dmas : Dma.t list;
  mutable stream_buffers : Cache.t list;
  mutable injectors : Fi.t list;
}

(* Every process gets [va_bits] of virtual space.  Two page-table
   levels of at most page-sized tables cover 3*page_shift - 6 bits;
   clamp so small-page configurations (the Figure 3 sweep) stay
   representable. *)
let va_bits = 26

let new_address_space phys frames ~page_shift =
  Addr_space.create phys frames ~page_shift
    ~va_bits:(min va_bits ((3 * page_shift) - 6))

let create (config : Config.t) =
  let engine = Engine.create () in
  let phys = Phys_mem.create ~bytes:config.Config.phys_bytes in
  let dram = Dram.create () in
  let bus = Bus.create phys dram in
  let frames =
    Frame_alloc.create ~base:0 ~bytes:config.Config.phys_bytes
      ~page_bytes:(1 lsl config.Config.page_shift)
  in
  let aspace =
    new_address_space phys frames ~page_shift:config.Config.page_shift
  in
  let cpu = Cpu.create bus aspace in
  let t =
    {
      id = Atomic.fetch_and_add next_soc_id 1;
      config;
      engine;
      phys;
      dram;
      bus;
      frames;
      aspace;
      cpu;
      tlb2 =
        (if config.Config.tlb2.Tlb2.enabled then
           Some (Tlb2.create config.Config.tlb2)
         else None);
      mmu_list = [];
      next_asid = 1;
      trace = Vmht_sim.Trace.create ();
      metrics = Metrics.create ();
      observing = false;
      dmas = [];
      stream_buffers = [];
      injectors = [];
    }
  in
  (if config.Config.fault.Vmht_fault.Plan.enabled then begin
     let make component =
       let inj =
         Fi.create ~plan:config.Config.fault ~seed:config.Config.seed
           ~component
       in
       t.injectors <- inj :: t.injectors;
       inj
     in
     Bus.set_fault bus (make "bus");
     Dram.set_fault dram (make "dram")
   end);
  t

let id t = t.id

let config t = t.config

let engine t = t.engine

let aspace t = t.aspace

let bus t = t.bus

let cpu t = t.cpu

let now t = Engine.now t.engine

let run t main =
  Engine.spawn t.engine ~name:"main" main;
  Engine.run t.engine

let trace t = t.trace

let metrics t = t.metrics

let observing t = t.observing

(* Duration histograms fed live as span events stream by — these need
   per-event samples, so they cannot be synced from component counters
   after the fact like everything in [sync_metrics]. *)
let feed_metrics t ~duration kind =
  let observe name v = Metrics.observe (Metrics.histogram t.metrics name) v in
  match kind with
  | Event.Bus_txn { words; _ } ->
    observe "bus.txn_cycles" duration;
    observe "bus.txn_words" words
  | Event.Ptw_walk _ -> observe "mmu.walk_cycles" duration
  | Event.Page_fault _ -> observe "mmu.fault_cycles" duration
  | Event.Dma_burst { words; _ } ->
    observe "dma.burst_cycles" duration;
    observe "dma.burst_words" words
  | Event.Fault_inject _ -> observe "fault.inject_cycles" duration
  | Event.Fault_retry _ -> observe "fault.retry_cycles" duration
  | _ -> ()

(* Events arrive when their span completes; stamping [at] back by the
   duration makes [at] the start cycle, which is what a timeline
   renderer wants. *)
let emitter t ~component : Event.emitter =
 fun ?(duration = 0) kind ->
  let at = Engine.now t.engine - duration in
  Vmht_sim.Trace.record t.trace ~at ~duration ~component kind;
  feed_metrics t ~duration kind

let emit t ~component ?duration kind = emitter t ~component ?duration kind

(* One injector stream per component class, memoized by name: every
   MMU shares "mmu", every DMA engine shares "dma".  Sharing is what
   makes the injection budget global across a thread's re-runs — a
   fresh engine created for attempt N+1 keeps drawing from (and
   spending) the same stream, so an abort storm exhausts the budget
   and recovery always terminates. *)
let make_injector t ~component =
  match List.find_opt (fun inj -> Fi.component inj = component) t.injectors with
  | Some inj -> inj
  | None ->
    let inj =
      Fi.create ~plan:t.config.Config.fault ~seed:t.config.Config.seed
        ~component
    in
    t.injectors <- inj :: t.injectors;
    if t.observing then Fi.set_observer inj (emitter t ~component);
    inj

(* Instance lists are built by prepending, so the instance index of
   position [i] in a list of [n] is [n - 1 - i]. *)
let iter_instances base xs f =
  let n = List.length xs in
  List.iteri (fun i x -> f (instance_name base (n - 1 - i)) x) xs

let install_observers t =
  Bus.set_observer t.bus (emitter t ~component:"bus");
  Dram.set_observer t.dram (emitter t ~component:"dram");
  Cpu.set_observer t.cpu (emitter t ~component:"cpu");
  Cache.set_observer (Cpu.cache t.cpu) (emitter t ~component:"cache");
  iter_instances "mmu" t.mmu_list (fun name mmu ->
      Mmu.set_observer mmu (emitter t ~component:name));
  iter_instances "dma" t.dmas (fun name dma ->
      Dma.set_observer dma (emitter t ~component:name));
  iter_instances "stream_buffer" t.stream_buffers (fun name buf ->
      Cache.set_observer buf (emitter t ~component:name));
  List.iter
    (fun inj -> Fi.set_observer inj (emitter t ~component:(Fi.component inj)))
    t.injectors

let enable_tracing t =
  Vmht_sim.Trace.enable t.trace true;
  t.observing <- true;
  (* Event-queue contention: sizes of same-timestamp dispatch batches. *)
  let batch_hist = Metrics.histogram t.metrics "engine.dispatch_batch" in
  Engine.observe_batches t.engine (Metrics.observe batch_hist);
  install_observers t

let make_mmu ?aspace t =
  let space, asid = Option.value ~default:(t.aspace, 0) aspace in
  let mmu =
    Mmu.create ~asid ?tlb2:t.tlb2 t.config.Config.mmu t.bus space
  in
  let name = instance_name "mmu" (List.length t.mmu_list) in
  t.mmu_list <- mmu :: t.mmu_list;
  (* Late-created MMUs join an already-enabled trace. *)
  if t.observing then Mmu.set_observer mmu (emitter t ~component:name);
  if t.config.Config.fault.Vmht_fault.Plan.enabled then
    Mmu.set_fault mmu (make_injector t ~component:"mmu");
  mmu

let create_process t =
  let space =
    new_address_space t.phys t.frames ~page_shift:t.config.Config.page_shift
  in
  let asid = t.next_asid in
  t.next_asid <- asid + 1;
  (space, asid)

(* A shootdown must reach every structure that may hold the dying
   translation: each MMU's L1, the shared L2 (conservatively across
   ASIDs — the shared level cannot know who aliases the page), and the
   walk caches of the MMUs translating this space, whose memoized
   level-1 entry dies with the (possibly freed) level-2 table.  Walk
   caches are probed before the unmap clears the table, while
   [walk_addrs] still names the live level-1 entry. *)
let unmap_page t space ~vaddr =
  List.iter
    (fun mmu ->
      if Mmu.address_space mmu == space then
        Mmu.invalidate_walk_cache_page mmu ~vaddr)
    t.mmu_list;
  Vmht_vm.Page_table.unmap (Addr_space.page_table space) ~vaddr;
  let vpn = vaddr lsr t.config.Config.page_shift in
  (match t.tlb2 with
  | Some l2 -> Tlb2.invalidate_vpn l2 ~vpn
  | None -> ());
  List.iter (fun mmu -> Mmu.invalidate_page mmu ~vaddr) t.mmu_list

(* The VM wrapper's data path: translate through the thread's private
   TLB/walker, then go through its small stream buffer so consecutive
   words ride one bus burst.  The launcher drives it one access at a
   time, so the meter's spans never overlap.  The returned [flush]
   drains the buffer's dirty lines (timed); the launcher calls it when
   the thread completes, before handing results back to the host. *)
let vm_port_metered t mmu =
  let buffer =
    Cache.create ~config:t.config.Config.accel_stream_buffer t.bus
  in
  let buf_name = instance_name "stream_buffer" (List.length t.stream_buffers) in
  t.stream_buffers <- buffer :: t.stream_buffers;
  if t.observing then
    Cache.set_observer buffer (emitter t ~component:buf_name);
  let meter = { translate_cycles = 0; mem_cycles = 0 } in
  let translate vaddr =
    let t0 = Engine.now_p () in
    let phys =
      Engine.with_phase Vmht_obs.Profile.Translate (fun () ->
          Mmu.translate mmu ~vaddr)
    in
    meter.translate_cycles <- meter.translate_cycles + (Engine.now_p () - t0);
    phys
  in
  let port =
    {
      Accel.load =
        (fun vaddr ->
          let phys = translate vaddr in
          let t1 = Engine.now_p () in
          let v =
            Engine.with_phase Vmht_obs.Profile.Memory (fun () ->
                Cache.read buffer ~addr:vaddr ~phys)
          in
          meter.mem_cycles <- meter.mem_cycles + (Engine.now_p () - t1);
          v);
      Accel.store =
        (fun vaddr value ->
          let phys = translate vaddr in
          let t1 = Engine.now_p () in
          Engine.with_phase Vmht_obs.Profile.Memory (fun () ->
              Cache.write buffer ~addr:vaddr ~phys value);
          meter.mem_cycles <- meter.mem_cycles + (Engine.now_p () - t1));
    }
  in
  (port, (fun () -> Cache.flush buffer), meter)

let make_scratchpad ?words t =
  let words =
    match words with
    | Some w -> w
    | None -> t.config.Config.scratchpad_words
  in
  let pad = Scratchpad.create ~words ~access_latency:1 in
  let dma = Dma.create t.bus in
  let dma_name = instance_name "dma" (List.length t.dmas) in
  t.dmas <- dma :: t.dmas;
  if t.observing then Dma.set_observer dma (emitter t ~component:dma_name);
  if t.config.Config.fault.Vmht_fault.Plan.enabled then
    Dma.set_fault dma (make_injector t ~component:"dma");
  (pad, dma)

let scratchpad_port pad =
  { Accel.load = Scratchpad.load pad; Accel.store = Scratchpad.store pad }

let mmus t = t.mmu_list

let tlb2 t = t.tlb2

let fault_stats t =
  List.fold_left
    (fun acc inj -> Fi.add_stats acc (Fi.stats inj))
    Fi.zero_stats t.injectors

let bus_stats t = Bus.stats t.bus

let dram_row_hit_rate t = Dram.row_hit_rate t.dram

(* Pull-model half of the metrics story: component counters are copied
   into the registry under "component.metric" names whenever a caller
   wants a coherent snapshot.  (Histograms are push-fed by the
   observers, see [feed_metrics].) *)
let sync_metrics t =
  let c name v = Metrics.set_counter (Metrics.counter t.metrics name) v in
  let g name v = Metrics.set_gauge (Metrics.gauge t.metrics name) v in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  c "mmu.accesses" (sum (fun m -> (Mmu.stats m).Mmu.accesses) t.mmu_list);
  c "mmu.tlb_hits" (sum (fun m -> (Mmu.stats m).Mmu.tlb_hits) t.mmu_list);
  c "mmu.tlb_misses" (sum (fun m -> (Mmu.stats m).Mmu.tlb_misses) t.mmu_list);
  c "mmu.page_faults"
    (sum (fun m -> (Mmu.stats m).Mmu.page_faults) t.mmu_list);
  c "mmu.walk_cycles"
    (sum (fun m -> (Mmu.stats m).Mmu.walk_cycles) t.mmu_list);
  c "tlb.lookups" (sum (fun m -> (Mmu.tlb_stats m).Tlb.lookups) t.mmu_list);
  c "tlb.hits" (sum (fun m -> (Mmu.tlb_stats m).Tlb.hits) t.mmu_list);
  c "tlb.evictions"
    (sum (fun m -> (Mmu.tlb_stats m).Tlb.evictions) t.mmu_list);
  c "tlb.memo_hits" (sum Mmu.tlb_memo_hits t.mmu_list);
  c "engine.dispatches" (Engine.events_executed t.engine);
  c "engine.fast_forwards" (Engine.fast_forwards t.engine);
  c "ptw.walks" (sum (fun m -> (Mmu.ptw_stats m).Ptw.walks) t.mmu_list);
  c "ptw.level_reads"
    (sum (fun m -> (Mmu.ptw_stats m).Ptw.level_reads) t.mmu_list);
  c "ptw.failed_walks"
    (sum (fun m -> (Mmu.ptw_stats m).Ptw.failed_walks) t.mmu_list);
  (let s =
     match t.tlb2 with
     | Some l2 -> Tlb2.stats l2
     | None -> { Tlb.lookups = 0; hits = 0; evictions = 0 }
   in
   c "tlb2.lookups" s.Tlb.lookups;
   c "tlb2.hits" s.Tlb.hits;
   c "tlb2.misses" (s.Tlb.lookups - s.Tlb.hits);
   c "tlb2.evictions" s.Tlb.evictions);
  c "walk_cache.hits"
    (sum (fun m -> (Mmu.ptw_stats m).Ptw.walk_cache_hits) t.mmu_list);
  c "walk_cache.misses"
    (sum (fun m -> (Mmu.ptw_stats m).Ptw.walk_cache_misses) t.mmu_list);
  let b = Bus.stats t.bus in
  c "bus.reads" b.Bus.reads;
  c "bus.writes" b.Bus.writes;
  c "bus.words_moved" b.Bus.words_moved;
  c "bus.transactions" b.Bus.bus.Vmht_sim.Resource.transactions;
  c "bus.busy_cycles" b.Bus.bus.Vmht_sim.Resource.busy_cycles;
  c "bus.wait_cycles" b.Bus.bus.Vmht_sim.Resource.wait_cycles;
  g "bus.max_queue" (float_of_int b.Bus.bus.Vmht_sim.Resource.max_queue);
  let d = Dram.stats t.dram in
  c "dram.accesses" d.Dram.accesses;
  c "dram.row_hits" d.Dram.row_hits;
  c "dram.row_misses" d.Dram.row_misses;
  g "dram.row_hit_rate" (Dram.row_hit_rate t.dram);
  let l1 = Cache.stats (Cpu.cache t.cpu) in
  c "cache.read_hits" l1.Cache.read_hits;
  c "cache.read_misses" l1.Cache.read_misses;
  c "cache.write_hits" l1.Cache.write_hits;
  c "cache.write_misses" l1.Cache.write_misses;
  c "cache.writebacks" l1.Cache.writebacks;
  c "cache.invalidations" l1.Cache.invalidations;
  let buf_sum f = sum (fun b -> f (Cache.stats b)) t.stream_buffers in
  c "stream_buffer.read_hits" (buf_sum (fun s -> s.Cache.read_hits));
  c "stream_buffer.read_misses" (buf_sum (fun s -> s.Cache.read_misses));
  c "stream_buffer.write_hits" (buf_sum (fun s -> s.Cache.write_hits));
  c "stream_buffer.write_misses" (buf_sum (fun s -> s.Cache.write_misses));
  c "stream_buffer.writebacks" (buf_sum (fun s -> s.Cache.writebacks));
  c "dma.transfers" (sum (fun d -> (Dma.stats d).Dma.transfers) t.dmas);
  c "dma.words_in" (sum (fun d -> (Dma.stats d).Dma.words_in) t.dmas);
  c "dma.words_out" (sum (fun d -> (Dma.stats d).Dma.words_out) t.dmas);
  let cs = Cpu.stats t.cpu in
  c "cpu.instructions" cs.Cpu.instructions;
  c "cpu.branches" cs.Cpu.branches;
  c "cpu.mem_accesses" cs.Cpu.mem_accesses;
  c "cpu.faults" cs.Cpu.faults;
  c "cpu.mem_cycles" cs.Cpu.mem_cycles;
  (if t.injectors <> [] then begin
     let fs = fault_stats t in
     c "fault.injected" fs.Fi.injected;
     c "fault.stall_cycles" fs.Fi.stall_cycles;
     c "fault.retries" fs.Fi.retries;
     c "fault.aborts" fs.Fi.aborts
   end);
  c "mem.mapped_pages" (Addr_space.mapped_pages t.aspace)
