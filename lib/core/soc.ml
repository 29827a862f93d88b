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
module Histogram = Vmht_obs.Histogram
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
  mutable observing : bool;
  mutable histograms : (string * Histogram.t) list; (* made at first sample *)
  mutable pass_rewrites : (string * int ref) list; (* pass name, rewrites *)
  mutable thread_aborts : int;
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
  let bus = Bus.create ~engine phys dram in
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
      observing = false;
      histograms = [];
      pass_rewrites = [];
      thread_aborts = 0;
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
  Engine.spawn t.engine main;
  Engine.run ~check_quiescent:true t.engine

let trace t = t.trace

let observing t = t.observing

(* Duration histograms fed live as span events stream by: these need
   per-event samples, which no component keeps.  Each is made at its
   first sample (a histogram holds 944 buckets), so an unobserved SoC
   has none. *)
let feed_histograms t ~duration kind =
  let observe name v =
    let h =
      match List.assoc_opt name t.histograms with
      | Some h -> h
      | None ->
        let h = Histogram.create () in
        t.histograms <- (name, h) :: t.histograms;
        h
    in
    Histogram.observe h v
  in
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
  feed_histograms t ~duration kind

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

(* One access of a profiled VM port: [store] writes [value], a load
   returns the word.  Translate hands over to Memory directly, with no
   simulated cycle between them, so the host clock is read three times
   (entering Translate, the handover, leaving Memory), and no closure
   is built. *)
let profiled_access engine meter mmu buffer ~store vaddr value =
  let saved = Engine.enter_phase engine Vmht_obs.Profile.Translate in
  match
    let t0 = Engine.now engine in
    let phys = Mmu.translate mmu ~vaddr in
    let t1 = Engine.now engine in
    meter.translate_cycles <- meter.translate_cycles + (t1 - t0);
    ignore (Engine.enter_phase engine Vmht_obs.Profile.Memory : Engine.phase);
    let v =
      if store then begin
        Cache.write buffer ~addr:vaddr ~phys value;
        0
      end
      else Cache.read buffer ~addr:vaddr ~phys
    in
    meter.mem_cycles <- meter.mem_cycles + (Engine.now engine - t1);
    v
  with
  | v ->
    ignore (Engine.enter_phase engine saved : Engine.phase);
    v
  | exception e ->
    ignore (Engine.enter_phase engine saved : Engine.phase);
    raise e

(* The VM wrapper's data path: translate through the thread's private
   TLB/walker, then go through its small stream buffer so consecutive
   words ride one bus burst.  The launcher drives it one access at a
   time, so the meter's spans never overlap.  The meter reads the SoC's
   own engine; only a profiled engine enters the Translate and Memory
   phases ({!profiled_access}).  The returned [flush] drains the
   buffer's dirty lines (timed); the launcher calls it when the thread
   completes, before handing results back to the host. *)
let vm_port_metered t mmu =
  let engine = t.engine in
  let buffer =
    Cache.create ~config:t.config.Config.accel_stream_buffer t.bus
  in
  let buf_name = instance_name "stream_buffer" (List.length t.stream_buffers) in
  t.stream_buffers <- buffer :: t.stream_buffers;
  if t.observing then
    Cache.set_observer buffer (emitter t ~component:buf_name);
  let meter = { translate_cycles = 0; mem_cycles = 0 } in
  let port =
    if Engine.profiled engine then
      {
        Accel.load =
          (fun vaddr ->
            profiled_access engine meter mmu buffer ~store:false vaddr 0);
        Accel.store =
          (fun vaddr value ->
            ignore
              (profiled_access engine meter mmu buffer ~store:true vaddr value
                : int));
        Accel.hold = Fun.const 0;
      }
    else begin
      let translate vaddr =
        let t0 = Engine.now engine in
        let phys = Mmu.translate mmu ~vaddr in
        meter.translate_cycles <-
          meter.translate_cycles + (Engine.now engine - t0);
        phys
      in
      {
        Accel.load =
          (fun vaddr ->
            let phys = translate vaddr in
            let t1 = Engine.now engine in
            let v = Cache.read buffer ~addr:vaddr ~phys in
            meter.mem_cycles <- meter.mem_cycles + (Engine.now engine - t1);
            v);
        Accel.store =
          (fun vaddr value ->
            let phys = translate vaddr in
            let t1 = Engine.now engine in
            Cache.write buffer ~addr:vaddr ~phys value;
            meter.mem_cycles <- meter.mem_cycles + (Engine.now engine - t1));
        Accel.hold = Fun.const 0;
      }
    end
  in
  (port, (fun () -> Cache.flush buffer), meter)

let make_scratchpad t ~words =
  let pad =
    Scratchpad.create ~words
      ~ports:
        (Vmht_hls.Schedule.mem_total_ports
           t.config.Config.resources.Vmht_hls.Schedule.mem)
  in
  let dma = Dma.create t.bus in
  let dma_name = instance_name "dma" (List.length t.dmas) in
  t.dmas <- dma :: t.dmas;
  if t.observing then Dma.set_observer dma (emitter t ~component:dma_name);
  if t.config.Config.fault.Vmht_fault.Plan.enabled then
    Dma.set_fault dma (make_injector t ~component:"dma");
  (pad, dma)

let scratchpad_port pad =
  {
    Accel.load = Scratchpad.load pad;
    store = Scratchpad.store pad;
    hold = Scratchpad.hold pad;
  }

let mmus t = t.mmu_list

let tlb2 t = t.tlb2

let fault_stats t =
  List.fold_left
    (fun acc inj -> Fi.add_stats acc (Fi.stats inj))
    Fi.zero_stats t.injectors

let bus_stats t = Bus.stats t.bus

let dram_row_hit_rate t = Dram.row_hit_rate t.dram

let add_pass_rewrites t ~pass n =
  match List.assoc_opt pass t.pass_rewrites with
  | Some r -> r := !r + n
  | None -> t.pass_rewrites <- (pass, ref n) :: t.pass_rewrites

let count_thread_abort t = t.thread_aborts <- t.thread_aborts + 1

let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

(* Read from the components' own stats on every call; nothing is kept
   beside them.  The fault counters exist only with fault injection on,
   a pass's counter after the first launch that ran it, and
   [fault.thread_aborts] after the first abort. *)
let counters t =
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let mmu f = sum (fun m -> f (Mmu.stats m)) t.mmu_list in
  let tlb f = sum (fun m -> f (Mmu.tlb_stats m)) t.mmu_list in
  let ptw f = sum (fun m -> f (Mmu.ptw_stats m)) t.mmu_list in
  let l2 =
    match t.tlb2 with
    | Some l2 -> Tlb2.stats l2
    | None -> { Tlb.lookups = 0; hits = 0; evictions = 0 }
  in
  let b = Bus.stats t.bus in
  let r = b.Bus.bus in
  let d = Dram.stats t.dram in
  let l1 = Cache.stats (Cpu.cache t.cpu) in
  let buf f = sum (fun b -> f (Cache.stats b)) t.stream_buffers in
  let dma f = sum (fun d -> f (Dma.stats d)) t.dmas in
  let cs = Cpu.stats t.cpu in
  let fault =
    if t.injectors = [] then []
    else begin
      let fs = fault_stats t in
      [
        ("fault.injected", fs.Fi.injected);
        ("fault.stall_cycles", fs.Fi.stall_cycles);
        ("fault.retries", fs.Fi.retries);
        ("fault.aborts", fs.Fi.aborts);
      ]
    end
  in
  let aborts =
    if t.thread_aborts = 0 then []
    else [ ("fault.thread_aborts", t.thread_aborts) ]
  in
  let passes =
    List.map (fun (p, n) -> ("pass." ^ p ^ ".rewrites", !n)) t.pass_rewrites
  in
  by_name
    ([
       ("mmu.accesses", mmu (fun s -> s.Mmu.accesses));
       ("mmu.tlb_hits", mmu (fun s -> s.Mmu.tlb_hits));
       ("mmu.tlb_misses", mmu (fun s -> s.Mmu.tlb_misses));
       ("mmu.page_faults", mmu (fun s -> s.Mmu.page_faults));
       ("mmu.walk_cycles", mmu (fun s -> s.Mmu.walk_cycles));
       ("tlb.lookups", tlb (fun s -> s.Tlb.lookups));
       ("tlb.hits", tlb (fun s -> s.Tlb.hits));
       ("tlb.evictions", tlb (fun s -> s.Tlb.evictions));
       ("tlb.memo_hits", sum Mmu.tlb_memo_hits t.mmu_list);
       ("engine.dispatches", Engine.events_executed t.engine);
       ("engine.fast_forwards", Engine.fast_forwards t.engine);
       ("ptw.walks", ptw (fun s -> s.Ptw.walks));
       ("ptw.level_reads", ptw (fun s -> s.Ptw.level_reads));
       ("ptw.failed_walks", ptw (fun s -> s.Ptw.failed_walks));
       ("tlb2.lookups", l2.Tlb.lookups);
       ("tlb2.hits", l2.Tlb.hits);
       ("tlb2.misses", l2.Tlb.lookups - l2.Tlb.hits);
       ("tlb2.evictions", l2.Tlb.evictions);
       ("walk_cache.hits", ptw (fun s -> s.Ptw.walk_cache_hits));
       ("walk_cache.misses", ptw (fun s -> s.Ptw.walk_cache_misses));
       ("bus.reads", b.Bus.reads);
       ("bus.writes", b.Bus.writes);
       ("bus.words_moved", b.Bus.words_moved);
       ("bus.transactions", r.Vmht_sim.Resource.transactions);
       ("bus.busy_cycles", r.Vmht_sim.Resource.busy_cycles);
       ("bus.wait_cycles", r.Vmht_sim.Resource.wait_cycles);
       ("dram.accesses", d.Dram.accesses);
       ("dram.row_hits", d.Dram.row_hits);
       ("dram.row_misses", d.Dram.row_misses);
       ("cache.read_hits", l1.Cache.read_hits);
       ("cache.read_misses", l1.Cache.read_misses);
       ("cache.write_hits", l1.Cache.write_hits);
       ("cache.write_misses", l1.Cache.write_misses);
       ("cache.writebacks", l1.Cache.writebacks);
       ("cache.invalidations", l1.Cache.invalidations);
       ("stream_buffer.read_hits", buf (fun s -> s.Cache.read_hits));
       ("stream_buffer.read_misses", buf (fun s -> s.Cache.read_misses));
       ("stream_buffer.write_hits", buf (fun s -> s.Cache.write_hits));
       ("stream_buffer.write_misses", buf (fun s -> s.Cache.write_misses));
       ("stream_buffer.writebacks", buf (fun s -> s.Cache.writebacks));
       ("dma.transfers", dma (fun s -> s.Dma.transfers));
       ("dma.words_in", dma (fun s -> s.Dma.words_in));
       ("dma.words_out", dma (fun s -> s.Dma.words_out));
       ("cpu.instructions", cs.Cpu.instructions);
       ("cpu.branches", cs.Cpu.branches);
       ("cpu.mem_accesses", cs.Cpu.mem_accesses);
       ("cpu.faults", cs.Cpu.faults);
       ("cpu.mem_cycles", cs.Cpu.mem_cycles);
       ("mem.mapped_pages", Addr_space.mapped_pages t.aspace);
     ]
    @ fault @ aborts @ passes)

let gauges t =
  [
    ( "bus.max_queue",
      float_of_int (Bus.stats t.bus).Bus.bus.Vmht_sim.Resource.max_queue );
    ("dram.row_hit_rate", Dram.row_hit_rate t.dram);
  ]

let histograms t = by_name t.histograms
