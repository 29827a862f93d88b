module Engine = Vmht_sim.Engine
module Addr_space = Vmht_vm.Addr_space
module Mmu = Vmht_vm.Mmu
module Scratchpad = Vmht_mem.Scratchpad
module Dma = Vmht_mem.Dma
module Accel = Vmht_hls.Accel
module Cpu = Vmht_cpu.Cpu
module Ir = Vmht_ir.Ir
module Profile = Vmht_obs.Profile

type dir = In | Out | InOut

type buffer = { base : int; words : int; dir : dir }

type request = { args : int list; buffers : buffer list }

type breakdown = {
  stage_cycles : int;
  compute_cycles : int;
  drain_cycles : int;
}

type result = {
  ret : int option;
  total_cycles : int;
  phases : breakdown;
  attribution : Vmht_obs.Attribution.t;
  mmu_stats : Mmu.stats option;
  tlb_hit_rate : float option;
  accel_stats : Accel.run_stats option;
  page_faults : int;
}

exception Window_overflow of string

let word_bytes = Vmht_mem.Phys_mem.word_bytes

let phase_begin soc phase =
  Soc.emit soc ~component:"launch" (Vmht_obs.Event.Phase_begin { phase })

let phase_end soc phase =
  Soc.emit soc ~component:"launch" (Vmht_obs.Event.Phase_end { phase })

let accel_observer soc =
  if Soc.observing soc then Some (Soc.emitter soc ~component:"accel")
  else None

(* The compute phase of a hardware thread, dispatched to the configured
   backend.  [Model] interprets the scheduled FSM directly; [Rtl]
   parses the emitted Verilog text back and executes the emitted bytes
   against the very same [port] at the same issue width — identical
   translation, banking and fault draws — so the two backends are
   contractually result- and cycle-identical (the rtl1 experiment
   enforces it).  The RTL path reports [ret] only when the kernel
   returns a value: the emitted module always has a [result] register,
   but a void kernel's is meaningless. *)
let exec_thread soc (hw : Flow.hw_thread) ~stats ~port ~args =
  let cfg = Soc.config soc in
  (* A VM wrapper's TLB and stream buffer take one request at a time;
     a copy-based wrapper's scratchpad is multi-ported, so a DMA thread
     issues as wide as the schedule was arbitrated for. *)
  let ports =
    match hw.Flow.style with
    | Wrapper.Vm_iface -> 1
    | Wrapper.Dma_iface ->
      Vmht_hls.Schedule.mem_total_ports
        cfg.Config.resources.Vmht_hls.Schedule.mem
  in
  match cfg.Config.backend with
  | Config.Model ->
    Accel.run ?observer:(accel_observer soc) ~stats ~ports hw.Flow.fsm ~port
      ~args
  | Config.Rtl ->
    if hw.Flow.fsm.Vmht_hls.Fsm.plans <> [] then
      invalid_arg
        "Launch: the rtl backend does not support pipelined schedules \
         (the emitted FSM is unpipelined); drop --pipeline or use the \
         model backend";
    let prog = Vmht_rtl.Eval.load hw.Flow.verilog in
    let out = Vmht_rtl.Eval.run ~stats ~ports prog ~port ~args in
    let returns_value =
      List.exists
        (fun (b : Ir.block) ->
          match b.Ir.term with Ir.Ret (Some _) -> true | _ -> false)
        hw.Flow.fsm.Vmht_hls.Fsm.func.Ir.blocks
    in
    if returns_value then out.Vmht_rtl.Eval.result else None

let run_sw soc func request =
  let t0 = Engine.now_p () in
  let cpu = Soc.cpu soc in
  let before = Cpu.stats cpu in
  phase_begin soc "compute";
  let ret =
    Engine.with_phase Profile.Actor (fun () ->
        Cpu.run_func cpu func ~args:request.args)
  in
  phase_end soc "compute";
  let tm = Engine.now_p () in
  (* Make the thread's results visible to the rest of the system. *)
  phase_begin soc "drain";
  Engine.with_phase Profile.Memory (fun () -> Cpu.flush_cache cpu);
  phase_end soc "drain";
  let t1 = Engine.now_p () in
  let after = Cpu.stats cpu in
  let faults = after.Cpu.faults - before.Cpu.faults in
  let mem = after.Cpu.mem_cycles - before.Cpu.mem_cycles in
  (* The CPU runs as one process, so its load/store spans partition
     the compute phase exactly: what is not memory time is execution. *)
  let fault = faults * Cpu.fault_penalty cpu in
  let attribution =
    {
      Vmht_obs.Attribution.zero with
      Vmht_obs.Attribution.fault;
      dram = mem - fault;
      compute = tm - t0 - mem;
      drain = t1 - tm;
    }
  in
  {
    ret;
    total_cycles = t1 - t0;
    phases = { stage_cycles = 0; compute_cycles = t1 - t0; drain_cycles = 0 };
    attribution;
    mmu_stats = None;
    tlb_hit_rate = None;
    accel_stats = None;
    page_faults = faults;
  }

(* Cache maintenance the host performs after any hardware thread
   completes, so CPU reads observe the accelerator's writes. *)
let cache_maintenance_cycles = 64

let host_cache_maintenance soc =
  Engine.with_phase Profile.Memory (fun () ->
      Engine.wait cache_maintenance_cycles;
      Vmht_mem.Cache.invalidate_all (Cpu.cache (Soc.cpu soc)))

let bus_wait_cycles soc =
  (Soc.bus_stats soc).Vmht_mem.Bus.bus.Vmht_sim.Resource.wait_cycles

let run_hw_vm soc (hw : Flow.hw_thread) request =
  let t0 = Engine.now_p () in
  let bw0 = bus_wait_cycles soc in
  let mmu = Soc.make_mmu soc in
  let port, flush_buffer, meter = Soc.vm_port_metered soc mmu in
  let stats = Accel.fresh_stats () in
  phase_begin soc "compute";
  let ret =
    Engine.with_phase Profile.Actor (fun () ->
        exec_thread soc hw ~stats ~port ~args:request.args)
  in
  phase_end soc "compute";
  let t1 = Engine.now_p () in
  let bw1 = bus_wait_cycles soc in
  phase_begin soc "drain";
  Engine.with_phase Profile.Memory flush_buffer;
  host_cache_maintenance soc;
  phase_end soc "drain";
  let t2 = Engine.now_p () in
  let mstats = Mmu.stats mmu in
  (* The port meter's two spans never overlap (the thread issues one
     access at a time), and the MMU is private to this run, so the
     split below partitions [t1 - t0] exactly: translate covers TLB
     pipeline time outside walks, walks cover refills net of fault
     handling, and what the meter never saw is FSM compute.  Bus
     queueing below the port is split out of the memory span — clamped,
     because other masters' waits land in the same shared counter. *)
  let fault =
    mstats.Mmu.page_faults * (Soc.config soc).Config.mmu.Mmu.fault_penalty
  in
  let walk_all = mstats.Mmu.walk_cycles in
  let bus_wait = min (bw1 - bw0) meter.Soc.mem_cycles in
  let attribution =
    {
      Vmht_obs.Attribution.translate = meter.Soc.translate_cycles - walk_all;
      walk = walk_all - fault;
      fault;
      bus_wait;
      dram = meter.Soc.mem_cycles - bus_wait;
      compute = t1 - t0 - meter.Soc.translate_cycles - meter.Soc.mem_cycles;
      dma_stage = 0;
      drain = t2 - t1;
    }
  in
  {
    ret;
    total_cycles = t2 - t0;
    phases =
      {
        stage_cycles = 0;
        compute_cycles = t1 - t0;
        drain_cycles = t2 - t1;
      };
    attribution;
    mmu_stats = Some mstats;
    tlb_hit_rate = Some (Mmu.tlb_hit_rate mmu);
    accel_stats = Some stats;
    page_faults = mstats.Mmu.page_faults;
  }

(* CPU cost to pin and translate one page when staging a DMA. *)
let pin_cycles_per_page = 40

(* Page-sized (phys, words) chunks covering a buffer, pinning (and if
   needed demand-materializing) each page on the way. *)
let pin_and_chunk soc buffer =
  let aspace = Soc.aspace soc in
  let config = Soc.config soc in
  let page = 1 lsl config.Config.page_shift in
  let bytes = buffer.words * word_bytes in
  (* Pinning materializes lazy pages: the host touches each one. *)
  let resolve va =
    match Addr_space.translate aspace va with
    | Some p -> p
    | None ->
      if Addr_space.handle_fault aspace ~vaddr:va then
        match Addr_space.translate aspace va with
        | Some p -> p
        | None -> raise (Addr_space.Segfault va)
      else raise (Addr_space.Segfault va)
  in
  let rec go va acc =
    if va >= buffer.base + bytes then List.rev acc
    else begin
      Engine.wait pin_cycles_per_page;
      let phys = resolve va in
      let chunk_words =
        min (page / word_bytes) ((buffer.base + bytes - va) / word_bytes)
      in
      go (va + page) ((phys, chunk_words) :: acc)
    end
  in
  Engine.with_phase Profile.Translate (fun () -> go buffer.base [])

let run_hw_dma soc (hw : Flow.hw_thread) request =
  let t0 = Engine.now_p () in
  let pad, dma = Soc.make_scratchpad soc in
  let total_words =
    List.fold_left (fun acc b -> acc + b.words) 0 request.buffers
  in
  if total_words > Scratchpad.capacity_words pad then
    raise
      (Window_overflow
         (Printf.sprintf
            "buffers need %d words but the scratchpad holds %d" total_words
            (Scratchpad.capacity_words pad)));
  (* Page pinning is the DMA style's analogue of translation; spans
     are measured so the staging/draining segments can report pure copy
     time.  All of this runs in the launching process, serially. *)
  let pin_cycles = ref 0 in
  let timed_pin b =
    let p0 = Engine.now_p () in
    let chunks = pin_and_chunk soc b in
    pin_cycles := !pin_cycles + (Engine.now_p () - p0);
    chunks
  in
  (* Stage: pin pages, program windows, DMA the inputs in. *)
  phase_begin soc "stage";
  List.iter
    (fun b -> Scratchpad.map_window pad ~base:b.base ~words:b.words)
    request.buffers;
  List.iter
    (fun b ->
      let chunks = timed_pin b in
      match b.dir with
      | In | InOut ->
        Engine.with_phase Profile.Memory (fun () ->
            Dma.copy_in_scattered dma pad ~chunks
              ~dst_word:(Scratchpad.local_of_vaddr pad b.base))
      | Out -> ())
    request.buffers;
  phase_end soc "stage";
  let t1 = Engine.now_p () in
  let pin_stage = !pin_cycles in
  (* Compute on the scratchpad. *)
  let port = Soc.scratchpad_port pad in
  let stats = Accel.fresh_stats () in
  phase_begin soc "compute";
  let ret =
    Engine.with_phase Profile.Actor (fun () ->
        exec_thread soc hw ~stats ~port ~args:request.args)
  in
  phase_end soc "compute";
  let t2 = Engine.now_p () in
  (* Drain: DMA the outputs back, then cache maintenance. *)
  phase_begin soc "drain";
  List.iter
    (fun b ->
      match b.dir with
      | Out | InOut ->
        let chunks = timed_pin b in
        Engine.with_phase Profile.Memory (fun () ->
            Dma.copy_out_scattered dma pad
              ~src_word:(Scratchpad.local_of_vaddr pad b.base)
              ~chunks)
      | In -> ())
    request.buffers;
  host_cache_maintenance soc;
  phase_end soc "drain";
  let t3 = Engine.now_p () in
  let pin_drain = !pin_cycles - pin_stage in
  let attribution =
    {
      Vmht_obs.Attribution.zero with
      Vmht_obs.Attribution.translate = !pin_cycles;
      compute = t2 - t1;
      dma_stage = t1 - t0 - pin_stage;
      drain = t3 - t2 - pin_drain;
    }
  in
  {
    ret;
    total_cycles = t3 - t0;
    phases =
      {
        stage_cycles = t1 - t0;
        compute_cycles = t2 - t1;
        drain_cycles = t3 - t2;
      };
    attribution;
    mmu_stats = None;
    tlb_hit_rate = None;
    accel_stats = Some stats;
    page_faults = 0;
  }

let run_hw_once soc hw request =
  match hw.Flow.style with
  | Wrapper.Vm_iface -> run_hw_vm soc hw request
  | Wrapper.Dma_iface -> run_hw_dma soc hw request

(* Thread-level recovery: an [Injector.Abort] escaping a run means the
   thread cannot continue in place (a DMA transfer abort), so the host
   re-runs the whole copy-in/compute/copy-out.  The loop needs no
   attempt cap: injector streams are shared across re-runs (see
   [Soc.make_injector]), so the plan's injection budget bounds how
   often the abort can re-fire.  Cycles lost to discarded attempts are
   charged to the fault attribution bucket, keeping the partition
   invariant (attribution sums to [total_cycles]) intact. *)
(* Surface what the optimizer did to this thread's datapath in the
   trace and metrics: one [Pass_run] event per scheduled pass, and
   cumulative [pass.*] counters over every launch on this SoC. *)
let observe_passes soc (hw : Flow.hw_thread) =
  let report = hw.Flow.fsm.Vmht_hls.Fsm.stats.Vmht_hls.Fsm.opt_report in
  let kernel = hw.Flow.kernel.Vmht_lang.Ast.kname in
  List.iter
    (fun (s : Vmht_ir.Pass_manager.pass_stat) ->
      if Soc.observing soc then
        Soc.emit soc ~component:"hls"
          (Vmht_obs.Event.Pass_run
             {
               pass = s.Vmht_ir.Pass_manager.pass;
               rewrites = s.Vmht_ir.Pass_manager.rewrites;
               kernel;
             });
      Vmht_obs.Metrics.incr
        ~by:s.Vmht_ir.Pass_manager.rewrites
        (Vmht_obs.Metrics.counter (Soc.metrics soc)
           (Printf.sprintf "pass.%s.rewrites" s.Vmht_ir.Pass_manager.pass)))
    report.Vmht_ir.Pass_manager.stats

let run_hw soc hw request =
  observe_passes soc hw;
  let t_start = Engine.now_p () in
  let rec go attempt ~last_abort =
    match run_hw_once soc hw request with
    | result -> (
      match last_abort with
      | None -> result
      | Some (target, fault) ->
        Soc.emit soc ~component:"launch"
          (Vmht_obs.Event.Fault_recover { target; fault; attempt });
        let total = Engine.now_p () - t_start in
        let lost = total - result.total_cycles in
        {
          result with
          total_cycles = total;
          attribution =
            {
              result.attribution with
              Vmht_obs.Attribution.fault =
                result.attribution.Vmht_obs.Attribution.fault + lost;
            };
        })
    | exception Vmht_fault.Injector.Abort { component; fault } ->
      Soc.emit soc ~component:"launch"
        (Vmht_obs.Event.Fault_abort { target = component; fault });
      Vmht_obs.Metrics.incr
        (Vmht_obs.Metrics.counter (Soc.metrics soc) "fault.thread_aborts");
      go (attempt + 1) ~last_abort:(Some (component, fault))
  in
  go 1 ~last_abort:None

let run_to_completion soc main =
  let outcome = ref None in
  Vmht_obs.Span.with_span ~cat:"flow" "simulate" (fun () ->
      Soc.run soc (fun () ->
          outcome :=
            Some (match main () with v -> Ok v | exception e -> Error e)));
  match !outcome with
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None -> failwith "Launch.run_to_completion: main never ran"
