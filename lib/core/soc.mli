(** The composed system-on-chip: CPU + shared bus + DRAM + one process
    address space, onto which hardware threads are instantiated.

    The SoC also owns the observability layer: {!counters} and
    {!gauges} read every component's stats under ["component.metric"]
    names, and (once {!enable_tracing} is called) typed-event observers
    on every component feed the bounded trace ring and the duration
    {!histograms}. *)

type t

type port_meter = {
  mutable translate_cycles : int;
      (** cycles inside [Mmu.translate]: TLB lookups, walks, faults *)
  mutable mem_cycles : int;
      (** cycles in the stream buffer and on the bus behind it *)
}
(** Wall-clock attribution meter of one VM wrapper port.  The launcher
    issues a VM thread's accesses one at a time, as the wrapper's
    single request port takes them, so the spans never overlap and
    [translate_cycles + mem_cycles + compute] partitions the thread's
    execution exactly. *)

val create : Config.t -> t

val id : t -> int
(** Process-wide SoC number (1, 2, ...): the Chrome-trace pid, so
    several SoCs exported into one document keep distinct tracks. *)

val config : t -> Config.t

val engine : t -> Vmht_sim.Engine.t

val aspace : t -> Vmht_vm.Addr_space.t

val bus : t -> Vmht_mem.Bus.t

val cpu : t -> Vmht_cpu.Cpu.t

val now : t -> int

val run : t -> (unit -> unit) -> unit
(** Spawn [main] as the root simulated process and run the engine to
    quiescence.  Exceptions raised inside propagate.  A process still
    parked when the event queue drains (a [main] or a thread that waits
    on something nothing will ever signal) raises
    {!Vmht_sim.Engine.Stuck}, naming how many and the cycle. *)

val make_mmu : ?aspace:Vmht_vm.Addr_space.t * int -> t -> Vmht_vm.Mmu.t
(** A fresh MMU (private TLB) for one VM-enabled hardware thread;
    registered so shootdowns and stats reach it.  By default it serves
    the primary process; pass an [(aspace, asid)] from
    {!create_process} to attach the thread elsewhere. *)

val create_process : t -> Vmht_vm.Addr_space.t * int
(** A further process: a fresh address space (own page table, shared
    physical frame pool) with a fresh ASID. *)

val unmap_page : t -> Vmht_vm.Addr_space.t -> vaddr:int -> unit
(** Unmap a page (returning its frame, see {!Vmht_vm.Page_table.unmap})
    and shoot the translation down from every structure that may hold
    it: each registered MMU's L1 TLB, the shared L2 TLB, and the walk
    caches of the MMUs serving this space — the coherence step a real
    kernel performs with IPIs.  Timed when called in process context is
    the caller's concern (charge cache-maintenance-class costs as
    appropriate); the bookkeeping itself is immediate. *)

val vm_port_metered :
  t ->
  Vmht_vm.Mmu.t ->
  Vmht_hls.Accel.port * (unit -> unit) * port_meter
(** The accelerator-facing memory port of a VM wrapper: translation
    through the given MMU plus a private stream buffer
    ([Config.accel_stream_buffer]) in front of the shared bus.  Like
    the hardware, the port serves one access at a time: each access
    times itself and the port holds nothing.  Every access runs on the
    SoC's engine and
    allocates nothing; it enters the profiler's Translate and Memory
    phases only when that engine is profiled.  The second component is
    the timed flush of the buffer, to be called when the thread
    completes; the third is the port's attribution meter (read it after
    the thread completes). *)

val make_scratchpad :
  t -> words:int -> Vmht_mem.Scratchpad.t * Vmht_mem.Dma.t
(** Scratchpad + DMA engine for one copy-based accelerator.  The
    scratchpad holds [words] words (the launcher passes what the run's
    windows map, after checking it against [Config.scratchpad_words]),
    has the ports the schedule was arbitrated for
    ({!Vmht_hls.Schedule.mem_total_ports} of [Config.resources]) and a
    one-cycle access latency. *)

val scratchpad_port : Vmht_mem.Scratchpad.t -> Vmht_hls.Accel.port
(** The scratchpad as an accelerator port: untimed accesses, priced by
    {!Vmht_mem.Scratchpad.hold}. *)

val mmus : t -> Vmht_vm.Mmu.t list

val tlb2 : t -> Vmht_vm.Tlb2.t option
(** The SoC's shared second-level TLB, when [Config.tlb2.enabled]. *)

val make_injector : t -> component:string -> Vmht_fault.Injector.t
(** The fault-injector stream for one component class, drawn from
    [(Config.seed, component)] and memoized by name — all MMUs share
    "mmu", all DMA engines share "dma", so the per-stream injection
    budget is global across a thread's re-runs (which is what bounds
    abort storms).  When the config's plan is disabled the injector
    never fires.  The SoC wires the shared bus and DRAM at {!create}
    time, and each MMU and DMA engine as they are made. *)

val fault_stats : t -> Vmht_fault.Injector.stats
(** Aggregate injection counters over every injector created so far. *)

val trace : t -> Vmht_sim.Trace.t
(** The system trace.  Disabled (and free) by default; after
    {!enable_tracing} every component reports typed events (bus
    transactions, TLB hits/misses, walks, faults, DRAM row activity,
    cache and DMA traffic, FSM states) with start cycle and duration. *)

val enable_tracing : t -> unit
(** Turn the trace ring on and install typed-event observers on every
    component built so far; components created later join
    automatically. *)

val observing : t -> bool

val counters : t -> (string * int) list
(** Every component's current counters, sorted by name
    (["mmu.tlb_misses"], ["tlb2.hits"], ["walk_cache.misses"],
    ["bus.wait_cycles"], ["dram.row_hits"], ["cache.read_misses"],
    ["dma.words_in"], ...), read from the components' stats on each
    call, whether or not tracing was enabled.  The four [fault.*]
    injector counters are listed when fault injection is on,
    ["pass.<name>.rewrites"] once a hardware launch ran that pass
    ({!add_pass_rewrites}) and ["fault.thread_aborts"] once a thread
    aborted ({!count_thread_abort}).  The bench's run ledger
    ([Vmht_eval.Common.record]) sums them over every run into its
    manifest. *)

val gauges : t -> (string * float) list
(** ["bus.max_queue"] and ["dram.row_hit_rate"], computed when asked. *)

val histograms : t -> (string * Vmht_obs.Histogram.t) list
(** The duration histograms the observers fill ([bus.txn_cycles],
    [mmu.walk_cycles], [dma.burst_words], ...), sorted by name.  Each is
    made at its first sample and listed from then on, so an unobserved
    run has none.  The values are the SoC's own, not copies. *)

val add_pass_rewrites : t -> pass:string -> int -> unit
(** Add one launch's rewrites of optimizer pass [pass] to its
    ["pass.<pass>.rewrites"] counter. *)

val count_thread_abort : t -> unit
(** Count one aborted hardware-thread attempt in
    ["fault.thread_aborts"]. *)

val emit :
  t -> component:string -> ?duration:int -> Vmht_obs.Event.kind -> unit
(** Record one event as [component] would: stamped at
    [now - duration] and routed to the trace ring and histograms.  Used by
    the launcher for phase, pass and fault-recovery markers. *)

val emitter : t -> component:string -> Vmht_obs.Event.emitter
(** The observer hook {!emit} is built from, for handing to components
    that take an [Event.emitter]. *)

val bus_stats : t -> Vmht_mem.Bus.stats

val dram_row_hit_rate : t -> float
