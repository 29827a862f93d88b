(** Discrete-event simulation engine.

    Simulated components are ordinary OCaml functions run as lightweight
    processes on top of OCaml 5 effect handlers.  A process advances
    simulated time with {!wait_on}, blocks on external conditions with
    {!suspend} and starts other processes with {!spawn}.  The engine
    executes events in (time, insertion-order) order, so runs are
    deterministic.

    An engine is reached one way, by its handle: {!wait_on}, {!waits_on},
    {!now} and {!spawn} take it.  The bus, its resource, and through the
    bus every cache, CPU, MMU, walker and DMA engine hold their SoC's
    engine, the launcher hands it to the two accelerator executors and
    the thread runtime takes it at [Hthreads.spawn].  A handle is a
    field read; nothing looks the engine up, and engines share no state,
    so simulations on separate domains share nothing.

    {!suspend} is the one operation without a handle: it performs an
    effect that the running process's own engine handles, so it needs
    none, and outside every process it raises [Not_in_process].  Only a
    {!suspend} or a wait that a queued event must precede performs an
    effect and gives up control; {!now}, {!spawn} and a wait (or run of
    waits) nothing can observe are plain calls. *)

type t

type time = int
(** Simulated time in clock cycles of the (single) fabric clock. *)

exception Not_in_process
(** Raised by {!wait_on} and {!waits_on} while their engine is not
    running, and by {!suspend} outside every process. *)

exception Stuck of string
(** Raised by {!run} when [check_quiescent] is set and processes remain
    suspended after the event queue drains (usually a lost wakeup). *)

val create : ?fastpath:bool -> unit -> t
(** [fastpath] (default [true]) enables the single-runnable wait fast
    path: when the event queue holds no event at or before the target
    time of a {!wait_on} (or the end of a {!waits_on} run), the clock
    is advanced in the caller and the call returns — no effect, no
    heap round-trip, no dispatch.  The schedule produced is
    observationally identical — cycle counts, event order and profile
    attribution do not change — only the heap traffic and dispatch
    count do.  The simulator always
    runs with it on; [~fastpath:false] is the reference the unit tests
    compare it against. *)

val now : t -> time
(** Current simulated time (usable from any context). *)

val wait_on : t -> int -> unit
(** [wait_on t n] advances the calling process, which must be a
    process of [t], by [n >= 0] cycles (raises [Not_in_process] when
    [t] is not running).  [wait_on t 0] returns at once.  With the fast
    path on (see {!create}), when no queued event falls at or before
    the target, the clock is moved in place and the call returns
    without yielding; otherwise the process performs an effect and
    resumes from the event queue. *)

val waits_on : t -> int array -> unit
(** [waits_on t costs] is [Array.iter (wait_on t) costs], cycle for
    cycle and tie for tie: every same-cycle race a queued event runs
    against one of the waits goes the way it would for that wait.  With
    the fast path on, when no queued event falls at or before the end
    of the whole run, the clock moves once (one fast-forward);
    otherwise the next wait is issued on its own and the rest of the
    run is tried again after it.  On [~fastpath:false] the waits are
    always issued one at a time.  The primitive a memory-free stretch
    of accelerator states or CPU instructions advances time with.  Same
    precondition as {!wait_on}. *)

val spawn : t -> (unit -> unit) -> unit
(** Register a new process to start at the current time.  From one of
    the engine's own processes it is a plain call that never yields:
    the caller runs on and the child starts after it gives up control.
    A process has no name: an engine keeps nothing per process but its
    continuation. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] parks the calling process and calls [register
    resume].  Calling [resume] (exactly once, from any context)
    reschedules the process at its engine's current time.  Resuming
    twice raises [Invalid_argument]; calling [suspend] outside a process
    raises [Not_in_process]. *)

val run : ?check_quiescent:bool -> t -> unit
(** Execute events until the queue is empty; the engine's processes
    may wait only during the call.  With [check_quiescent] (default
    false), raise {!Stuck} if suspended processes remain once the
    queue drains. *)

val events_executed : t -> int
(** Total events the engine has dispatched (a work measure). *)

val fast_forwards : t -> int
(** Number of clock moves the fast path made in the caller, without an
    effect or a heap round-trip (0 when the fast path is disabled).  A
    fast-forwarded {!wait_on} replaces exactly one dispatch of the
    reference; a fused {!waits_on} run counts once however many waits
    it covers. *)

(** {2 Profiling} *)

type phase = Vmht_obs.Profile.phase

val profiled : t -> bool
(** Whether the process-wide profile ({!Vmht_obs.Profile.enable}) was
    on when this engine was created.  A caller on a hot path tests it
    once and enters no phase when it is off. *)

val with_phase : t -> phase -> (unit -> 'a) -> 'a
(** Attribute simulated time consumed by [f] (its waits and the waits
    of events it schedules) to the given phase.  Calls [f] directly
    unless the engine is {!profiled}; profiled engines charge every
    timeline advance to the phase of the event that consumed it, so
    the per-phase sums partition the engine's total exactly.  Host
    time is read from the clock wherever the current phase changes (a
    phase entry or exit, a dispatch resuming another phase) and each
    slice goes to the phase current over it; entering the phase that
    is already current reads nothing.  Deltas are flushed to
    {!Vmht_obs.Profile} at the end of every {!run}, together with the
    sizes of the batches of events a profiled engine dispatched at the
    same timestamp (a measure of event-queue contention). *)

val enter_phase : t -> phase -> phase
(** [enter_phase t ph] makes [ph] the current phase of a {!profiled}
    engine and returns the phase it replaces; on any other engine it
    does nothing and returns [ph].  It is {!with_phase} without the
    closure, for a hot path: the caller enters the returned phase
    again when it leaves, by an exception too, and the attribution is
    {!with_phase}'s.  Entering a phase from another entered phase
    hands over with one clock read, so a translation and the access it
    enables, with no simulated time between them, read the clock three
    times in all.  Neither the call nor its clock read allocates. *)
