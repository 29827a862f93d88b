(** Cycle-level execution of a synthesized hardware thread.

    The accelerator runs as a simulation process: each FSM state costs
    one fabric cycle, and memory operations additionally stall the
    state until the memory interface answers.  Register semantics match
    the scheduler's model — operations read register values latched at
    their start cycle, writes commit afterwards — so the result always
    equals the IR interpreter's (a property the test suite checks).

    Memory operations scheduled in the same cycle issue [ports] at a
    time: each group goes out concurrently (fork/join), later groups
    queue behind it, and at width 1 they run one after another with no
    fork.  A VM thread runs at width 1 (its wrapper takes one request
    at a time), a copy-based one at its scratchpad's scheduled width. *)

type port = {
  load : int -> int; (** timed word load; called in process context *)
  store : int -> int -> unit; (** timed word store *)
}

type run_stats = {
  mutable fsm_cycles : int; (** cycles spent stepping states *)
  mutable loads : int;
  mutable stores : int;
  mutable block_visits : int;
}

val fresh_stats : unit -> run_stats

val chunks : int -> 'a list -> 'a list list
(** Split a list into consecutive chunks of at most [n] elements — the
    issue-width discipline for same-cycle memory accesses ([ports]-wide
    issue groups, later groups queueing behind earlier ones).  Exposed
    so the RTL evaluator drives its channel lanes through the very same
    grouping and the two backends stay cycle-identical. *)

val run :
  ?observer:Vmht_obs.Event.emitter ->
  ?stats:run_stats ->
  ?ports:int ->
  engine:Vmht_sim.Engine.t ->
  Fsm.t ->
  port:port ->
  args:int list ->
  int option
(** Execute the hardware thread to completion.  Must be called from a
    process of [engine] (the launcher passes the SoC's); simulated time
    advances on it as the thread runs.  [ports] (default 1) is the
    issue width of a memory state (see above).

    [observer] receives one {!Vmht_obs.Event.kind.Fsm_state} event per
    basic-block entry, spanning the block's execution; a
    software-pipelined loop region emits a single event covering all
    its iterations.

    When the run starts, every scheduled block is compiled from its
    trace ({!Fsm.Trace}) into closures over the run's register file,
    one per step, so executing a state allocates nothing:
    - a run of memory-free states evaluates each state's ops (a lone op
      writes its register, several evaluate into a scratch array and
      commit in instruction order) and advances the clock through
      {!Vmht_sim.Engine.waits_on}, one clock move when nothing else is
      queued before the run ends, otherwise every same-cycle tie broken
      as the per-state waits would;
    - a memory state executes alone, so faults and contention land
      exactly where a per-state interpreter would put them.  At entry
      it walks its instructions in order, evaluating datapath ops and
      snapshotting each access's operands (so a division by zero
      raises {!Vmht_lang.Ast_interp.Eval_error} at the same point as
      before any access issues); then it issues the accesses one after
      another, or, when [ports > 1] and it holds several, through
      {!Vmht_sim.Engine.join_all} lanes built once, [ports] per group
      in instruction order ({!chunks}); at exit it commits the datapath
      results in instruction order, then the loaded values in
      completion order.

    The RTL evaluator ([Vmht_rtl.Eval]) runs the emitted FSM edge by
    edge and is the per-state reference this path is checked against,
    alone and with several threads on one SoC. *)

val untimed_port : Vmht_lang.Ast_interp.memory -> port
(** Wrap an untimed memory as a port (for functional tests outside the
    simulator the accesses still cost the caller nothing). *)
