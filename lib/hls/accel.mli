(** Cycle-level execution of a synthesized hardware thread.

    The accelerator runs as a simulation process: each FSM state costs
    one fabric cycle, and memory operations additionally stall the
    state until the memory interface answers.  Register semantics match
    the scheduler's model — operations read register values latched at
    their start cycle, writes commit afterwards — so the result always
    equals the IR interpreter's (a property the test suite checks).

    Memory operations scheduled in the same cycle issue one after
    another in instruction order, then the state waits the port's
    [hold] for all of them, once.  A VM wrapper times each access
    itself (it takes one request at a time) and holds nothing; a
    copy-based wrapper's multi-ported scratchpad answers untimed and
    prices the group. *)

type port = {
  load : int -> int;  (** word load; called in process context *)
  store : int -> int -> unit;  (** word store *)
  hold : int -> int;
      (** [hold n]: the cycles [n] accesses issued together take beyond
          the time their own calls spend, waited once after the last of
          them; [0] for a port whose accesses time themselves *)
}

type run_stats = {
  mutable fsm_cycles : int; (** cycles spent stepping states *)
  mutable loads : int;
  mutable stores : int;
  mutable block_visits : int;
}

val fresh_stats : unit -> run_stats

val run :
  ?observer:Vmht_obs.Event.emitter ->
  ?stats:run_stats ->
  engine:Vmht_sim.Engine.t ->
  Fsm.t ->
  port:port ->
  args:int list ->
  int option
(** Execute the hardware thread to completion.  Must be called from a
    process of [engine] (the launcher passes the SoC's); simulated time
    advances on it as the thread runs.

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
      another and waits [port.hold n] for its [n] accesses; at exit it
      commits the datapath results in instruction order, then the
      loaded values;
    - a software-pipelined loop issues each access alone and waits
      [port.hold 1] after it.

    The RTL evaluator ([Vmht_rtl.Eval]) runs the emitted FSM edge by
    edge and is the per-state reference this path is checked against,
    alone and with several threads on one SoC. *)

val untimed_port : Vmht_lang.Ast_interp.memory -> port
(** Wrap an untimed memory as a port that holds nothing (for functional
    tests: the accesses cost the thread no time). *)
