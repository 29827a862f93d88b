(** Clocked evaluator for parsed emitted modules.

    A module is compiled once ({!compile}, or {!load} from its text)
    and then executed edge by edge against the same
    {!Vmht_hls.Accel.port} memory interface the model-level executor
    uses, so translation, banking, and fault draws are shared between
    backends and any divergence is the emitter's.

    Compilation resolves every register, port and [localparam] to an
    integer slot or a folded constant, fixes each expression's
    signedness, turns expressions and statements into closures over a
    per-run state, puts the [case] arms in an array indexed by state
    value, and resolves each channel's [req/ack/we/addr/wdata/rdata]
    signals to slots.  Each arm also records the channels whose [req]
    it assigns, so an edge checks and accepts requests only there, and
    a body in which no statement reads a name an earlier one assigns
    commits in place instead of through the buffer.  Such a body (an
    arm, the reset clause or a nested [if] body) runs its leaf
    assignments — a constant, a register copy, a [+] of two registers
    or of a register and a constant, a [<<] by a constant — as typed
    groups: parallel arrays of slots and constants, one loop per
    shape, ahead of its other statements, which stay closures and run
    in order.  A leaf joins the groups only when no earlier statement
    of its body reads or assigns its target; as the body reads only
    entry values, every slot, X bit and error is the one statement
    order gives.  Unknown
    identifiers, assignments to non-registers, unsupported operators or
    concatenations, case labels that are not [localparam]s, missing
    [S_IDLE]/[S_DONE] and unrecognized channel prefixes are
    {!Rtl_error}s at compile time, even inside an arm that never runs.
    A {!program} is immutable: every register file, commit buffer and
    channel state is allocated by {!run}, so one program runs on any
    number of engines and domains at once.

    Per-channel handshake contract (the adapter side of what the
    emitter writes): a request sampled high on an idle channel is
    accepted, its access is serviced through the port, and [ack] (plus
    [rdata] for loads) is presented and *held* until the FSM is seen
    with the request deasserted.  Same-cycle accesses are serviced one
    after another, in channel order, in the evaluator's own process,
    which then waits the port's [hold] for the group — the order and
    the waits of the model's memory cycle — so cycle counts match, not
    just results.  A state that leaves on the edge that raised its
    request, before the ack, has no model counterpart: it is an
    {!Rtl_error} naming the edge, both states and the channel
    (["edge 7: state 3 advanced to 4 with mem_req outstanding"]).

    Edge accounting: the entry edge of a state costs one cycle (pure
    states advance simulated time by one; memory states advance it by
    the time their accesses take, the port's [hold] included), the edge
    that consumes a held ack is free (it coalesces into the access
    latency), and the S_IDLE/S_DONE handshake edges are free, matching
    the model's zero dispatch cost.  Every pure edge is its own
    [Engine.wait_on engine 1] on the handle {!run} is given: the
    reference never fuses waits.

    X discipline: registers power up X.  X flows silently through
    datapath arithmetic but is a hard {!Rtl_error} when it reaches the
    state register, a branch or ternary condition, [done], a sampled
    request line, or the address/strobe/data of an accepted request —
    which is what makes missing-reset emitter bugs observable. *)

exception Rtl_error of string
(** The module is malformed, or its run broke the protocol or the X
    discipline: an emitter bug. *)

exception Edge_budget of int
(** The run had not reached [done] after this many clock edges (the
    [max_edges] of {!run}): the run is longer than the budget, or the
    FSM never finishes. *)

type outcome = {
  result : int option;  (** [result] output at [done]; [None] when X *)
  requests : int;  (** channel requests the adapter accepted *)
  edges : int;  (** clock edges evaluated *)
}

type program
(** A compiled module: immutable, shareable across domains. *)

val compile : Ast.t -> program
(** Compile a parsed module.  Raises {!Rtl_error} on anything the
    evaluator cannot execute (see above). *)

val load : string -> program
(** {!Parse.parse_module} then {!compile}, behind a process-wide memo
    keyed on the exact text — the synthesis flow memoizes
    [hw_thread]s, so the same emitted string is executed many times.
    Thread-safe; raises {!Parse.Parse_error} or {!Rtl_error}. *)

val reset_memo : unit -> unit
(** Empty {!load}'s memo, so the next load of every text parses and
    compiles again.  [Flow.reset_cache] calls it. *)

val run :
  ?stats:Vmht_hls.Accel.run_stats ->
  ?max_edges:int ->
  engine:Vmht_sim.Engine.t ->
  program ->
  port:Vmht_hls.Accel.port ->
  args:int list ->
  outcome
(** Run a compiled module to [done], from a process of [engine] (the
    launcher passes the SoC's), whose clock its edges advance.  [stats]
    accumulates loads/stores/fsm_cycles with the model's meanings;
    [max_edges] bounds the run (default 50M edges) so an FSM that
    deadlocks or spins fails instead of hanging.  Each edge runs its
    arm's code, applies what it buffered (if anything), then
    classifies itself; only the arm's own channels are checked for
    new requests (every channel on the first edge, where a [req] the
    reset left X must fail), an arm that drives none skips the check,
    and releasing and presenting cost nothing while no ack is held and
    no access is out.  Nothing is allocated per edge.  Raises
    {!Edge_budget} past [max_edges], {!Rtl_error} on protocol or X
    violations, [Invalid_argument] on an argument-count mismatch, and
    lets port-side exceptions (faults, aborts) pass through
    unchanged. *)
