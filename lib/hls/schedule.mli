(** Resource-constrained list scheduling of basic blocks.

    Each block is compiled into a static schedule assigning every
    instruction a start cycle.  Dependence edges carry minimum delays
    that encode the datapath's register semantics (reads at cycle
    start, writes at [start + latency]):

    - RAW: consumer starts no earlier than [def_start + latency];
    - WAR: the overwriting instruction starts no earlier than the
      reader (same cycle is fine — the reader sees the old value);
    - WAW: commits must land in program order;
    - memory: loads commute, everything else stays in program order
      (no alias analysis).

    Memory accesses are additionally arbitrated against an explicit
    {!mem_model}: two accesses may share a cycle only when they fit the
    per-bank port budget, where "same bank" is decided by the
    conservative symbolic analysis of {!Bank} — accesses whose
    addresses cannot be proven to live on distinct banks are
    serialized.

    The block's makespan is [max (start + latency)] over its
    instructions; the terminator fires at the makespan. *)

type mem_model = {
  banks : int;
      (** word-interleaved banks (>= 1): [bank = (addr / 8) mod banks] *)
  ports_per_bank : int;  (** same-cycle accesses one bank can serve *)
}

val flat_mem : int -> mem_model
(** One bank with [ports] ports — the pre-banking model.  A schedule
    under [flat_mem p] is bit-identical to the historical
    [mem_ports = p] scalar. *)

val banked_mem : ?ports_per_bank:int -> int -> mem_model
(** [banked_mem banks] — word-interleaved banking, one port per bank by
    default.  Raises [Invalid_argument] when [banks < 1]. *)

val mem_total_ports : mem_model -> int
(** The model's whole-cycle concurrency cap, [banks * ports_per_bank]:
    what {!resource_limit} answers for [Mem], and the width the
    simulated accelerator issues memory accesses at. *)

type resources = {
  alu : int;
  cmp : int;
  mul : int;
  div : int;
  shift : int;
  mem : mem_model;
}

val default_resources : resources
(** 2 ALUs, 2 comparators, 1 multiplier, 1 divider, 1 shifter, one
    single-ported memory bank. *)

val unlimited_resources : resources

val resource_limit : resources -> Optypes.op_class -> int
(** Per-cycle limit for a class — total over every class: [Mem] is the
    model's {!mem_total_ports} (refined per cycle by bank arbitration),
    [Move] a large max_int-safe bound (moves are wires). *)

type regs
(** Per-register tables for the blocks of one function (see {!regs}):
    what the address analysis and the dependence builder track per
    register, indexed by register number.  A pass over a block sets
    only the entries of the registers it mentions and resets them
    before it returns, so the tables serve block after block and a
    block costs its own length, not the function's register count. *)

(** Conservative static bank analysis: symbolic affine address forms
    over one straight-line block, and the per-cycle admissibility check
    the scheduler, the pipeliner and [validate] all share. *)
module Bank : sig
  type addr
  (** [sum (coeff * opaque symbol) + constant]; live-in registers, load
      results and unanalyzable arithmetic mint fresh symbols *)

  val addr_forms : regs -> Vmht_ir.Ir.instr array -> addr option array
  (** The address form of each instruction ([Some] exactly for
      [Load]/[Store]), read in program order in one pass.  The
      function's stable arguments, as {!regs} records them, are the
      argument-buffer roots for {!provably_disjoint}. *)

  val provably_disjoint : addr option -> addr option -> bool
  (** True only when the two accesses provably touch different
      addresses — same symbolic part at different constant offsets, or
      rooted in two different argument buffers — whatever the memory
      model.  The alias refinement behind reordering access pairs. *)

  val provably_distinct : mem_model -> addr option -> addr option -> bool
  (** True only when the two accesses provably hit different banks:
      same symbolic part, word-aligned constant delta, delta in words
      not divisible by [banks].  Never true with one bank, and never
      true for statically-unknown addresses. *)

  val cycle_ok : mem_model -> addr option list -> bool
  (** May this access set issue in one cycle?  Each access's conflict
      set (itself plus everything not provably on another bank) must
      fit [ports_per_bank], and the set must fit {!mem_total_ports}. *)
end

type block_schedule = {
  label : Vmht_ir.Ir.label;
  instrs : Vmht_ir.Ir.instr array;
  starts : int array; (** start cycle of [instrs.(i)] *)
  makespan : int; (** cycles the block occupies (>= 1) *)
}

type t = {
  func : Vmht_ir.Ir.func;
  blocks : block_schedule list; (** one per CFG block, in CFG order *)
  resources : resources;
}

val regs : Vmht_ir.Ir.func -> regs
(** Fresh tables for the blocks of [f], sized by its [next_reg] (the
    verifier keeps every register below it).  They record the
    function's stable arguments — argument registers no instruction
    redefines, found in one pass — as roots: kernel arguments are
    independent buffers (the restrict-style contract every HLS flow
    imposes on top-level pointers), so accesses rooted at two different
    stable arguments never alias. *)

val schedule_func : ?resources:resources -> Vmht_ir.Ir.func -> t
(** Schedule every block of the function, highest priority first: an
    instruction's priority is its longest dependence path to the end of
    the block (the delays plus the latencies along it), ties going to
    program order.  A cycle admits ready instructions in that order
    while their class has units. *)

val total_states : t -> int
(** Sum of block makespans — the number of FSM states. *)

val max_concurrency : t -> Optypes.op_class -> int
(** Peak number of same-class operations in any single cycle — the
    number of functional units binding must provide. *)

val instrs_by_cycle : block_schedule -> int list array
(** [(instrs_by_cycle b).(c)]: the indices of the instructions of [b]
    that start in cycle [c], in program order. *)

val dependence_edges :
  ?addrs:Bank.addr option array ->
  regs ->
  Vmht_ir.Ir.instr array ->
  (int * int) list array
(** [edges.(j)] lists [(i, delay)] constraints [start_j >= start_i +
    delay] between instructions of one straight-line sequence (the
    scheduler's own dependence model, exposed for the loop pipeliner),
    built in one pass that keeps the nearest edges only:

    - RAW: from the last writer of each register [j] reads, delay
      [lat_i];
    - WAR: from each reader of the register [j] writes since that
      register's last writer, delay 0;
    - WAW: from that last writer, delay [max 1 (lat_i - lat_j + 1)];
    - memory: a load from the last store, a store from the last store
      and every load since it, delay 1.

    A pair that two rules join appears once, with the larger delay.
    Every constraint of the all-pairs model (each earlier instruction
    against each later one) is implied by a path of these edges lying
    between its two ends, because every latency is at least 1: a read
    [j] of a register [i] wrote and [k] overwrote follows the path
    [i -> k] (WAW) [-> j] (RAW), at least [lat_i + 1]; a reader [i]
    before a later writer [k] of the register [j] writes follows [i ->
    k] (WAR, 0) [-> j] (WAW, at least 1); two writes with [k] between
    follow [i -> k -> j], at least [lat_i - lat_j + 2]; two accesses
    with a store [k] between follow the path through [k], at least 2.
    Longest paths, the list scheduler's priorities and release times,
    and the pipeliner's index-range filtered paths are therefore those
    of the all-pairs model.

    With [addrs] (the sequence's {!Bank.addr_forms}), every pair of
    memory accesses with a store among them is checked instead, and
    the pairs at provably disjoint addresses get no edge (the check
    does not compose along a path); callers enable this only under a
    multi-bank model so flat-memory schedules stay bit-identical to the
    pre-banking scheduler. *)

val validate : t -> unit
(** Check every dependence, resource and bank-arbitration constraint of
    the schedule; raises [Failure] on violation.  Used by the property
    tests. *)

val to_string : t -> string
