(** Pass scheduling: run an ordered list of registered passes to a
    bounded joint fixpoint, verifying the IR between passes.

    Schedules come from three places: the [-O0]/[-O1]/[-O2] presets
    ({!of_opt_level}), an explicit pass list ({!of_names}, backing the
    CLIs' [--passes a,b,c]), or directly from {!Pass.t} values.  The
    report records per-pass application and rewrite counts so callers
    (HLS statistics, the bench manifest, the opt-level ablation) can
    attribute the work.

    Linking this module registers every builtin pass
    ({!Passes.register_builtins}). *)

type schedule = {
  sname : string;  (** display name: ["O0"], ["O2"], ["custom:..."] *)
  passes : Pass.t list;  (** run in order, repeated to a fixpoint *)
}

val o0 : unit -> schedule
(** No optimization: the IR is synthesized as lowered. *)

val o1 : unit -> schedule
(** Fast cleanup: const_fold, copy_prop, dce, simplify_cfg. *)

val o2 : unit -> schedule
(** Everything, including the memory passes and licm. *)

val of_opt_level : int -> schedule
(** Clamped: [<= 0] is {!o0}, [1] is {!o1}, [>= 2] is {!o2}. *)

val of_names : string list -> (schedule, string) result
(** Resolve an explicit pass list against the registry; [Error msg]
    names the first unknown pass. *)

type pass_stat = {
  pass : string;
  runs : int;
      (** applications: how many times the fixpoint applied this pass
          (the last round may stop before reaching it) *)
  rewrites : int;  (** total rewrites across those applications *)
}

type report = {
  schedule_name : string;
  iterations : int;
  stats : pass_stat list;  (** in schedule order *)
  instrs_before : int;
  instrs_after : int;
  blocks_before : int;
  blocks_after : int;
}

val run : ?verify:bool -> ?max_iterations:int -> schedule -> Ir.func -> report
(** Apply the schedule in rounds, every pass once per round in order,
    until every pass in turn has reported zero rewrites since the last
    rewrite (or [max_iterations], default 20, rounds have run).  A pass
    that reports zero rewrites must leave the IR unchanged, so the rest
    of that round would rewrite nothing either: it is not applied, and
    [iterations] counts it among the rounds started, as if it had run
    to its end.  With [verify] (the default) the {!Verify} checker runs
    after every pass application and failures are re-raised as
    [Failure] naming the offending pass. *)

val optimize : ?schedule:schedule -> Ir.func -> report
(** [run] under the default ({!o2}) schedule. *)

val rewrites : report -> string -> int
(** Total rewrites a named pass performed, 0 if not in the schedule. *)

val add_report : Buffer.t -> report -> unit
(** Write the one-line summary, [opt[O2]: 3 iter(s), const_fold=2 ...,
    instrs 40 -> 31], into a buffer: the Verilog emitter's header. *)

val report_to_string : report -> string
(** {!add_report}'s line as a string. *)

val totals : unit -> (string * int * int) list
(** Process-wide accumulated [(pass, applications, rewrites)] across
    every {!run} since startup (or {!reset_totals}), sorted by pass name.
    Sums are commutative, so the totals are deterministic under any
    parallel evaluation order.  Feeds the bench manifest's per-pass
    statistics. *)

val reset_totals : unit -> unit
