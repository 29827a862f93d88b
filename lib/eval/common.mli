(** Shared machinery for the experiment runners: execute a workload on
    a fresh SoC in a given style and collect everything the tables and
    figures report. *)

type mode = Sw | Vm | Dma

val mode_name : mode -> string

type outcome = {
  result : Vmht.Launch.result;
  correct : bool; (** outputs checked against the reference *)
  soc : Vmht.Soc.t;
  instance : Vmht_workloads.Workload.instance;
  hw : Vmht.Flow.hw_thread option; (** absent for software runs *)
}

val run :
  ?config:Vmht.Config.t ->
  ?seed:int ->
  ?trace_events:int ->
  ?observe:bool ->
  mode ->
  Vmht_workloads.Workload.t ->
  size:int ->
  outcome
(** Build a fresh SoC, set the workload up, synthesize (hardware
    styles), execute, verify the outputs, and {!record} the run in the
    open ledger, if any.  A [size] below 1 raises
    [Invalid_argument] before anything is built.  [trace_events] enables
    the SoC trace before running (the value is advisory — the trace's
    own capacity bounds retention); [observe] (default false) does the
    same without implying the CLI's textual dump — both turn typed
    event observation on via {!Vmht.Soc.enable_tracing}. *)

val rejection : exn -> string option
(** The message for an input {!run} cannot build or finish: a flag
    value a setter or constructor rejects ([Invalid_argument]), DMA
    buffers beyond the scratchpad, data beyond physical memory, or a run
    longer than the RTL evaluator's edge budget
    ({!Vmht_rtl.Eval.Edge_budget}) or the software thread's step budget
    ({!Vmht_ir.Ir_interp.Runaway}).  [None] for any other exception.
    Every command line and the server word these alike. *)

(** {2 The run ledger} *)

type ledger = {
  runs : int;  (** runs recorded while the ledger was open *)
  counts : (string * int) list;
      (** integer sums over those runs, sorted by name: ["cycles"], one
          ["attr.<segment>"] per {!Vmht_obs.Attribution} segment (runs
          that pass one), and every counter of the SoC's metrics
          registry after {!Vmht.Soc.sync_metrics} *)
  mismatches : string list;  (** labels of the wrong runs, sorted *)
}

val record :
  label:string ->
  correct:bool ->
  cycles:int ->
  ?attribution:Vmht_obs.Attribution.t ->
  Vmht.Soc.t ->
  unit
(** Add one finished run on [soc] to the open ledger: its [cycles], its
    [attribution] segments and its SoC's counters, and [label] to the
    mismatches unless [correct].  {!run} does this itself; an experiment
    that drives {!Vmht.Launch} directly calls it once per measured point.
    With no ledger open it returns at once: no sync, no lock. *)

val with_ledger : (unit -> 'a) -> 'a * ledger
(** Run the thunk with a fresh ledger open and return its value with
    the closed ledger.  Every {!record} made before the thunk returns,
    on any domain, lands in it; sums and sorted lists do not depend on
    the order runs finished in, so the ledger is the same at any pool
    width.  A nested ledger hides the enclosing one until it closes. *)

val host_lines : string -> string
(** Prefix every line with ["host: "], the mark of experiment output
    that carries host wall time.  Everything else an experiment prints
    is deterministic, and the [vmht bench all] golden keeps only that. *)

val cycles : outcome -> int

val speedup : baseline:outcome -> outcome -> float
(** [baseline.cycles / outcome.cycles]. *)

val synthesize :
  ?config:Vmht.Config.t ->
  ?cache:bool ->
  Vmht.Wrapper.style ->
  Vmht_workloads.Workload.t ->
  Vmht.Flow.hw_thread
(** Synthesis only (no execution) — for the area and synthesis-time
    experiments.  [cache] becomes the request's cache flag for
    {!Vmht.Flow.run} (default: cached); pass [~cache:false] when
    *timing* synthesis. *)

val source_lines : Vmht_workloads.Workload.t -> int
(** Non-empty source lines of the workload's kernel. *)
