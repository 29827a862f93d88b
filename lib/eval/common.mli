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
    styles), execute, and verify the outputs.  A [size] below 1 raises
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

(** {2 Per-run performance recording} *)

type run_stats = {
  run_cycles : Vmht_obs.Histogram.t;  (** simulated cycles per run *)
  run_host_ns : Vmht_obs.Histogram.t;  (** host wall time per run, ns *)
}

val record_run : cycles:int -> host_ns:int -> unit
(** Add one run to the per-run histograms (global and any scoped
    recorder).  {!run} does this itself; experiments that drive
    {!Vmht.Launch} directly (multi-thread scaling, for instance) call
    it so the bench manifest still sees their runs. *)

val with_run_stats : (unit -> 'a) -> 'a * run_stats
(** Run the thunk with a scoped recorder installed: every {!run} that
    completes inside it (on any domain — the harness records under one
    mutex) is added to the returned histograms as well as the global
    ones.  The bench harness wraps each experiment in this to get
    per-experiment distributions. *)

val global_run_stats : unit -> run_stats
(** A consistent copy of the process-wide per-run histograms. *)

val reset_run_stats : unit -> unit

val mismatch_log : unit -> string list
(** Workload/mode/size identifiers of every incorrect run since the
    last {!reset_mismatches}, oldest first.  Safe (and deterministic:
    merged in submission order by {!par_map}) under parallel runs. *)

val reset_mismatches : unit -> unit

val par_map : ('a -> 'b) -> 'a list -> 'b list
(** {!Vmht_par.Parmap.map} with mismatch capture: each task records
    into a private sink, and the sinks are merged into the caller's
    log in submission order, so the mismatch log (like the returned
    list) is independent of the parallel schedule.  Experiments use
    this for every sweep; with jobs = 1 it is exactly [List.map]. *)

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
