(** The end-to-end synthesis flow for one hardware thread:
    parse -> typecheck -> unroll -> lower -> optimize -> schedule ->
    bind -> wrapper synthesis -> RTL emission -> area roll-up.

    The front door is {!Request.t} + {!run}: one record naming what to
    synthesize (an AST or a single-kernel source), under which
    {!Config.t} and wrapper style, and whether the process-wide memo may
    answer.  A kernel of a multi-kernel program is requested by its
    AST: {!frontend_program}, {!Vmht_lang.Ast.find_kernel}, then
    {!Request.of_kernel}. *)

type hw_thread = {
  kernel : Vmht_lang.Ast.kernel;
  fsm : Vmht_hls.Fsm.t;
  style : Wrapper.style;
  datapath_area : Vmht_hls.Optypes.area;
  wrapper_area : Vmht_hls.Optypes.area;
  total_area : Vmht_hls.Optypes.area;
  verilog : string;
  synthesis_seconds : float; (** wall-clock time this flow took *)
}

(** {2 Typed errors}

    Everything the flow can reject — bad user input or a persistent
    store that cannot hold up its end — is one of these; the language
    layer's exceptions stop at this boundary, so callers (the CLIs,
    the eval harness, the batch server) can map errors to messages and
    exit codes without knowing which exceptions the layers below use
    internally. *)

type store_fault =
  | Store_unwritable of string  (** store dir cannot be created/written *)
  | Store_version_mismatch of string
      (** entry written by an incompatible format version (carried) *)
  | Store_corrupt of string  (** truncated / checksum-failed entry *)

type error =
  | Frontend of { loc : Vmht_lang.Loc.t; msg : string }
      (** lexical / syntactic / type / inlining problem at [loc] *)
  | Store_error of { path : string; fault : store_fault }
      (** the persistent synthesis store failed; only [Store_unwritable]
          ever surfaces from {!run} — mismatched or corrupt entries are
          re-synthesized silently *)

val error_to_string : error -> string

val store_fault_to_string : store_fault -> string

(** {2 Requests} *)

module Request : sig
  type payload =
    | Kernel of Vmht_lang.Ast.kernel  (** already parsed and checked *)
    | Source of string  (** single-kernel source text *)

  type t = {
    payload : payload;
    config : Config.t;
    style : Wrapper.style;
    cache : bool;
        (** consult/fill the memo (and any installed persistent
            store); [false] forces a fresh synthesis — benchmarks that
            *measure* synthesis must, or they time a table lookup *)
  }

  val of_kernel :
    ?config:Config.t ->
    ?style:Wrapper.style ->
    ?cache:bool ->
    Vmht_lang.Ast.kernel ->
    t
  (** Defaults: {!Config.default}, [Vm_iface], [cache = true]. *)

  val of_source :
    ?config:Config.t -> ?style:Wrapper.style -> ?cache:bool -> string -> t
  (** As {!of_kernel}, for source the flow parses. *)
end

val run : Request.t -> (hw_thread, error) result
(** Execute a synthesis request.  Results are memoized process-wide
    under {!cache_key} (see {!cache_stats}): a later request with the
    same key returns the cached [hw_thread] (the very same value, so
    its [synthesis_seconds] is the original measurement), whatever
    config fields outside the key it differs in.  The memo is
    single-flight and safe under concurrent callers on multiple
    domains; a persistent backend installed with {!set_store} is
    consulted and written through inside the same single-flight
    window. *)

val run_exn : Request.t -> hw_thread
(** {!run}, raising: {!Vmht_lang.Loc.Error} on front-end errors,
    [Sys_error] on store faults. *)

val cache_key : Config.t -> Wrapper.style -> Vmht_lang.Ast.kernel -> string
(** The content-addressed synthesis key: a hex digest of the kernel AST
    and of what synthesis reads from the config — resources, unroll,
    pipelining, opt level, pass list, and the chosen style's
    {!Wrapper.params} (the MMU config for [Vm_iface], the scratchpad
    size for [Dma_iface]).  Requests that share a key get identical
    hardware.  Platform fields (page size, L2 TLB, stream buffer,
    physical memory, fault plan, seed, backend) never split a key, nor
    do the other style's wrapper parameters.  The memo, the persistent
    store and the batch server all address results by it. *)

val frontend_program : string -> (Vmht_lang.Ast.program, error) result
(** Parse, typecheck and inline a multi-kernel source: the front end
    of [vmht compile], [vmht synth], [vmht system] and a [vmht serve]
    source line, which then request a kernel of the program with
    {!Request.of_kernel}. *)

(** {2 Persistent store backend}

    The on-disk content-addressed store lives in [vmht_serve]; the
    flow sees it only through this record so a disk hit is promoted
    into the in-memory memo under the same single-flight discipline as
    a fresh synthesis. *)

type store_backend = {
  store_load : key:string -> Vmht_lang.Ast.kernel -> hw_thread option;
      (** [None] is a miss; backends must swallow corrupt or
          version-mismatched entries and report them as misses *)
  store_save :
    key:string -> Vmht_lang.Ast.kernel -> hw_thread -> (unit, error) result;
}

val set_store : store_backend option -> unit
(** Install (or clear) the process-wide persistent backend.  On a memo
    miss the flow first tries [store_load]; on a fresh synthesis it
    calls [store_save] and surfaces a save failure as
    [Error (Store_error _)] from {!run} — the memo keeps the result
    either way. *)

val compile_sw : Config.t -> Vmht_lang.Ast.kernel -> Vmht_ir.Ir.func
(** The software path: the same front end and optimizer, no HLS.  Used
    for software-thread execution and as the Table 5 baseline.

    Memoized process-wide beside the synthesis memo, under a digest of
    exactly what it reads: the config's [opt_level] and [passes] and
    the kernel (compared structurally on a hit, so a digest collision
    compiles again).  Configs that differ elsewhere share one result.
    The returned function is that shared value: callers must not
    mutate it ({!Vmht_cpu.Cpu.run_func} only reads it).  Safe under
    concurrent callers on several domains; {!reset_cache} drops it,
    and {!cache_stats} does not count it. *)

val summary : hw_thread -> string

(** {2 Synthesis cache} *)

type cache_stats = {
  cache_hits : int;  (** calls answered from the memo table *)
  cache_misses : int;  (** calls that ran the full flow *)
  cache_entries : int;  (** distinct {!cache_key}s held *)
}

val cache_stats : unit -> cache_stats

val reset_cache : unit -> unit
(** Drop every entry and zero the counters (tests, micro-benchmarks).
    Also empties the {!compile_sw} memo and the RTL evaluator's
    compiled-program memo ({!Vmht_rtl.Eval.reset_memo}), so nothing
    derived from a dropped [hw_thread] outlives it. *)
