module Ast = Vmht_lang.Ast
module Fsm = Vmht_hls.Fsm
module Optypes = Vmht_hls.Optypes
module Verilog = Vmht_hls.Verilog

type hw_thread = {
  kernel : Ast.kernel;
  fsm : Fsm.t;
  style : Wrapper.style;
  datapath_area : Optypes.area;
  wrapper_area : Optypes.area;
  total_area : Optypes.area;
  verilog : string;
  synthesis_seconds : float;
}

(* What synthesis reads, and all it reads: the HLS and optimizer fields
   of the config and the chosen wrapper's parameters.  Built in one
   place, so a synthesis that wanted any other config field would have
   to be given it here — and the key below would then cover it. *)
type input = {
  resources : Vmht_hls.Schedule.resources;
  unroll : int;
  pipeline_loops : bool;
  opt_level : int;
  passes : string list option;
  wrapper : Wrapper.params;
}

let input (config : Config.t) style =
  {
    resources = config.Config.resources;
    unroll = config.Config.unroll;
    pipeline_loops = config.Config.pipeline_loops;
    opt_level = config.Config.opt_level;
    passes = config.Config.passes;
    wrapper = Wrapper.params config style;
  }

let synthesize_uncached (i : input) kernel =
  Vmht_obs.Span.with_span ~cat:"flow"
    ("synth:" ^ kernel.Ast.kname)
    (fun () ->
  let started = Sys.time () in
  let fsm =
    (* Pass scheduling and FSM construction; the optimizer opens its
       own nested "passes" span inside. *)
    Vmht_obs.Span.with_span ~cat:"flow" "schedule" (fun () ->
        Fsm.synthesize ~resources:i.resources ~unroll:i.unroll
          ~pipeline:i.pipeline_loops
          ~schedule:
            (Config.schedule_of ~opt_level:i.opt_level ~passes:i.passes)
          kernel)
  in
  let style = Wrapper.params_style i.wrapper in
  let wrapper_area = Wrapper.params_area i.wrapper in
  let verilog =
    Vmht_obs.Span.with_span ~cat:"flow" "emit" (fun () ->
        Verilog.emit_with_wrapper fsm ~wrapper_ports:(Wrapper.ports style))
  in
  let finished = Sys.time () in
  {
    kernel;
    fsm;
    style;
    datapath_area = fsm.Fsm.area;
    wrapper_area;
    total_area = Optypes.add_area fsm.Fsm.area wrapper_area;
    verilog;
    synthesis_seconds = finished -. started;
  })

(* --- typed front-end and store errors ------------------------------ *)

type store_fault =
  | Store_unwritable of string
  | Store_version_mismatch of string
  | Store_corrupt of string

type error =
  | Frontend of { loc : Vmht_lang.Loc.t; msg : string }
  | Store_error of { path : string; fault : store_fault }

let store_fault_to_string = function
  | Store_unwritable msg -> Printf.sprintf "store unwritable: %s" msg
  | Store_version_mismatch found ->
    Printf.sprintf "store version mismatch (found %s)" found
  | Store_corrupt msg -> Printf.sprintf "corrupt store entry: %s" msg

let error_to_string = function
  | Frontend { loc; msg } ->
    Printf.sprintf "line %d, col %d: %s" loc.Vmht_lang.Loc.line
      loc.Vmht_lang.Loc.col msg
  | Store_error { path; fault } ->
    Printf.sprintf "%s: %s" path (store_fault_to_string fault)

(* --- content-addressed synthesis key ------------------------------- *)

(* The memo, the persistent store and the batch server all address
   synthesis results by this digest of the input and the kernel AST.
   Without sharing, [Marshal] renders structurally equal values to
   equal bytes, so requests share a key iff they give synthesis equal
   inputs and kernels, and those give identical hardware. *)
let key (i : input) (kernel : Ast.kernel) =
  Digest.to_hex
    (Digest.string (Marshal.to_string (i, kernel) [ Marshal.No_sharing ]))

let cache_key config style kernel = key (input config style) kernel

(* --- persistent store backend -------------------------------------- *)

(* The on-disk content-addressed store lives above this library (in
   vmht_serve); the flow only knows the shape of a backend so that a
   disk hit can be promoted into the in-memory memo under the same
   single-flight discipline as a fresh synthesis — concurrent requests
   for one key trigger exactly one disk read or one synthesis, never
   both and never several. *)
type store_backend = {
  store_load : key:string -> Ast.kernel -> hw_thread option;
      (** [None] is a miss; backends must swallow corrupt or
          version-mismatched entries and report them as misses *)
  store_save : key:string -> Ast.kernel -> hw_thread -> (unit, error) result;
}

let store_backend : store_backend option ref = ref None

let set_store b = store_backend := b

(* --- synthesis memo cache ----------------------------------------- *)

(* Synthesis is pure (modulo the wall-clock stamp), so results are
   memoized process-wide under {!key}.  Sweeps that vary only what
   synthesis does not read (data size, seed, thread count, page size,
   fault plan, backend) then synthesize each kernel once instead of
   once per sweep point.

   The cache is single-flight: concurrent requests for the same key
   block on the one in-progress synthesis rather than duplicating it,
   so every caller in a process sees the *same* [hw_thread] value —
   which keeps anything derived from it (including the reported
   synthesis time) identical across callers, whatever the parallel
   schedule.  The stored input and kernel AST are compared
   structurally on hit, so a digest collision degrades to a miss
   instead of returning the wrong hardware.

   When a persistent backend is installed ({!set_store}), the miss
   path consults it before synthesizing and writes fresh results back;
   both happen inside the single-flight window, so a disk entry is
   loaded (and promoted into the memo) exactly once per process. *)

type cache_stats = { cache_hits : int; cache_misses : int; cache_entries : int }

type cache_state = In_flight | Ready of input * Ast.kernel * hw_thread

type cache_slot = { mutable state : cache_state }

let cache_mutex = Mutex.create ()

let cache_cond = Condition.create ()

let cache_table : (string, cache_slot) Hashtbl.t = Hashtbl.create 64

let cache_hits = Atomic.make 0

let cache_misses = Atomic.make 0

let cache_stats () =
  Mutex.lock cache_mutex;
  let entries = Hashtbl.length cache_table in
  Mutex.unlock cache_mutex;
  {
    cache_hits = Atomic.get cache_hits;
    cache_misses = Atomic.get cache_misses;
    cache_entries = entries;
  }

(* --- software compile memo ------------------------------------------ *)

(* [compile_sw] reads the two optimizer fields and the kernel, and
   nothing else, so its result is memoized under a digest of exactly
   those, beside the synthesis memo and dropped with it.  As there, the
   stored fields are compared structurally on a hit, so a digest
   collision compiles again instead of returning another kernel's
   code.  Not single-flight: two domains that miss on one key at once
   both compile, and both return the first result stored. *)

type sw_entry = {
  sw_opt_level : int;
  sw_passes : string list option;
  sw_kernel : Ast.kernel;
  sw_func : Vmht_ir.Ir.func;
}

let sw_mutex = Mutex.create ()

let sw_table : (Digest.t, sw_entry) Hashtbl.t = Hashtbl.create 16

let sw_find ~key ~opt_level ~passes kernel =
  match Hashtbl.find_opt sw_table key with
  | Some e
    when e.sw_opt_level = opt_level && e.sw_passes = passes
         && e.sw_kernel = kernel ->
    Some e.sw_func
  | Some _ | None -> None

let compile_sw (config : Config.t) kernel =
  let opt_level = config.Config.opt_level and passes = config.Config.passes in
  let key =
    Digest.string
      (Marshal.to_string (opt_level, passes, kernel) [ Marshal.No_sharing ])
  in
  match
    Mutex.protect sw_mutex (fun () -> sw_find ~key ~opt_level ~passes kernel)
  with
  | Some func -> func
  | None ->
    Vmht_lang.Typecheck.check_kernel kernel;
    (* Software threads get the same pass schedule but no unrolling: the
       scalar CPU gains nothing from wider loop bodies. *)
    let func = Vmht_ir.Lower.lower_kernel kernel in
    ignore
      (Vmht_ir.Pass_manager.optimize
         ~schedule:(Config.schedule_of ~opt_level ~passes)
         func);
    Mutex.protect sw_mutex (fun () ->
        match sw_find ~key ~opt_level ~passes kernel with
        | Some first -> first
        | None ->
          Hashtbl.replace sw_table key
            {
              sw_opt_level = opt_level;
              sw_passes = passes;
              sw_kernel = kernel;
              sw_func = func;
            };
          func)

let reset_cache () =
  Mutex.lock cache_mutex;
  Hashtbl.reset cache_table;
  Atomic.set cache_hits 0;
  Atomic.set cache_misses 0;
  Mutex.unlock cache_mutex;
  Mutex.protect sw_mutex (fun () -> Hashtbl.reset sw_table);
  Vmht_rtl.Eval.reset_memo ()

(* The memo-miss producer: consult the persistent backend (if any),
   fall back to a fresh synthesis, write fresh results through.  A
   failed write-back still returns the synthesized hardware alongside
   the error — the memo keeps the result either way, so one unwritable
   directory costs one error per key, not the synthesis work. *)
let produce ~key i kernel =
  match !store_backend with
  | None -> (synthesize_uncached i kernel, None)
  | Some b -> (
    match b.store_load ~key kernel with
    | Some hw -> (hw, None)
    | None ->
      let hw = synthesize_uncached i kernel in
      (match b.store_save ~key kernel hw with
       | Ok () -> (hw, None)
       | Error e -> (hw, Some e)))

let synthesize_cached i kernel : (hw_thread, error) result =
  let key = key i kernel in
  let rec acquire () =
    (* Called with [cache_mutex] held; returns with it released. *)
    match Hashtbl.find_opt cache_table key with
    | Some { state = Ready (i', k, hw) } when i' = i && k = kernel ->
      Mutex.unlock cache_mutex;
      Atomic.incr cache_hits;
      Ok hw
    | Some ({ state = In_flight } as _slot) ->
      Condition.wait cache_cond cache_mutex;
      acquire ()
    | Some { state = Ready _ } (* digest collision *) | None ->
      let slot = { state = In_flight } in
      Hashtbl.replace cache_table key slot;
      Mutex.unlock cache_mutex;
      Atomic.incr cache_misses;
      let hw, save_err =
        try produce ~key i kernel
        with e ->
          Mutex.lock cache_mutex;
          Hashtbl.remove cache_table key;
          Condition.broadcast cache_cond;
          Mutex.unlock cache_mutex;
          raise e
      in
      Mutex.lock cache_mutex;
      slot.state <- Ready (i, kernel, hw);
      Condition.broadcast cache_cond;
      Mutex.unlock cache_mutex;
      (match save_err with None -> Ok hw | Some e -> Error e)
  in
  Mutex.lock cache_mutex;
  acquire ()

(* --- the consolidated request API ---------------------------------- *)

module Request = struct
  type payload = Kernel of Ast.kernel | Source of string

  type t = {
    payload : payload;
    config : Config.t;
    style : Wrapper.style;
    cache : bool;
  }

  let make ?(config = Config.default) ?(style = Wrapper.Vm_iface)
      ?(cache = true) payload =
    { payload; config; style; cache }

  let of_kernel ?config ?style ?cache kernel =
    make ?config ?style ?cache (Kernel kernel)

  let of_source ?config ?style ?cache source =
    make ?config ?style ?cache (Source source)
end

(* The front end reports lexical/syntactic/type/inlining problems by
   raising [Loc.Error]; this is the one place that boundary is crossed
   into typed results, so callers above (CLI, eval, serve) never have
   to know which exceptions the language layer uses. *)
let capture_frontend f =
  match f () with
  | v -> Ok v
  | exception Vmht_lang.Loc.Error (loc, msg) -> Error (Frontend { loc; msg })

let frontend_program source =
  capture_frontend (fun () ->
      Vmht_obs.Span.with_span ~cat:"flow" "parse" (fun () ->
          let program = Vmht_lang.Parser.parse_program source in
          Vmht_lang.Typecheck.check_program program;
          Vmht_lang.Inline.program program))

let run (r : Request.t) : (hw_thread, error) result =
  (* Typechecking happens inside HLS synthesis for kernels that arrive
     as ASTs, so the capture has to surround synthesis too — [run] is
     total over front-end problems whatever the payload shape. *)
  let i = input r.Request.config r.Request.style in
  let with_kernel kernel =
    if r.Request.cache then
      match synthesize_cached i kernel with
      | result -> result
      | exception Vmht_lang.Loc.Error (loc, msg) ->
        Error (Frontend { loc; msg })
    else capture_frontend (fun () -> synthesize_uncached i kernel)
  in
  match r.Request.payload with
  | Request.Kernel kernel -> with_kernel kernel
  | Request.Source source ->
    Result.bind
      (capture_frontend (fun () ->
           Vmht_obs.Span.with_span ~cat:"flow" "parse" (fun () ->
               Vmht_lang.Parser.parse_kernel source)))
      with_kernel

let raise_error = function
  | Frontend { loc; msg } -> raise (Vmht_lang.Loc.Error (loc, msg))
  | Store_error _ as e -> raise (Sys_error (error_to_string e))

let run_exn r = match run r with Ok hw -> hw | Error e -> raise_error e

let summary t =
  Printf.sprintf
    "hardware thread '%s' [%s interface]\n  datapath: %s\n  wrapper:  %s\n\
    \  total:    %s\n  %s\n  synthesized in %.1f ms"
    t.kernel.Ast.kname
    (Wrapper.style_name t.style)
    (Optypes.area_to_string t.datapath_area)
    (Optypes.area_to_string t.wrapper_area)
    (Optypes.area_to_string t.total_area)
    (Fsm.stats_to_string t.fsm.Fsm.stats)
    (t.synthesis_seconds *. 1000.)
