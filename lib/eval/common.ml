open Vmht
module Workload = Vmht_workloads.Workload
module Addr_space = Vmht_vm.Addr_space

type mode = Sw | Vm | Dma

let mode_name = function Sw -> "sw" | Vm -> "vm" | Dma -> "dma"

type outcome = {
  result : Launch.result;
  correct : bool;
  soc : Soc.t;
  instance : Workload.instance;
  hw : Flow.hw_thread option;
}

(* Result-mismatch log: [run] appends here whenever a workload's output
   disagrees with the reference, so batch drivers (bench) can report
   failure at exit without threading outcomes through every table.

   Under the parallel harness the global list is mutex-guarded, and
   [par_map] gives each task a domain-local sink whose contents are
   merged back in submission order — so the log reads identically
   whatever the parallel schedule (and exactly as the old sequential
   code wrote it when jobs = 1). *)
let mismatch_mutex = Mutex.create ()

let mismatches : string list ref = ref [] (* newest first; guarded *)

(* The active sink of the calling domain: [Some r] inside a [par_map]
   task, [None] (= the shared global) otherwise. *)
let mismatch_sink : string list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let record_mismatch m =
  match Domain.DLS.get mismatch_sink with
  | Some local -> local := m :: !local
  | None ->
    Mutex.lock mismatch_mutex;
    mismatches := m :: !mismatches;
    Mutex.unlock mismatch_mutex

(* Append an oldest-first batch [ms] to the calling context's sink. *)
let merge_mismatches ms =
  if ms <> [] then
    match Domain.DLS.get mismatch_sink with
    | Some local -> local := List.rev_append ms !local
    | None ->
      Mutex.lock mismatch_mutex;
      mismatches := List.rev_append ms !mismatches;
      Mutex.unlock mismatch_mutex

let reset_mismatches () =
  Mutex.lock mismatch_mutex;
  mismatches := [];
  Mutex.unlock mismatch_mutex

let mismatch_log () =
  Mutex.lock mismatch_mutex;
  let l = !mismatches in
  Mutex.unlock mismatch_mutex;
  List.rev l

let par_map f xs =
  Vmht_par.Parmap.map
    (fun x ->
      let local = ref [] in
      let saved = Domain.DLS.get mismatch_sink in
      Domain.DLS.set mismatch_sink (Some local);
      let r =
        Fun.protect
          ~finally:(fun () -> Domain.DLS.set mismatch_sink saved)
          (fun () -> f x)
      in
      (r, List.rev !local))
    xs
  |> List.map (fun (r, ms) ->
         merge_mismatches ms;
         r)

(* --- per-run performance recording --------------------------------- *)

(* Every [run] records its simulated cycle count and host wall time
   into process-wide histograms (and, when a batch driver installed
   one with [with_run_stats], into a scoped recorder too — that is how
   the bench harness gets per-experiment distributions).  Recording is
   two histogram observes under one mutex per run — noise-free for the
   experiments' printed output, which never reads these. *)

module Histogram = Vmht_obs.Histogram

type run_stats = {
  run_cycles : Histogram.t;
  run_host_ns : Histogram.t;
}

let fresh_run_stats () =
  { run_cycles = Histogram.create (); run_host_ns = Histogram.create () }

let perf_mutex = Mutex.create ()

let global_stats = fresh_run_stats () (* guarded by [perf_mutex] *)

let scoped_stats : run_stats option ref = ref None (* guarded *)

let record_run ~cycles ~host_ns =
  Mutex.lock perf_mutex;
  Histogram.observe global_stats.run_cycles cycles;
  Histogram.observe global_stats.run_host_ns host_ns;
  (match !scoped_stats with
  | Some r ->
    Histogram.observe r.run_cycles cycles;
    Histogram.observe r.run_host_ns host_ns
  | None -> ());
  Mutex.unlock perf_mutex

let with_run_stats f =
  let r = fresh_run_stats () in
  Mutex.lock perf_mutex;
  let saved = !scoped_stats in
  scoped_stats := Some r;
  Mutex.unlock perf_mutex;
  let restore () =
    Mutex.lock perf_mutex;
    scoped_stats := saved;
    Mutex.unlock perf_mutex
  in
  let v = Fun.protect ~finally:restore f in
  (v, r)

let global_run_stats () =
  Mutex.lock perf_mutex;
  let r =
    {
      run_cycles = Histogram.copy global_stats.run_cycles;
      run_host_ns = Histogram.copy global_stats.run_host_ns;
    }
  in
  Mutex.unlock perf_mutex;
  r

let reset_run_stats () =
  Mutex.lock perf_mutex;
  Histogram.reset global_stats.run_cycles;
  Histogram.reset global_stats.run_host_ns;
  Mutex.unlock perf_mutex

let rejection = function
  | Invalid_argument msg | Launch.Window_overflow msg -> Some msg
  | Vmht_vm.Frame_alloc.Out_of_frames ->
    Some "out of physical frames: the data does not fit in physical memory"
  | Vmht_rtl.Eval.Edge_budget edges ->
    Some
      (Printf.sprintf
         "edge budget exceeded: the RTL run had not reached done after %d \
          clock edges"
         edges)
  | Vmht_ir.Ir_interp.Runaway steps ->
    Some
      (Printf.sprintf
         "step budget exceeded: the software thread had not returned after \
          %d steps"
         steps)
  | _ -> None

let run ?(config = Config.default) ?(seed = 42) ?trace_events ?(observe = false)
    mode (w : Workload.t) ~size =
  Vmht_obs.Span.with_span ~cat:"eval"
    (Printf.sprintf "run:%s/%s" w.Workload.name (mode_name mode))
    (fun () ->
  (* Refused before set-up, where some workloads would read a size
     below 1 as an empty instance and report a correct run.  The words
     are those of the allocation a zero size reaches. *)
  if size < 1 then invalid_arg "Addr_space.alloc: non-positive size";
  let host_t0 = Unix.gettimeofday () in
  let soc = Soc.create config in
  if observe || Option.is_some trace_events then Soc.enable_tracing soc;
  let instance = w.Workload.setup (Soc.aspace soc) ~size ~seed in
  let request =
    { Launch.args = instance.Workload.args; buffers = instance.Workload.buffers }
  in
  let hw = ref None in
  let result =
    Launch.run_to_completion soc (fun () ->
        match mode with
        | Sw ->
          let func = Flow.compile_sw config (Workload.kernel w) in
          Launch.run_sw soc func request
        | Vm ->
          let t =
            Flow.run_exn
              (Flow.Request.of_kernel ~config ~style:Wrapper.Vm_iface
                 (Workload.kernel w))
          in
          hw := Some t;
          Launch.run_hw soc t request
        | Dma ->
          let t =
            Flow.run_exn
              (Flow.Request.of_kernel ~config ~style:Wrapper.Dma_iface
                 (Workload.kernel w))
          in
          hw := Some t;
          Launch.run_hw soc t request)
  in
  let load = Addr_space.load_word (Soc.aspace soc) in
  let correct =
    result.Launch.ret = instance.Workload.expected_ret
    && instance.Workload.check load
  in
  if not correct then
    record_mismatch
      (Printf.sprintf "%s/%s/size %d" w.Workload.name (mode_name mode) size);
  record_run ~cycles:result.Launch.total_cycles
    ~host_ns:(int_of_float ((Unix.gettimeofday () -. host_t0) *. 1e9));
  { result; correct; soc; instance; hw = !hw })

let host_lines text =
  String.split_on_char '\n' text
  |> List.map (fun line -> if line = "" then line else "host: " ^ line)
  |> String.concat "\n"

let cycles o = o.result.Launch.total_cycles

let speedup ~baseline o = float_of_int (cycles baseline) /. float_of_int (cycles o)

let synthesize ?(config = Config.default) ?cache style (w : Workload.t) =
  Flow.run_exn (Flow.Request.of_kernel ~config ~style ?cache (Workload.kernel w))

let source_lines (w : Workload.t) =
  String.split_on_char '\n' w.Workload.source
  |> List.filter (fun l -> String.trim l <> "")
  |> List.length
