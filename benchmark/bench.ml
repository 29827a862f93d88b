(* The whole-flow benchmark: kernel source -> HLS -> VM-wrapped hardware
   thread -> simulated SoC, plus the RTL cross-check and the synthesis
   service, driven through the public APIs of lib/ from outside.

   One process runs one workload on one domain (Parmap jobs = 1): a
   closed loop with a single client.  A workload is a fixed list of ops,
   a "round", run in a fresh order drawn from the seed each time.  A
   set-up empties the flow memo, builds the inputs from the seed and runs
   untimed warm-up rounds; set-ups alternate with timed rounds, and the
   median set-up time is reported.  Every time is scaled to a reference
   host speed measured beside it (see "host speed" below).  Every op's
   output is checked outside the timed region and compared with the
   first round's; an op that raises counts as failed instead of
   aborting the run.

     bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
               [--trace-file FILE]
     bench.exe --smoke BENCHMARK.json

   The last line of stdout is one JSON object with the keys correct,
   attempted, failed and metrics: the end-to-end metrics with --trace 0,
   the per-layer metrics with --trace 1.  The exit code is 1 when any op
   failed.  README.md describes the workloads and metrics. *)

module Json = Vmht_obs.Json
module Span = Vmht_obs.Span
module Profile = Vmht_obs.Profile
module Config = Vmht.Config
module Flow = Vmht.Flow
module Launch = Vmht.Launch
module Soc = Vmht.Soc
module Wrapper = Vmht.Wrapper
module Fsm = Vmht_hls.Fsm
module Accel = Vmht_hls.Accel
module Engine = Vmht_sim.Engine
module Workload = Vmht_workloads.Workload
module Registry = Vmht_workloads.Registry
module Proto = Vmht_serve.Proto
module Server = Vmht_serve.Server
module Store = Vmht_serve.Store

(* Seconds on the monotonic clock, to the nanosecond: a memo hit takes
   tens of microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let ( let* ) xs f = List.concat_map f xs

(* --- counters and spans --------------------------------------------- *)

(* Work counters by name.  Each measurement phase installs a fresh
   table, so counts and rates come from the untraced rounds and the
   traced rounds only contribute their micro-measurements. *)
type counters = (string, float) Hashtbl.t

let counters : counters ref = ref (Hashtbl.create 64)

let get (c : counters) name = Option.value (Hashtbl.find_opt c name) ~default:0.

let count name v = Hashtbl.replace !counters name (get !counters name +. v)

let counti name n = count name (float_of_int n)

(* Set during the traced rounds, where ops also take their per-layer
   micro-measurements, all outside the timed region. *)
let tracing = ref false

let span name f = Span.with_span ~cat:"bench" name f

(* A span whose wall time also goes into counter [name ^ ".s"]. *)
let timed name f =
  let t0 = now () in
  let v = span name f in
  count (name ^ ".s") (now () -. t0);
  v

(* --- ops, instances, workloads ---------------------------------------- *)

(* [run ()] is the timed part of an op.  The closure it returns is the
   untimed check: given the op's duration it yields a digest of the
   output or the reason the op failed.  [items] is what the op counts
   for in [ops_per_s]: 1, or the requests of a serve batch. *)
type op = {
  label : string;
  items : int;
  run : unit -> float -> (string, string) result;
}

type instance = {
  ops : op list;
  op_span : string;  (** span around each timed op *)
  warmup : int;  (** untimed rounds run by set-up *)
  before_round : unit -> unit;  (** untimed *)
  after_round : unit -> unit;  (** untimed *)
  cleanup : unit -> unit;
}

let instance ?(warmup = 1) ?(before_round = ignore) ?(after_round = ignore)
    ?(cleanup = ignore) op_span ops =
  { ops; op_span; warmup; before_round; after_round; cleanup }

let hex s = Digest.to_hex (Digest.string s)

let hw_config ?(pipeline = false) ~unroll ~banks ~opt () =
  Config.with_pipelining
    (Config.with_opt_level
       (Config.with_banks (Config.with_unroll Config.default unroll) banks)
       opt)
    pipeline

(* --- synth: Flow.run from source text --------------------------------- *)

(* The stages of [Flow.run], called one by one in [Fsm.synthesize]'s
   order, each in its own span: the per-layer split of synthesis time.
   True when the FSM they rebuild has the state count [Flow.run]'s has
   and emits the same Verilog. *)
let decompose config source (hw : Flow.hw_thread) =
  let resources = config.Config.resources in
  let kernel =
    span "lang.parse" (fun () -> Vmht_lang.Parser.parse_kernel source)
  in
  span "lang.typecheck" (fun () -> Vmht_lang.Typecheck.check_kernel kernel);
  let unrolled, _ =
    span "ir.unroll" (fun () ->
        Vmht_ir.Ast_unroll.unroll_kernel ~factor:config.Config.unroll kernel)
  in
  let func = span "ir.lower" (fun () -> Vmht_ir.Lower.lower_kernel unrolled) in
  let schedule = Config.schedule config in
  ignore
    (span "ir.passes" (fun () -> Vmht_ir.Pass_manager.optimize ~schedule func));
  let schedule =
    span "hls.schedule" (fun () ->
        Vmht_hls.Schedule.schedule_func ~resources func)
  in
  let states = Vmht_hls.Schedule.total_states schedule in
  let binding =
    span "hls.bind" (fun () ->
        let binding = Vmht_hls.Bind.bind schedule in
        ignore (Fsm.datapath_area binding ~states);
        ignore (Wrapper.area config Wrapper.Vm_iface);
        binding)
  in
  let plans =
    span "hls.pipeline" (fun () ->
        if config.Config.pipeline_loops then
          Vmht_hls.Pipeliner.plan_loops func ~resources
        else [])
  in
  let fsm = { hw.Flow.fsm with Fsm.func; schedule; binding; plans } in
  let verilog =
    span "hls.emit" (fun () ->
        Vmht_hls.Verilog.emit_with_wrapper fsm
          ~wrapper_ports:(Wrapper.ports Wrapper.Vm_iface))
  in
  states = hw.Flow.fsm.Fsm.stats.Fsm.states && verilog = hw.Flow.verilog

let synth_stages =
  [
    "lang.parse";
    "lang.typecheck";
    "ir.unroll";
    "ir.lower";
    "ir.passes";
    "hls.schedule";
    "hls.bind";
    "hls.pipeline";
    "hls.emit";
  ]

let synth_op (name, config) =
  let source = (Registry.find name).Workload.source in
  let label =
    Printf.sprintf "%s u%d b%d O%d%s" name config.Config.unroll
      config.Config.resources.Vmht_hls.Schedule.mem.Vmht_hls.Schedule.banks
      config.Config.opt_level
      (if config.Config.pipeline_loops then " pipelined" else "")
  in
  let run () =
    let hw = Flow.run (Flow.Request.of_source ~config ~cache:false source) in
    fun _ ->
      match hw with
      | Error e -> Error (Flow.error_to_string e)
      | Ok hw -> (
        match Vmht_rtl.Parse.parse_module hw.Flow.verilog with
        | exception Vmht_rtl.Parse.Parse_error msg ->
          Error ("emitted Verilog rejected: " ^ msg)
        | _ ->
          let s = hw.Flow.fsm.Fsm.stats in
          counti "ir.pass_rewrites"
            (List.fold_left
               (fun acc p -> acc + p.Vmht_ir.Pass_manager.rewrites)
               0 s.Fsm.opt_report.Vmht_ir.Pass_manager.stats);
          counti "ir.instrs_out" s.Fsm.ir_instrs;
          counti "hls.states" s.Fsm.states;
          counti "hls.verilog_bytes" (String.length hw.Flow.verilog);
          if !tracing && not (decompose config source hw) then
            Error "stage-by-stage synthesis disagrees with Flow.run"
          else Ok (hex hw.Flow.verilog))
  in
  { label; items = 1; run }

let synth ~seed:_ ~smoke =
  let pick full small = if smoke then small else full in
  let points =
    let* name = pick Registry.names [ "vecadd"; "dotprod" ] in
    let* unroll = pick [ 1; 2; 4; 8 ] [ 1; 2 ] in
    let* banks = pick [ 1; 4 ] [ 4 ] in
    let* opt = pick [ 0; 2 ] [ 2 ] in
    let* pipeline = pick [ false; true ] [ true ] in
    [ (name, hw_config ~pipeline ~unroll ~banks ~opt ()) ]
  in
  instance "core.flow" (List.map synth_op points)

(* --- sim and rtl: one kernel on a fresh SoC ---------------------------- *)

module Common = Vmht_eval.Common

type soc_run = { soc : Soc.t; data : Workload.instance; result : Launch.result }

(* [Common.run]'s sequence, one layer per span: a fresh SoC, the
   workload's data, synthesis (memoized) or the software compile, and the
   launch.  The output check is left to the caller, outside the timed
   region.  [tag] prefixes the span names. *)
let soc_run ?(tag = "") config mode (w : Workload.t) ~size ~seed =
  let span name f = span (tag ^ name) f in
  let soc = span "core.soc_create" (fun () -> Soc.create config) in
  let data =
    span "workload.setup" (fun () ->
        w.Workload.setup (Soc.aspace soc) ~size ~seed)
  in
  let request =
    { Launch.args = data.Workload.args; buffers = data.Workload.buffers }
  in
  let kernel = Workload.kernel w in
  let synth style =
    `Hw (Flow.run_exn (Flow.Request.of_kernel ~config ~style kernel))
  in
  let thread =
    span "core.compile" (fun () ->
        match mode with
        | Common.Sw -> `Sw (Flow.compile_sw config kernel)
        | Common.Vm -> synth Wrapper.Vm_iface
        | Common.Dma -> synth Wrapper.Dma_iface)
  in
  let result =
    span "core.launch" (fun () ->
        Launch.run_to_completion soc (fun () ->
            match thread with
            | `Sw func -> Launch.run_sw soc func request
            | `Hw t -> Launch.run_hw soc t request))
  in
  { soc; data; result }

let correct r =
  r.result.Launch.ret = r.data.Workload.expected_ret
  && r.data.Workload.check (Vmht_vm.Addr_space.load_word (Soc.aspace r.soc))

let accel_counts r =
  match r.result.Launch.accel_stats with
  | Some s -> (s.Accel.loads, s.Accel.stores, s.Accel.fsm_cycles)
  | None -> (0, 0, 0)

(* Simulator, VM and memory counters of one model-backend run that took
   [dt] host seconds. *)
let count_sim dt r =
  let res = r.result in
  count "sim.host_s" dt;
  counti "sim.cycles" res.Launch.total_cycles;
  let engine = Soc.engine r.soc in
  counti "sim.events" (Engine.events_executed engine);
  counti "sim.fast_forwards" (Engine.fast_forwards engine);
  Option.iter
    (fun (m : Vmht_vm.Mmu.stats) ->
      counti "vm.tlb_accesses" m.Vmht_vm.Mmu.accesses;
      counti "vm.tlb_misses" m.Vmht_vm.Mmu.tlb_misses;
      counti "vm.walk_cycles" m.Vmht_vm.Mmu.walk_cycles)
    res.Launch.mmu_stats;
  let bus = Soc.bus_stats r.soc in
  counti "mem.bus_reads" bus.Vmht_mem.Bus.reads;
  counti "mem.bus_writes" bus.Vmht_mem.Bus.writes;
  counti "mem.bus_wait_cycles"
    bus.Vmht_mem.Bus.bus.Vmht_sim.Resource.wait_cycles;
  count "mem.dram_row_hit_rate" (Soc.dram_row_hit_rate r.soc);
  counti "mem.runs" 1;
  let loads, stores, fsm_cycles = accel_counts r in
  counti "hls.accel_loads" loads;
  counti "hls.accel_stores" stores;
  counti "hls.accel_fsm_cycles" fsm_cycles

let sim_op ~seed (name, mode, size) =
  let w = Registry.find name in
  let run () =
    let r = soc_run Config.default mode w ~size ~seed in
    fun dt ->
      if not (correct r) then Error "wrong result"
      else begin
        count_sim dt r;
        let res = r.result in
        Ok (Marshal.to_string (res.Launch.total_cycles, res.Launch.ret) [])
      end
  in
  let label =
    Printf.sprintf "%s/%s size %d" name (Common.mode_name mode) size
  in
  { label; items = 1; run }

let sim ~seed ~smoke =
  let points =
    if smoke then
      Common.[ ("vecadd", Sw, 256); ("vecadd", Vm, 256); ("vecadd", Dma, 256);
               ("list_sum", Vm, 256) ]
    else
      let size = function "mmul" -> 24 | "spmv" | "bfs" -> 2048 | _ -> 16384 in
      (let* name = Registry.names in
       let* mode = Common.[ Sw; Vm; Dma ] in
       [ (name, mode, size name) ])
      (* Beyond TLB reach and the 64 Ki-word scratchpad: the paper's case
         for VM-enabled threads. *)
      @ Common.[ ("list_sum", Vm, 65536); ("tree_search", Vm, 65536) ]
  in
  instance "core.run" ~before_round:Flow.reset_cache
    (List.map (sim_op ~seed) points)

(* The RTL evaluator against an untimed model run of the same point:
   result, cycles, loads, stores and FSM cycles must all agree. *)
let rtl_op ~seed (name, unroll, banks, size) =
  let w = Registry.find name in
  let config = hw_config ~unroll ~banks ~opt:2 () in
  let run () =
    let rtl_config = Config.with_backend config Config.Rtl in
    let r = soc_run rtl_config Common.Vm w ~size ~seed in
    fun dt ->
      count "rtl.host_s" dt;
      counti "rtl.cycles" r.result.Launch.total_cycles;
      let t0 = now () in
      let m =
        span "rtl.model_run" (fun () ->
            soc_run ~tag:"model." config Common.Vm w ~size ~seed)
      in
      count_sim (now () -. t0) m;
      if !tracing then begin
        let hw =
          Flow.run_exn (Flow.Request.of_kernel ~config (Workload.kernel w))
        in
        ignore (timed "rtl.parse" (fun () ->
            Vmht_rtl.Parse.parse_module hw.Flow.verilog));
        counti "rtl.parse.bytes" (String.length hw.Flow.verilog)
      end;
      let observed x =
        (x.result.Launch.ret, x.result.Launch.total_cycles, accel_counts x)
      in
      if not (correct r && correct m) then Error "wrong result"
      else if observed r <> observed m then begin
        counti "rtl.divergences" 1;
        Error "RTL evaluator diverges from the model"
      end
      else Ok (Marshal.to_string (observed r) [])
  in
  {
    label = Printf.sprintf "%s u%d b%d size %d" name unroll banks size;
    items = 1;
    run;
  }

let rtl ~seed ~smoke =
  let points =
    if smoke then [ ("vecadd", 1, 1, 256); ("saxpy", 4, 4, 256) ]
    else
      let size = function "mmul" -> 12 | "spmv" | "bfs" -> 512 | _ -> 4096 in
      let* name = Registry.names in
      let* unroll = [ 1; 4 ] in
      let* banks = [ 1; 4 ] in
      [ (name, unroll, banks, size name) ]
  in
  instance "core.run" (List.map (rtl_op ~seed) points)

(* --- serve-cold and serve-warm: the in-process synthesis server -------- *)

let out_dir = ".bench_out"

let fresh_store_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat out_dir (Printf.sprintf "store-%d-%d" (Unix.getpid ()) !n)

let rm_store dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* One value through [Proto]'s framing over a pipe and back.  Frames a
   pipe's buffer could not hold are skipped: this one thread is both
   writer and reader. *)
let roundtrip (type a) (fds : Unix.file_descr * Unix.file_descr) (v : a) =
  let r, w = fds in
  if String.length (Marshal.to_string v []) < 60_000 then begin
    timed "proto.roundtrip" (fun () ->
        Proto.write_msg w v;
        ignore (Proto.read_msg r : a option));
    counti "proto.roundtrips" 1
  end

(* Decode every entry of the store and encode it again. *)
let store_codec dir =
  Array.iter
    (fun f ->
      let bytes =
        In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all
      in
      count "store.entries" 1.;
      count "store.bytes" (float_of_int (String.length bytes));
      match timed "store.decode" (fun () -> Store.decode_entry bytes) with
      | Ok (kernel, hw) ->
        ignore (timed "store.encode" (fun () -> Store.encode_entry kernel hw))
      | Error _ -> ())
    (Sys.readdir dir)

let failure_of (reply : Proto.reply) =
  match reply.Proto.outcome with
  | Proto.Failed why -> Some why
  | Proto.Executed { correct = false; _ } -> Some "wrong result"
  | Proto.Executed _ | Proto.Synthesized _ -> None

let batch_size = 8

(* [xs] cut into consecutive batches of [batch_size]. *)
let rec batches xs =
  if xs = [] then []
  else
    List.filteri (fun i _ -> i < batch_size) xs
    :: batches (List.filteri (fun i _ -> i >= batch_size) xs)

(* A fresh [Server] (shards = 0, the `vmht serve` default) per round, and
   one client that sends the next batch of 8 requests when the last one
   is answered, so the server's per-batch path runs (sorting, hit
   accounting, dispatch; its in-batch dedup exists only with forked
   shards).  The batches are one fixed [Loadgen.mix] cut in request order,
   and only the order they are sent in comes from the seed: every seed
   does the same work, so runs with different seeds are comparable.
   Cold: a fresh store and memo each round, so every key is synthesized
   and written through.  Warm: the store is filled by the first set-up
   round and only read after that; the memo is still fresh each
   round. *)
let serve ~warm ~seed:_ ~smoke =
  let requests =
    Vmht_eval.Loadgen.mix ~config:Config.default
      ~requests:(if smoke then 24 else 1200)
      ~seed:0
  in
  let dir = ref "" and store = ref None and server = ref None in
  let pipe = lazy (Unix.pipe ~cloexec:true ()) in
  let the r = Option.get !r in
  let open_store () =
    rm_store !dir;
    dir := fresh_store_dir ();
    match Store.open_ ~dir:!dir () with
    | Ok s ->
      Store.install s;
      store := Some s
    | Error e -> failwith (Flow.error_to_string e)
  in
  let before_round () =
    if (not warm) || !store = None then open_store ();
    Flow.reset_cache ();
    Store.reset_stats (the store);
    server :=
      Some
        (Server.create ~store:(the store) ~handle:Vmht_eval.Loadgen.handle ())
  in
  let after_round () =
    let st = Server.stats (the server) in
    counti "serve.key_hits" st.Server.key_hits;
    counti "serve.key_misses" st.Server.key_misses;
    counti "serve.deduped" st.Server.deduped;
    count "serve.handle_s"
      (float_of_int st.Server.latency.Vmht_obs.Histogram.sum /. 1e6);
    let ss = Store.stats (the store) in
    counti "store.hits" ss.Store.hits;
    counti "store.misses" ss.Store.misses;
    counti "store.saves" ss.Store.saves;
    if !tracing then store_codec !dir;
    Server.shutdown (the server)
  in
  let cleanup () =
    Flow.set_store None;
    rm_store !dir;
    if Lazy.is_val pipe then begin
      let r, w = Lazy.force pipe in
      Unix.close r;
      Unix.close w
    end
  in
  let op (batch : Proto.request list) =
    let run () =
      let replies = Server.run_batch (the server) batch in
      fun dt ->
        count "serve.batch_s" dt;
        if !tracing then begin
          List.iter (roundtrip (Lazy.force pipe)) batch;
          List.iter (roundtrip (Lazy.force pipe)) replies
        end;
        match List.find_map failure_of replies with
        | Some why -> Error why
        | None ->
          List.iter
            (fun (reply : Proto.reply) ->
              match reply.Proto.outcome with
              | Proto.Executed { cycles; _ } -> counti "sim.cycles" cycles
              | Proto.Synthesized _ | Proto.Failed _ -> ())
            replies;
          Ok (Marshal.to_string replies [])
    in
    let rids = List.map (fun (r : Proto.request) -> r.Proto.rid) batch in
    {
      label =
        "requests " ^ String.concat "," (List.map string_of_int rids);
      items = List.length batch;
      run;
    }
  in
  instance "serve.batch"
    ~warmup:(if warm then 2 else 1)
    ~before_round ~after_round ~cleanup
    (List.map op (batches requests))

(* --- workloads ---------------------------------------------------------- *)

let workloads =
  [
    ("synth", synth);
    ("sim", sim);
    ("rtl", rtl);
    ("serve-cold", serve ~warm:false);
    ("serve-warm", serve ~warm:true);
  ]

(* --- measurement -------------------------------------------------------- *)

let sum = List.fold_left ( +. ) 0.

let median = Vmht_util.Stats.median

let percentile = Vmht_util.Stats.percentile

(* --- host speed ---------------------------------------------------------- *)

(* The host is shared, and load from other tenants slows every
   instruction of this process by up to 80%, in stretches of seconds to
   minutes.  No median over one run filters a stretch that covers the
   run, and the process's CPU time slows with its wall time (the vCPU is
   not descheduled; its core is shared).  So after each op, outside the
   timed region, the benchmark times [probe_work], a fixed piece of work
   of its own, and scales each op's time by [reference_probe_s] divided
   by the probe times taken around it ([scale_ops]).  Every timing
   metric is thus the time the work would take on a host where
   [probe_work] takes [reference_probe_s].  Of the kernels tried
   (integer arithmetic, map lookups in 4 Ki and 64 Ki entries, a
   pointer chase through 256 KiB, map inserts, this sort), this one
   tracked the flow's slowdowns best: like the flow, it allocates
   short-lived blocks and runs polymorphic compare.  It uses the
   standard library only, so no change to lib/ moves it, except a
   change to the GC settings that both share. *)
let probe_work () =
  let x = ref 5 in
  List.init 300 (fun _ ->
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      (!x land 0xffff, string_of_int (!x land 0xff)))
  |> List.sort compare |> List.length

(* A round figure between the probe's time on the 2-vCPU host the
   baselines in README.md come from when it is quiet (62-75 us) and
   when it is loaded (100-130 us).  It only sets the scale of every
   timing metric; changing it would break comparisons with earlier
   runs. *)
let reference_probe_s = 100e-6

let probe () =
  let t0 = now () in
  ignore (Sys.opaque_identity (probe_work ()));
  now () -. t0

(* A time measured where the probe took [probe], at the reference
   speed. *)
let at_reference ~probe t = t *. reference_probe_s /. probe

(* The op times of a round, given in the order the ops ran with the
   probe time taken after each, at the reference speed.  Each is scaled
   by the median of its own probe and those of the two ops on either
   side, as the host's speed can change within a round; in trials this
   spread less between runs than one factor per round. *)
let scale_ops timeline =
  let n = Array.length timeline in
  Array.to_list
    (Array.mapi
       (fun j (dt, _) ->
         let lo = max 0 (j - 2) and hi = min (n - 1) (j + 2) in
         let window = Array.sub timeline lo (hi - lo + 1) in
         at_reference ~probe:(median (Array.to_list (Array.map snd window))) dt)
       timeline)

type round = {
  op_times : float list;  (** by the wall clock *)
  scaled : float list;  (** at the reference speed *)
  probe : float;  (** median probe time *)
  failures : (string * string) list;
}

(* One round, its ops in an order drawn from [rng]: a fresh order each
   round, so the seed does not fix which op pays for work the round
   shares (on the serve workloads, the request that first brings a key
   into the memo). *)
let run_round rng inst (reference : (int, string) Hashtbl.t) =
  inst.before_round ();
  let memo0 = Flow.cache_stats () in
  let run_op i op =
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    let check =
      match span inst.op_span op.run with
      | check -> Ok check
      | exception e -> Error (Printexc.to_string e)
    in
    let dt = now () -. t0 in
    let g1 = Gc.quick_stat () in
    let p = probe () in
    count "ops" 1.;
    count "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
    counti "gc.major_collections"
      (g1.Gc.major_collections - g0.Gc.major_collections);
    let verdict =
      match Result.bind check (fun check -> check dt) with
      | exception e -> Error (Printexc.to_string e)
      | Error why -> Error why
      | Ok out -> (
        match Hashtbl.find_opt reference i with
        | None ->
          Hashtbl.add reference i out;
          Ok ()
        | Some first when first = out -> Ok ()
        | Some _ -> Error "output differs from the first round")
    in
    ((dt, p), Result.map_error (fun why -> (op.label, why)) verdict)
  in
  let ops = Array.of_list inst.ops in
  let order = Array.init (Array.length ops) Fun.id in
  Vmht_util.Rng.shuffle rng order;
  let outcomes = Array.map (fun i -> run_op i ops.(i)) order in
  let memo1 = Flow.cache_stats () in
  counti "flow.memo_hits" (memo1.Flow.cache_hits - memo0.Flow.cache_hits);
  counti "flow.memo_misses" (memo1.Flow.cache_misses - memo0.Flow.cache_misses);
  inst.after_round ();
  let timeline = Array.map fst outcomes in
  {
    op_times = Array.to_list (Array.map fst timeline);
    scaled = scale_ops timeline;
    probe = median (Array.to_list (Array.map snd timeline));
    failures =
      Array.to_list outcomes
      |> List.filter_map (fun (_, v) ->
             match v with Error f -> Some f | Ok () -> None);
  }

(* Rounds until [seconds] have passed, at least one. *)
let run_phase rng inst reference ~seconds =
  let t_end = now () +. seconds in
  let rec go acc =
    let acc = run_round rng inst reference :: acc in
    if now () < t_end then go acc else List.rev acc
  in
  go []

(* [f ()] and the counts it made. *)
let counted f =
  counters := Hashtbl.create 64;
  let v = f () in
  (v, !counters)

let all_times rounds = List.concat_map (fun r -> r.op_times) rounds

let scaled r = r.scaled

(* [f] of each round's op times, at the reference speed unless [times]
   says otherwise; the median over the rounds. *)
let over_rounds ?(times = scaled) f rounds =
  median (List.map (fun r -> f (times r)) rounds)

(* Items per second of one round. *)
let items_per_s inst times =
  float_of_int (List.fold_left (fun acc op -> acc + op.items) 0 inst.ops)
  /. sum times

let throughput ?times inst rounds = over_rounds ?times (items_per_s inst) rounds

(* Unscaled, as the wall clock read them. *)
let wall r = r.op_times

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb ->
             float_of_int kb /. 1024.))
  |> Option.get

let end_to_end inst ~rounds ~setup_times =
  let latency_ms p times = percentile p (List.map (fun t -> 1000. *. t) times) in
  [
    ("ops_per_s", "ops/s", throughput inst rounds);
    ("latency_p50_ms", "ms", over_rounds (latency_ms 0.5) rounds);
    ("latency_p90_ms", "ms", over_rounds (latency_ms 0.9) rounds);
    ("setup_s", "s", median setup_times);
    ("peak_rss_mb", "MiB", peak_rss_mb ());
  ]

(* Summed duration in seconds of the benchmark's own spans, by name. *)
let span_seconds spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s : Span.t) ->
      if s.Span.cat = "bench" then
        let d = float_of_int (s.Span.t1_ns - s.Span.t0_ns) /. 1e9 in
        Hashtbl.replace tbl s.Span.name
          (d +. Option.value (Hashtbl.find_opt tbl s.Span.name) ~default:0.))
    spans;
  fun name -> Option.value (Hashtbl.find_opt tbl name) ~default:0.

(* [u]: counters of the untraced rounds (counts, rates); [t]: counters of
   the traced rounds (micro-measurements); [secs]: span seconds by name. *)
let per_layer ~u ~urounds ~t ~secs ~profile ~overhead ~spans_per_op
    ~wall_ops_per_s =
  let div a b = if b > 0. then a /. b else 0. in
  let per_round name = get u name /. float_of_int urounds in
  let rate c num den scale = div (get c num) (get c den) /. scale in
  let share name base = 100. *. div (secs name) (secs base) in
  let host = profile.Profile.host_ns in
  let host_share phase =
    let total = Array.fold_left ( +. ) 0. host in
    100. *. div host.(Profile.phase_index phase) total
  in
  let pct base name = (name ^ "_pct", "%", share name base) in
  let counts names = List.map (fun n -> (n, "count", per_round n)) names in
  [
    ("wall.ops_per_s", "ops/s", wall_ops_per_s);
    ("trace.overhead_pct", "%", overhead);
    ("trace.spans_per_op", "count", spans_per_op);
  ]
  @ List.map (pct "core.flow") synth_stages
  @ [
      ("core.stage_sum_pct", "%",
       sum (List.map (fun s -> share s "core.flow") synth_stages));
    ]
  @ counts [ "ir.pass_rewrites"; "ir.instrs_out"; "hls.states" ]
  @ [ ("hls.verilog_bytes", "bytes", per_round "hls.verilog_bytes") ]
  @ List.map (pct "core.run")
      [ "core.soc_create"; "workload.setup"; "core.compile"; "core.launch" ]
  @ counts [ "flow.memo_hits"; "flow.memo_misses" ]
  @ [
      ("sim.mcycles_per_s", "Mcycles/s", rate u "sim.cycles" "sim.host_s" 1e6);
      ("sim.mevents_per_s", "Mevents/s", rate u "sim.events" "sim.host_s" 1e6);
    ]
  @ counts [ "sim.cycles"; "sim.events"; "sim.fast_forwards" ]
  @ List.map
      (fun p -> ("sim.host_share." ^ Profile.phase_name p, "%", host_share p))
      Profile.all_phases
  @ counts [ "vm.tlb_accesses" ]
  @ [
      ("vm.tlb_miss_ratio", "ratio",
       rate u "vm.tlb_misses" "vm.tlb_accesses" 1.);
    ]
  @ counts
      [
        "vm.walk_cycles"; "mem.bus_reads"; "mem.bus_writes";
        "mem.bus_wait_cycles";
      ]
  @ [
      ("mem.dram_row_hit_rate", "ratio",
       rate u "mem.dram_row_hit_rate" "mem.runs" 1.);
    ]
  @ counts [ "hls.accel_fsm_cycles"; "hls.accel_loads"; "hls.accel_stores" ]
  @ [
      ("rtl.slowdown", "x", rate u "rtl.host_s" "sim.host_s" 1.);
      ("rtl.mcycles_per_s", "Mcycles/s", rate u "rtl.cycles" "rtl.host_s" 1e6);
      ("rtl.parse_mb_per_s", "MB/s",
       rate t "rtl.parse.bytes" "rtl.parse.s" 1e6);
    ]
  @ counts [ "rtl.divergences" ]
  @ [
      ("serve.hit_rate", "ratio",
       div (get u "serve.key_hits")
         (get u "serve.key_hits" +. get u "serve.key_misses"));
      ("serve.overhead_pct", "%",
       100. *. div (get u "serve.batch_s" -. get u "serve.handle_s")
                 (get u "serve.batch_s"));
    ]
  @ counts [ "serve.deduped"; "store.hits"; "store.misses"; "store.saves" ]
  @ [
      ("store.encode_mb_per_s", "MB/s",
       rate t "store.bytes" "store.encode.s" 1e6);
      ("store.decode_mb_per_s", "MB/s",
       rate t "store.bytes" "store.decode.s" 1e6);
      ("store.entry_bytes", "bytes", rate t "store.bytes" "store.entries" 1.);
      ("proto.roundtrips_per_s", "1/s",
       rate t "proto.roundtrips" "proto.roundtrip.s" 1.);
      ("gc.minor_words_per_op", "words", rate u "gc.minor_words" "ops" 1.);
    ]
  @ counts [ "gc.major_collections" ]

(* Self time per span name (duration minus direct children), over every
   span of the traced rounds, the library's own included.  Names that
   carry a subject ("synth:vecadd") are grouped by their prefix. *)
let self_time_table spans =
  let dur (s : Span.t) = s.Span.t1_ns - s.Span.t0_ns in
  let children = Hashtbl.create 1024 in
  List.iter
    (fun (s : Span.t) ->
      Option.iter
        (fun p ->
          Hashtbl.replace children p
            (dur s + Option.value (Hashtbl.find_opt children p) ~default:0))
        s.Span.parent)
    spans;
  let groups = Hashtbl.create 64 in
  List.iter
    (fun (s : Span.t) ->
      let name =
        match String.index_opt s.Span.name ':' with
        | Some i -> String.sub s.Span.name 0 i ^ ":*"
        | None -> s.Span.name
      in
      let self =
        dur s - Option.value (Hashtbl.find_opt children s.Span.id) ~default:0
      in
      let calls, total, self_sum =
        Option.value (Hashtbl.find_opt groups name) ~default:(0, 0, 0)
      in
      Hashtbl.replace groups name (calls + 1, total + dur s, self_sum + self))
    spans;
  let rows =
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) groups []
    |> List.sort (fun (_, (_, _, a)) (_, (_, _, b)) -> compare b a)
  in
  let all_self = List.fold_left (fun acc (_, (_, _, s)) -> acc + s) 0 rows in
  let table =
    Vmht_util.Table.create ~title:"self time per span (traced rounds)"
      ~headers:[ "span"; "calls"; "total ms"; "self ms"; "self %" ]
  in
  List.iter
    (fun (name, (calls, total, self)) ->
      let ms ns = Vmht_util.Table.fmt_float (float_of_int ns /. 1e6) in
      Vmht_util.Table.add_row table
        [
          name;
          string_of_int calls;
          ms total;
          ms self;
          Vmht_util.Table.fmt_float
            (100. *. float_of_int self /. float_of_int (max 1 all_self));
        ])
    rows;
  Vmht_util.Table.render table

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;
}

let failures rounds = List.concat_map (fun r -> r.failures) rounds

(* One set-up from an empty flow memo: the instance, its order generator,
   its warm-up rounds and how long all that took, at the reference host
   speed the warm-up rounds' probes give.  Every set-up does the same
   work, and [reference] holds the outputs of the first round of the
   first one. *)
let set_up prepare ~seed ~smoke reference =
  let t0 = now () in
  Flow.reset_cache ();
  let rng = Vmht_util.Rng.create seed in
  let inst = prepare ~seed ~smoke in
  let warm = List.init inst.warmup (fun _ -> run_round rng inst reference) in
  let probe = median (List.map (fun r -> r.probe) warm) in
  (inst, rng, warm, at_reference ~probe (now () -. t0))

(* An untraced run goes [cycles] times through a set-up and a [cycles]th
   of the measured time.  A traced run sets up once. *)
let cycles = 3

let run_workload ~name ~prepare ~seed ~seconds ~trace ~trace_file ~smoke =
  let reference = Hashtbl.create 512 in
  let set_up () = set_up prepare ~seed ~smoke reference in
  let finish inst ~warm ~setup_times rounds metrics =
    let failed = List.length (failures rounds) in
    let all = failures (warm @ rounds) in
    List.iteri
      (fun i (label, why) ->
        if i < 10 then Printf.printf "  failed: %s: %s\n" label why)
      all;
    Printf.printf "- %s: %s (%d ops per round, %d rounds, %d of %d failed)\n"
      name
      (if all = [] then "PASS" else "FAIL")
      (List.length inst.ops) (List.length rounds) failed
      (List.length (all_times rounds));
    let per_round fmt f =
      String.concat " " (List.map (fun r -> Printf.sprintf fmt (f r)) rounds)
    in
    Printf.printf "  ops/s per round: %s\n"
      (per_round "%.1f" (fun r -> throughput inst [ r ]));
    Printf.printf "  the same by the wall clock: %s\n"
      (per_round "%.1f" (fun r -> throughput ~times:wall inst [ r ]));
    Printf.printf "  probe us per round: %s\n"
      (per_round "%.1f" (fun r -> 1e6 *. r.probe));
    Printf.printf "  set-up s: %s\n"
      (String.concat " " (List.map (Printf.sprintf "%.3f") setup_times));
    {
      correct = all = [];
      attempted = List.length (all_times rounds);
      failed;
      metrics;
    }
  in
  if not trace then begin
    let cycles = if smoke then 1 else cycles in
    (* Each cycle measures until its share of [seconds] is used up, so a
       long round in one cycle shortens the next.  Only the last
       instance is kept: an earlier one would hold its inputs (on serve,
       1200 requests with their kernels) and raise peak_rss_mb. *)
    let rec go k spent acc =
      let inst, rng, warm, setup = set_up () in
      let share = seconds *. float_of_int (k + 1) /. float_of_int cycles in
      let t0 = now () in
      let rounds = run_phase rng inst reference ~seconds:(share -. spent) in
      let spent = spent +. (now () -. t0) in
      inst.cleanup ();
      let acc = (warm, setup, rounds) :: acc in
      if k + 1 = cycles then (inst, List.rev acc) else go (k + 1) spent acc
    in
    let inst, runs = go 0 0. [] in
    let warm = List.concat_map (fun (w, _, _) -> w) runs
    and setup_times = List.map (fun (_, s, _) -> s) runs
    and rounds = List.concat_map (fun (_, _, r) -> r) runs in
    finish inst ~warm ~setup_times rounds
      (end_to_end inst ~rounds ~setup_times)
  end
  else begin
    let inst, rng, warm, setup = set_up () in
    let urounds, u =
      counted (fun () -> run_phase rng inst reference ~seconds:(seconds /. 2.))
    in
    tracing := true;
    Span.enable true;
    Profile.enable true;
    let trounds, t =
      counted (fun () -> run_phase rng inst reference ~seconds:(seconds /. 2.))
    in
    inst.cleanup ();
    Span.enable false;
    Profile.enable false;
    tracing := false;
    let spans = Span.spans () in
    let secs = span_seconds spans in
    let traced_ops = List.length (all_times trounds) in
    let metrics =
      per_layer ~u ~urounds:(List.length urounds) ~t ~secs
        ~profile:(Profile.totals ())
        ~overhead:
          (100. *. ((throughput inst urounds /. throughput inst trounds) -. 1.))
        ~spans_per_op:
          (float_of_int (List.length spans) /. float_of_int traced_ops)
        ~wall_ops_per_s:(throughput ~times:wall inst urounds)
    in
    print_string (self_time_table spans);
    if secs "core.flow" > 0. then
      Printf.printf "synthesis stages sum to %.1f%% of core.flow\n"
        (100. *. sum (List.map secs synth_stages) /. secs "core.flow");
    (try Unix.mkdir (Filename.dirname trace_file) 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Span.write_chrome_file ~process_name:("vmht bench " ^ name) trace_file
      spans;
    Printf.printf "chrome trace: %s (%d spans)\n" trace_file
      (List.length spans);
    Span.reset ();
    finish inst ~warm ~setup_times:[ setup ] (urounds @ trounds) metrics
  end

let result_json r =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (n, unit, v) ->
               ( n,
                 Json.Obj
                   [ ("value", Json.Float v); ("unit", Json.String unit) ] ))
             r.metrics) );
    ]

(* --- header ------------------------------------------------------------- *)

(* The commit, when run from a git checkout: .git/HEAD is a hash or a
   ref whose loose file holds one. *)
let git_rev () =
  let read path =
    match In_channel.with_open_text path In_channel.input_all with
    | s -> Some (String.trim s)
    | exception Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    match read (".git/" ^ String.sub head 5 (String.length head - 5)) with
    | Some hash -> hash
    | None -> "unknown")
  | Some hash -> hash
  | None -> "unknown"

let header ~workload ~seed ~seconds ~trace =
  Printf.printf
    "# vmht bench: rev %s, config %s, nproc %d, workload %s, seed %d, %gs \
     measured, trace %b\n"
    (git_rev ())
    (hex (Config.fingerprint Config.default))
    (Domain.recommended_domain_count ())
    workload seed seconds trace

(* --- smoke -------------------------------------------------------------- *)

(* Every workload once, untraced and traced, on the reduced point lists:
   each must pass and print exactly the metric names and units the
   manifest declares. *)
let smoke manifest_path =
  let manifest =
    Json.of_string (In_channel.with_open_bin manifest_path In_channel.input_all)
  in
  let field name j = Option.get (Json.member name j) in
  let names key =
    Option.get (Json.to_list (field key manifest))
    |> List.map (fun m ->
           ( Option.get (Json.to_str (field "name" m)),
             Option.get (Json.to_str (field "unit" m)) ))
    |> List.sort compare
  in
  let declared_workloads =
    Option.get (Json.to_list (field "workloads" manifest))
    |> List.map (fun w -> Option.get (Json.to_str (field "name" w)))
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if declared_workloads <> List.map fst workloads then
    problem "workloads in %s differ from the benchmark's" manifest_path;
  List.iter
    (fun (name, prepare) ->
      List.iter
        (fun (trace, key) ->
          let r =
            run_workload ~name ~prepare ~seed:42 ~seconds:0. ~trace
              ~trace_file:(Filename.concat out_dir ("smoke-" ^ name ^ ".json"))
              ~smoke:true
          in
          print_endline (Json.to_string (result_json r));
          if not r.correct then problem "%s failed (trace %b)" name trace;
          let printed =
            List.sort compare (List.map (fun (n, u, _) -> (n, u)) r.metrics)
          in
          if printed <> names key then
            problem "%s (trace %b) prints other %s metrics than %s declares"
              name trace key manifest_path)
        [ (false, "end_to_end"); (true, "per_layer") ])
    workloads;
  List.iter prerr_endline (List.rev !problems);
  !problems = []

(* --- main --------------------------------------------------------------- *)

let () =
  Vmht_par.Parmap.set_jobs 1;
  let workload = ref "" and seed = ref 42 and seconds = ref 15. in
  let trace = ref 0 and trace_file = ref "" and smoke_manifest = ref "" in
  let usage =
    "bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
     [--trace-file FILE]\n\
     bench.exe --smoke BENCHMARK.json"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload,
       "NAME " ^ String.concat "|" (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (default 15)");
      ("--trace", Arg.Set_int trace,
       "0|1 per-layer metrics instead (default 0)");
      ("--trace-file", Arg.Set_string trace_file,
       "FILE Chrome trace of a --trace 1 run");
      ("--smoke", Arg.Set_string smoke_manifest,
       "BENCHMARK.json run the smoke test against this manifest");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !smoke_manifest <> "" then
    exit (if smoke !smoke_manifest then 0 else 1);
  let prepare =
    match List.assoc_opt !workload workloads with
    | Some p when !trace = 0 || !trace = 1 -> p
    | _ ->
      prerr_endline usage;
      exit 2
  in
  header ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1);
  let trace_file =
    if !trace_file <> "" then !trace_file
    else
      Filename.concat out_dir
        (Printf.sprintf "trace-%s-%d.json" !workload !seed)
  in
  let r =
    run_workload ~name:!workload ~prepare ~seed:!seed ~seconds:!seconds
      ~trace:(!trace = 1) ~trace_file ~smoke:false
  in
  List.iter
    (fun (n, unit, v) -> Printf.printf "  %-28s %14.4f %s\n" n v unit)
    r.metrics;
  print_endline (Json.to_string (result_json r));
  exit (if r.correct then 0 else 1)
