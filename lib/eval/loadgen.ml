module Proto = Vmht_serve.Proto
module Server = Vmht_serve.Server
module Store = Vmht_serve.Store
module Json = Vmht_obs.Json
module Table = Vmht_util.Table
module Workload = Vmht_workloads.Workload
open Vmht

let subjects = [ "vecadd"; "mmul"; "spmv"; "list_sum"; "tree_search"; "bfs" ]

(* Execution sizes small enough that a single [Execute] job is cheap
   next to a synthesis, scaled per kernel (mmul's size is a matrix
   dimension, the others are element counts). *)
let exec_size = function
  | "mmul" -> 8
  | "bfs" -> 64
  | "spmv" -> 128
  | _ -> 256

let handle (req : Proto.request) =
  match req.Proto.job with
  | Proto.Synthesize { kernel; style; config } -> (
    match Flow.run (Flow.Request.of_kernel ~config ~style kernel) with
    | Ok hw ->
      (* The deterministic projection: no wall-clock field.  The name
         is the request's own (the memo hit check makes it equal to
         the held AST's), so a reply shares strings with its request
         alone, whether a synthesis or a store decode filled the memo,
         and its marshaled bytes do not depend on which did. *)
      Proto.Synthesized
        {
          kname = kernel.Vmht_lang.Ast.kname;
          states = hw.Flow.fsm.Vmht_hls.Fsm.stats.Vmht_hls.Fsm.states;
          total_area = hw.Flow.total_area;
          verilog_bytes = String.length hw.Flow.verilog;
        }
    | Error e -> Proto.Failed (Flow.error_to_string e))
  | Proto.Execute { workload; mode; size; config } -> (
    match Vmht_workloads.Registry.find workload with
    | exception Not_found ->
      Proto.Failed (Printf.sprintf "unknown workload %S" workload)
    | w -> (
      match Common.run ~config mode w ~size with
      | o ->
        Proto.Executed
          {
            cycles = Common.cycles o;
            correct = o.Common.correct;
            ret = o.Common.result.Launch.ret;
          }
      | exception e -> (
        match Common.rejection e with
        | Some msg -> Proto.Failed msg
        | None -> raise e)))

let mix ~config ~requests ~seed =
  let rng = Random.State.make [| 0x10adc3; seed |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  List.init requests (fun rid ->
      let wname = pick subjects in
      let config = Config.with_unroll config (pick [ 1; 2; 4 ]) in
      let config = Config.with_opt_level config (pick [ 0; 2 ]) in
      let config = Config.with_tlb_entries config (pick [ 16; 64 ]) in
      let job =
        (* Three synthesis submissions per execution: the service's
           workload is dominated by synthesis, which is also the part
           the store can answer. *)
        if Random.State.int rng 4 < 3 then
          Proto.Synthesize
            {
              kernel = Workload.kernel (Vmht_workloads.Registry.find wname);
              style = pick [ Wrapper.Vm_iface; Wrapper.Dma_iface ];
              config;
            }
        else
          Proto.Execute
            {
              workload = wname;
              mode = pick [ Proto.Sw; Proto.Vm; Proto.Dma ];
              size = exec_size wname;
              config;
            }
      in
      { Proto.rid; deadline_ms = None; job })

type report = {
  output : string;
  manifest : Json.t;
  failures : int;
  hit_rate : float;
  perf_line : string;
}

let kernel_of_job = function
  | Proto.Synthesize { kernel; _ } -> kernel.Vmht_lang.Ast.kname
  | Proto.Execute { workload; _ } -> workload

(* Per-kernel aggregation of requests and their (deterministic)
   outcomes; nothing here may read a clock. *)
let render (reqs : Proto.request list) (replies : Proto.reply list) =
  let rows =
    List.map
      (fun name ->
        let keys = Hashtbl.create 8 in
        let synth = ref 0
        and runs = ref 0
        and failed = ref 0
        and verilog = ref 0
        and cycles = ref 0 in
        List.iter2
          (fun (req : Proto.request) (reply : Proto.reply) ->
            if kernel_of_job req.Proto.job = name then begin
              (match Proto.synthesis_key req.Proto.job with
              | Some k ->
                incr synth;
                Hashtbl.replace keys k ()
              | None -> incr runs);
              match reply.Proto.outcome with
              | Proto.Synthesized { verilog_bytes; _ } ->
                verilog := !verilog + verilog_bytes
              | Proto.Executed { cycles = c; correct; _ } ->
                cycles := !cycles + c;
                if not correct then incr failed
              | Proto.Failed _ -> incr failed
            end)
          reqs replies;
        ( name,
          !synth,
          Hashtbl.length keys,
          !verilog,
          !runs,
          !cycles,
          !failed ))
      subjects
  in
  let table =
    Table.create ~title:"Loadgen: request mix and (deterministic) outcomes"
      ~headers:
        [
          "kernel";
          "synth reqs";
          "distinct cfgs";
          "verilog bytes";
          "run reqs";
          "run cycles";
          "failed";
        ]
  in
  List.iter
    (fun (name, synth, distinct, verilog, runs, cycles, failed) ->
      Table.add_row table
        [
          name;
          string_of_int synth;
          string_of_int distinct;
          Table.fmt_int verilog;
          string_of_int runs;
          Table.fmt_int cycles;
          string_of_int failed;
        ])
    rows;
  let total f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let totals =
    Printf.sprintf
      "total: %d requests = %d synthesis (%d distinct configs) + %d runs, %d \
       failed\n"
      (List.length reqs)
      (total (fun (_, s, _, _, _, _, _) -> s))
      (total (fun (_, _, d, _, _, _, _) -> d))
      (total (fun (_, _, _, _, r, _, _) -> r))
      (total (fun (_, _, _, _, _, _, f) -> f))
  in
  Table.render table ^ totals

let run ?store ~(server : Server.t) ~seed (reqs : Proto.request list) =
  let t0 = Unix.gettimeofday () in
  let replies = Server.run_batch server reqs in
  let elapsed = Unix.gettimeofday () -. t0 in
  let failures =
    List.fold_left
      (fun acc (r : Proto.reply) ->
        match r.Proto.outcome with
        | Proto.Failed _ -> acc + 1
        | Proto.Executed { correct = false; _ } -> acc + 1
        | _ -> acc)
      0 replies
  in
  let stats = Server.stats server in
  let hit_rate = Server.hit_rate server in
  let throughput =
    if elapsed > 0. then float_of_int (List.length reqs) /. elapsed else 0.
  in
  let manifest =
    Json.Obj
      ([
         ("schema", Json.String "vmht-loadgen/2");
         ("requests", Json.Int (List.length reqs));
         ("seed", Json.Int seed);
         ("jobs", Json.Int (Vmht_par.Parmap.jobs ()));
         ("elapsed_s", Json.Float elapsed);
         ("throughput_rps", Json.Float throughput);
         ("latency_us", Vmht_obs.Histogram.summary_to_json stats.Server.latency);
         ( "server",
           Json.Obj
             [
               ("submitted", Json.Int stats.Server.submitted);
               ("completed", Json.Int stats.Server.completed);
               ("failed", Json.Int stats.Server.failed);
               ("expired", Json.Int stats.Server.expired);
               ("deduped", Json.Int stats.Server.deduped);
               ("key_hits", Json.Int stats.Server.key_hits);
               ("key_misses", Json.Int stats.Server.key_misses);
               ("hit_rate", Json.Float hit_rate);
             ] );
         ("failures", Json.Int failures);
       ]
      @
      match store with
      | None -> []
      | Some s ->
        let ss = Store.stats s in
        [
          ( "store",
            Json.Obj
              [
                ("dir", Json.String (Store.dir s));
                ("hits", Json.Int ss.Store.hits);
                ("misses", Json.Int ss.Store.misses);
                ("saves", Json.Int ss.Store.saves);
                ("corrupt", Json.Int ss.Store.corrupt);
                ("version_skew", Json.Int ss.Store.version_skew);
              ] );
        ])
  in
  let perf_line =
    Printf.sprintf
      "loadgen: %d requests in %.2fs (%.0f req/s), latency p50 %d us p99 %d \
       us, store hit rate %.2f\n"
      (List.length reqs) elapsed throughput stats.Server.latency.Vmht_obs.Histogram.p50
      stats.Server.latency.Vmht_obs.Histogram.p99 hit_rate
  in
  { output = render reqs replies; manifest; failures; hit_rate; perf_line }
