(* Command-line front end of the system-level synthesis flow:

     vmht compile FILE            front end + optimizer, dump IR
     vmht synth FILE [...]        full HLS + wrapper synthesis, dump report/RTL
     vmht run NAME [...]          run a benchmark workload on the simulated SoC
     vmht bench NAME|GROUP|all    regenerate evaluation tables/figures
     vmht serve [...]             batch synthesis server over JSON lines
     vmht loadgen [...]           drive a request mix through the server
     vmht profile NAME            run an experiment under the phase profiler
     vmht perf micro [NAME...]    Bechamel micro-benchmarks
     vmht perf snapshot           time every experiment + micro (bench manifest)
     vmht perf diff OLD NEW       compare two bench manifests (regression gate)
     vmht list                    available workloads and experiments

   Exit codes: 0 success; 1 runtime failure (unknown name, wrong
   result); 2 front-end (parse/type) error; 3 a requested output file
   could not be written. *)

open Cmdliner

let exit_frontend = 2

let exit_write_failed = 3

(* The one JSON file writer.  A failed write prints "cannot write
   <noun>: <reason>" and returns [false], which the caller turns into
   [exit_write_failed]. *)
let write_json noun path json =
  match
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Vmht_obs.Json.to_string_pretty json))
  with
  | () -> true
  | exception Sys_error msg ->
    Printf.eprintf "cannot write %s: %s\n" noun msg;
    false

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Front-end problems arrive as typed {!Vmht.Flow.error} results; this
   is the one place they become a message and an exit code. *)
let frontend_error err =
  Printf.eprintf "error: %s\n" (Vmht.Flow.error_to_string err);
  exit_frontend

let with_program file f =
  match Vmht.Flow.frontend_program (read_file file) with
  | Error err -> frontend_error err
  | Ok program ->
    f program;
    0

(* Optimizer selection, shared by every command that synthesizes:
   [--opt-level N] picks a preset schedule, [--passes a,b,c] overrides
   it with an explicit pass list.  Unknown pass names are rejected up
   front with the registry listing in the message. *)

let opt_level_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "opt-level" ] ~docv:"N"
        ~doc:"Optimization level: 0, 1 or 2 (default 2; see $(b,vmht passes)).")

let passes_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "passes" ] ~docv:"LIST"
        ~doc:
          "Explicit comma-separated pass schedule, overriding            $(b,--opt-level) (see $(b,vmht passes) for the registry).")

let backend_arg =
  Arg.(
    value
    & opt (enum [ ("sim", Vmht.Config.Model); ("rtl", Vmht.Config.Rtl) ])
        Vmht.Config.Model
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Hardware-thread executor: $(b,sim) (the model-level FSM \
           executor, default) or $(b,rtl) (parse the emitted Verilog back \
           and execute the emitted bytes on the same memory/VM stack; \
           contractually cycle- and result-identical — see the $(b,rtl1) \
           experiment).")

let banks_arg =
  Arg.(
    value & opt int 1
    & info [ "banks" ] ~docv:"N"
        ~doc:
          "Word-interleaved scratchpad banks the scheduler may arbitrate \
           across (default 1 = flat memory; accesses provably on distinct \
           banks co-issue).")

let config_with_opt config opt_level passes =
  let config =
    match opt_level with
    | Some n -> Vmht.Config.with_opt_level config n
    | None -> config
  in
  match passes with
  | Some list ->
    Vmht.Config.with_passes config
      (Some
         (List.filter
            (fun s -> s <> "")
            (String.split_on_char ',' list)))
  | None -> config

(* Flag values reach the library through setters and constructors that
   reject what they cannot build with [Invalid_argument]: an unknown
   pass name, [--banks 0], [--unroll 0], [--opt-level 9], a TLB
   geometry that does not divide into sets, a page too small for the
   page table, [--size 0].  A size the SoC cannot hold fails later, in
   the run: DMA buffers larger than the scratchpad
   ([Launch.Window_overflow]) or data larger than physical memory
   ([Frame_alloc.Out_of_frames], raised by the workload's setup before
   it builds any host data).  [checked build k] runs [build] and
   continues with [k]; a rejection ({!Vmht_eval.Common.rejection})
   becomes a message and exit 1, never an uncaught exception. *)
let checked build k =
  match build () with
  | v -> k v
  | exception e -> (
    match Vmht_eval.Common.rejection e with
    | Some msg ->
      Printf.eprintf "error: %s\n" msg;
      1
    | None -> raise e)

(* A count flag below [least] is refused before any work, with exit 1:
   a negative request count, or no copy of a kernel in a design. *)
let at_least ~flag least n k =
  if n < least then begin
    Printf.eprintf "error: %s must be at least %d, not %d\n" flag least n;
    1
  end
  else k ()

(* The optimizer flags onto [config], with the schedule resolved eagerly
   so a typo'd pass name or a level out of range fails with exit 1
   before any work happens, whatever command carried the flag. *)
let with_schedule config opt_level passes k =
  checked
    (fun () ->
      let config = config_with_opt config opt_level passes in
      (config, Vmht.Config.schedule config))
    k

(* ------------------------- compile -------------------------------- *)

let compile_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let no_opt =
    Arg.(value & flag & info [ "no-opt" ] ~doc:"Skip the optimizer.")
  in
  let action file no_opt opt_level passes =
    with_schedule Vmht.Config.default opt_level passes (fun (_, sched) ->
        with_program file (fun program ->
            List.iter
              (fun kernel ->
                let func = Vmht_ir.Lower.lower_kernel kernel in
                if not no_opt then begin
                  let report = Vmht_ir.Pass_manager.run sched func in
                  Printf.printf "; %s\n"
                    (Vmht_ir.Pass_manager.report_to_string report)
                end;
                print_string (Vmht_ir.Ir.func_to_string func);
                print_newline ())
              program))
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Parse, typecheck, lower and optimize kernels.")
    Term.(const action $ file $ no_opt $ opt_level_arg $ passes_arg)

(* ------------------------- synth ---------------------------------- *)

let iface_conv =
  Arg.enum [ ("vm", Vmht.Wrapper.Vm_iface); ("dma", Vmht.Wrapper.Dma_iface) ]

let synth_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let iface =
    Arg.(
      value
      & opt iface_conv Vmht.Wrapper.Vm_iface
      & info [ "iface" ] ~doc:"Interface wrapper style: vm or dma.")
  in
  let unroll =
    Arg.(value & opt int 1 & info [ "unroll" ] ~doc:"Loop unroll factor.")
  in
  let emit_rtl =
    Arg.(
      value & flag & info [ "verilog" ] ~doc:"Print the generated RTL too.")
  in
  let pipeline =
    Arg.(value & flag & info [ "pipeline" ] ~doc:"Modulo-schedule inner loops.")
  in
  let action file iface unroll banks emit_rtl pipeline opt_level passes =
    checked
      (fun () ->
        Vmht.Config.with_banks
          (Vmht.Config.with_unroll Vmht.Config.default unroll)
          banks)
    @@ fun config ->
    let config = Vmht.Config.with_pipelining config pipeline in
    with_schedule config opt_level passes (fun (config, _) ->
        with_program file (fun program ->
            List.iter
              (fun kernel ->
                let hw =
                  Vmht.Flow.run_exn
                    (Vmht.Flow.Request.of_kernel ~config ~style:iface kernel)
                in
                print_endline (Vmht.Flow.summary hw);
                if emit_rtl then begin
                  print_newline ();
                  print_string hw.Vmht.Flow.verilog
                end)
              program))
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:"Synthesize hardware threads (HLS + interface wrapper).")
    Term.(
      const action $ file $ iface $ unroll $ banks_arg $ emit_rtl $ pipeline
      $ opt_level_arg $ passes_arg)

(* ------------------------- run ------------------------------------ *)

let write_spans path =
  write_json "spans" path
    (Vmht_obs.Span.to_chrome_json (Vmht_obs.Span.spans ()))

let mode_conv =
  Arg.enum
    [
      ("sw", Vmht_eval.Common.Sw);
      ("vm", Vmht_eval.Common.Vm);
      ("dma", Vmht_eval.Common.Dma);
    ]

(* Apply a setter only when its optional flag was given. *)
let if_some set flag config =
  match flag with Some v -> set config v | None -> config

(* "--component mmu" matches every numbered instance ("mmu", "mmu1",
   ...); an exact instance name still selects just it. *)
let component_matches c name =
  let rec base i =
    if i > 0 && name.[i - 1] >= '0' && name.[i - 1] <= '9' then base (i - 1)
    else i
  in
  name = c || String.sub name 0 (base (String.length name)) = c

let run_cmd =
  let workload_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
  in
  let mode =
    Arg.(
      value
      & opt mode_conv Vmht_eval.Common.Vm
      & info [ "mode" ] ~doc:"Execution style: sw, vm or dma.")
  in
  let size = Arg.(value & opt (some int) None & info [ "size" ]) in
  let tlb = Arg.(value & opt (some int) None & info [ "tlb" ]) in
  let tlb2 =
    Arg.(
      value
      & opt (some int) None
      & info [ "tlb2" ] ~docv:"ENTRIES"
          ~doc:
            "Enable the SoC-shared second-level TLB with $(docv) entries \
             (4-way, LRU, 2-cycle probe).")
  in
  let walk_cache =
    Arg.(
      value
      & opt (some int) None
      & info [ "walk-cache" ] ~docv:"ENTRIES"
          ~doc:
            "Give each MMU's walker a $(docv)-slot page-walk cache (0 \
             disables).")
  in
  let page_shift = Arg.(value & opt (some int) None & info [ "page-shift" ]) in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print the full system report.")
  in
  let trace_n =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace" ] ~docv:"N"
          ~doc:
            "Record the system trace and print its first $(docv) events \
             (after $(b,--component)/$(b,--kind)), with the number the \
             trace ring dropped.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Record the system trace and write its events (after \
             $(b,--component)/$(b,--kind)) as Chrome-trace JSON (load in \
             Perfetto or chrome://tracing) to $(docv).")
  in
  let component =
    Arg.(
      value
      & opt (some string) None
      & info [ "component" ] ~docv:"NAME"
          ~doc:
            "Keep only trace events from this component (bus, mmu, dram, \
             dma, ...); a base name matches every numbered instance.")
  in
  let kind =
    Arg.(
      value
      & opt (some string) None
      & info [ "kind" ] ~docv:"TAG"
          ~doc:
            "Keep only trace events of this kind (tlb_miss, bus_txn, \
             page_fault, ...); a tag no event carries is refused with the \
             list of tags.")
  in
  let metrics_json =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:
            "Emit the machine-readable report (phase attribution, the \
             SoC's counters, gauges and duration histograms) as JSON: with \
             no argument on stdout, replacing the usual summary; with \
             $(docv), written there alongside it.")
  in
  let pipeline =
    Arg.(value & flag & info [ "pipeline" ] ~doc:"Modulo-schedule inner loops.")
  in
  let spans_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "spans-out" ] ~docv:"FILE"
          ~doc:
            "Record causal host-time spans (parse, passes, schedule, emit, \
             simulate) and write them as Chrome-trace JSON to $(docv).")
  in
  let unroll =
    Arg.(value & opt int 1 & info [ "unroll" ] ~doc:"Loop unroll factor.")
  in
  let action wname mode size tlb tlb2 walk_cache page_shift stats trace_n
      trace_out component kind metrics_json spans_out pipeline unroll banks
      backend opt_level passes =
    match Vmht_workloads.Registry.find wname with
    | exception Not_found ->
      Printf.eprintf "unknown workload '%s' (try: vmht list)\n" wname;
      1
    | _ when backend = Vmht.Config.Rtl && pipeline ->
      (* The emitted FSM is unpipelined; fail up front rather than from
         the middle of a launch. *)
      Printf.eprintf
        "--backend rtl does not support --pipeline (the emitted FSM is \
         unpipelined)\n";
      1
    | _ when (match trace_n with Some n -> n < 0 | None -> false) ->
      Printf.eprintf "error: --trace takes a count of events, not %d\n"
        (Option.get trace_n);
      1
    | _
      when match kind with
           | Some k -> not (List.mem k Vmht_obs.Event.labels)
           | None -> false ->
      Printf.eprintf "error: --kind takes one of %s, not %s\n"
        (String.concat ", " Vmht_obs.Event.labels)
        (Option.get kind);
      1
    | w ->
      let size =
        Option.value ~default:w.Vmht_workloads.Workload.default_size size
      in
      let observe =
        Option.is_some trace_n || Option.is_some trace_out
        || Option.is_some metrics_json
      in
      let enable_tlb2 config entries =
        Vmht.Config.with_tlb2 config
          {
            Vmht_vm.Tlb2.default_config with
            Vmht_vm.Tlb2.enabled = true;
            entries;
          }
      in
      if Option.is_some spans_out then Vmht_obs.Span.enable true;
      (* The flags onto the config, then [Common.run] builds the SoC and
         the workload instance and runs it, all under {!checked}, so a
         bad geometry flag is exit 1 wherever the library rejects it. *)
      checked (fun () ->
          let config = config_with_opt Vmht.Config.default opt_level passes in
          let config = Vmht.Config.with_backend config backend in
          let config = Vmht.Config.with_unroll config unroll in
          let config = Vmht.Config.with_banks config banks in
          let config = Vmht.Config.with_pipelining config pipeline in
          let config =
            config
            |> if_some Vmht.Config.with_tlb_entries tlb
            |> if_some Vmht.Config.with_page_shift page_shift
            |> if_some enable_tlb2 tlb2
            |> if_some Vmht.Config.with_walk_cache walk_cache
          in
          Vmht_eval.Common.run ~config ~observe mode w ~size)
      @@ fun o ->
      let r = o.Vmht_eval.Common.result in
      let soc = o.Vmht_eval.Common.soc in
      let ring = Vmht.Soc.trace soc in
      let keep (e : Vmht_obs.Event.t) =
        (match component with
         | Some c -> component_matches c e.Vmht_obs.Event.component
         | None -> true)
        &&
        match kind with
        | Some k -> Vmht_obs.Event.label e.Vmht_obs.Event.kind = k
        | None -> true
      in
      let events = List.filter keep (Vmht_sim.Trace.events ring) in
      let n_events = List.length events in
      if
        (Option.is_some component || Option.is_some kind)
        && events = []
        && Vmht_sim.Trace.count ring > 0
      then
        Printf.eprintf
          "no events matched the filter (check --component/--kind against \
           the unfiltered dump)\n";
      let trace_ok =
        match trace_out with
        | Some path ->
          write_json "trace" path
            (Vmht_obs.Chrome_trace.to_json ~pid:(Vmht.Soc.id soc) events)
        | None -> true
      in
      let spans_ok =
        match spans_out with Some path -> write_spans path | None -> true
      in
      let report () =
        Vmht.Report.gather soc ~workload:wname
          ~mode:(Vmht_eval.Common.mode_name mode)
          ~size r
      in
      let metrics_ok =
        match metrics_json with
        | Some path when path <> "-" ->
          write_json "metrics" path (Vmht.Report.to_json (report ()))
        | Some _ | None -> true
      in
      if metrics_json = Some "-" then
        (* Machine-readable mode: the report JSON is the only stdout. *)
        print_endline
          (Vmht_obs.Json.to_string_pretty (Vmht.Report.to_json (report ())))
      else begin
        Printf.printf "%s / %s / size %d: %s cycles (%s)\n" wname
          (Vmht_eval.Common.mode_name mode)
          size
          (Vmht_util.Table.fmt_int r.Vmht.Launch.total_cycles)
          (if o.Vmht_eval.Common.correct then "correct" else "WRONG RESULT");
        Printf.printf "  phases: stage=%d compute=%d drain=%d\n"
          r.Vmht.Launch.phases.Vmht.Launch.stage_cycles
          r.Vmht.Launch.phases.Vmht.Launch.compute_cycles
          r.Vmht.Launch.phases.Vmht.Launch.drain_cycles;
        (match r.Vmht.Launch.mmu_stats with
         | Some s ->
           Printf.printf
             "  mmu: %d accesses, %d hits, %d misses, %d faults, hit rate \
              %.3f\n"
             s.Vmht_vm.Mmu.accesses s.Vmht_vm.Mmu.tlb_hits
             s.Vmht_vm.Mmu.tlb_misses s.Vmht_vm.Mmu.page_faults
             (Option.value ~default:0. r.Vmht.Launch.tlb_hit_rate)
         | None -> ());
        (match trace_out with
         | Some path when trace_ok ->
           Printf.printf "  trace written to %s (%d events)\n" path n_events
         | _ -> ());
        (match spans_out with
         | Some path when spans_ok ->
           Printf.printf "  spans written to %s\n" path
         | _ -> ());
        (match metrics_json with
         | Some path when path <> "-" && metrics_ok ->
           Printf.printf "  metrics written to %s\n" path
         | _ -> ());
        (match trace_n with
         | Some n ->
           Printf.printf "  trace (%d of %d events, %d dropped by the ring):\n"
             (min n n_events) n_events
             (Vmht_sim.Trace.dropped ring);
           List.iteri
             (fun i e ->
               if i < n then
                 Printf.printf "    %s\n" (Vmht_obs.Event.to_string e))
             events
         | None -> ());
        if stats then begin
          print_newline ();
          print_string (Vmht.Report.to_string (report ()))
        end
      end;
      if not o.Vmht_eval.Common.correct then 1
      else if not (trace_ok && metrics_ok && spans_ok) then exit_write_failed
      else 0
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a benchmark workload on the simulated SoC.")
    Term.(
      const action $ workload_arg $ mode $ size $ tlb $ tlb2 $ walk_cache
      $ page_shift $ stats $ trace_n $ trace_out $ component $ kind
      $ metrics_json $ spans_out $ pipeline $ unroll $ banks_arg $ backend_arg
      $ opt_level_arg $ passes_arg)

(* ------------------------- system --------------------------------- *)

let device_conv =
  Arg.enum [ ("7020", Vmht.Sysgen.zynq_7020); ("7045", Vmht.Sysgen.zynq_7045) ]

let system_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let iface =
    Arg.(
      value
      & opt iface_conv Vmht.Wrapper.Vm_iface
      & info [ "iface" ] ~doc:"Interface wrapper style: vm or dma.")
  in
  let copies =
    Arg.(
      value & opt int 1
      & info [ "copies" ] ~doc:"Instances of each kernel to place.")
  in
  let device =
    Arg.(
      value
      & opt device_conv Vmht.Sysgen.zynq_7020
      & info [ "device" ] ~doc:"Target device: 7020 or 7045.")
  in
  let emit_top =
    Arg.(value & flag & info [ "top" ] ~doc:"Print the system-top RTL stub.")
  in
  let action file iface copies device emit_top =
    at_least ~flag:"--copies" 1 copies @@ fun () ->
    with_program file (fun program ->
        let config = Vmht.Config.default in
        let threads =
          List.map
            (fun kernel ->
              ( Vmht.Flow.run_exn
                  (Vmht.Flow.Request.of_kernel ~config ~style:iface kernel),
                copies ))
            program
        in
        let design = Vmht.Sysgen.compose ~device threads in
        print_string (Vmht.Sysgen.summary design);
        if emit_top then begin
          print_newline ();
          print_string (Vmht.Sysgen.top_verilog design)
        end)
  in
  Cmd.v
    (Cmd.info "system"
       ~doc:
         "Compose every kernel of a file into a full SoC design and check           it against a device budget.")
    Term.(const action $ file $ iface $ copies $ device $ emit_top)

(* ------------------------- bench ---------------------------------- *)

(* [vmht bench] and [vmht perf snapshot] both regenerate the
   evaluation; they share the set-up, the manifest rows, the result
   check and the manifest writer below. *)

let eval_jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domain-pool width for experiment sweeps (default: the \
           machine's recommended domain count; 1 = sequential).  \
           Output is byte-identical at any width.")

(* Set the pool width and zero the pass totals the manifest reads. *)
let start_eval jobs =
  Vmht_par.Parmap.set_jobs jobs;
  Vmht_ir.Pass_manager.reset_totals ()

(* One manifest row: an experiment's wall time, its output size, and
   the ledger of every run inside it. *)
type row = {
  name : string;
  seconds : float;
  ledger : Vmht_eval.Common.ledger;
  output_bytes : int;
}

let timed name f =
  let t0 = Unix.gettimeofday () in
  let out, ledger = Vmht_eval.Common.with_ledger f in
  let seconds = Unix.gettimeofday () -. t0 in
  (out, { name; seconds; ledger; output_bytes = String.length out })

(* Every run checks its outputs against the workload's reference; a
   wrong answer is printed and fails the command. *)
let check_results rows code =
  match
    List.concat_map (fun r -> r.ledger.Vmht_eval.Common.mismatches) rows
  with
  | [] -> ([], code)
  | bad ->
    Printf.eprintf "result mismatches in %d run(s):\n" (List.length bad);
    List.iter (Printf.eprintf "  %s\n") bad;
    (bad, max code 1)

(* The commit the manifest was taken at, read straight from .git (no
   subprocess): HEAD is either a hash or a "ref: ..." pointer into
   refs/ or packed-refs. *)
let git_rev () =
  let read path =
    try
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Some (String.trim s)
    with Sys_error _ | End_of_file -> None
  in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head when not (String.length head > 5 && String.sub head 0 5 = "ref: ")
    -> head
  | Some head -> (
    let ref_name = String.trim (String.sub head 5 (String.length head - 5)) in
    match read (".git/" ^ ref_name) with
    | Some hash -> hash
    | None -> (
      match read ".git/packed-refs" with
      | None -> "unknown"
      | Some packed -> (
        let lines = String.split_on_char '\n' packed in
        let matching =
          List.find_opt
            (fun line ->
              match String.index_opt line ' ' with
              | Some i ->
                String.sub line (i + 1) (String.length line - i - 1) = ref_name
              | None -> false)
            lines
        in
        match matching with
        | Some line -> String.sub line 0 (String.index line ' ')
        | None -> "unknown")))

(* The bench manifest, vmht-bench/4, minus the "micro" section only
   [vmht perf snapshot] appends.  It reads the process-wide synthesis
   and pass totals, so build it before running anything that is not
   part of the record. *)
let manifest_fields ~config ~sched ~rows ~total_seconds ~mismatches ~code =
  let module Json = Vmht_obs.Json in
  let row r =
    let runs = r.ledger.Vmht_eval.Common.runs in
    Json.Obj
      [
        ("name", Json.String r.name);
        (* Experiments that execute nothing (area and synthesis-time
           studies) have no per-run timing; the explicit kind tells the
           perf gate that their missing ns_per_run is intentional, not a
           silently dropped metric. *)
        ("kind", Json.String (if runs = 0 then "synthesis" else "run"));
        ("seconds", Json.Float r.seconds);
        ("runs", Json.Int runs);
        ( "ns_per_run",
          if runs = 0 then Json.Null
          else Json.Float (r.seconds *. 1e9 /. float_of_int runs) );
        ( "counts",
          Json.Obj
            (List.map
               (fun (k, v) -> (k, Json.Int v))
               r.ledger.Vmht_eval.Common.counts) );
        ("output_bytes", Json.Int r.output_bytes);
      ]
  in
  let cache = Vmht.Flow.cache_stats () in
  [
    ("schema", Json.String "vmht-bench/4");
    ("git_rev", Json.String (git_rev ()));
    ("build_profile", Json.String Build_info.profile);
    ("jobs", Json.Int (Vmht_par.Parmap.jobs ()));
    ("seed", Json.Int config.Vmht.Config.seed);
    ("fault", Json.String (Vmht_fault.Plan.to_string config.Vmht.Config.fault));
    ("experiments", Json.List (List.map row rows));
    ("total_seconds", Json.Float total_seconds);
    ( "synthesis_cache",
      Json.Obj
        [
          ("hits", Json.Int cache.Vmht.Flow.cache_hits);
          ("misses", Json.Int cache.Vmht.Flow.cache_misses);
          ("entries", Json.Int cache.Vmht.Flow.cache_entries);
        ] );
    ( "passes",
      Json.Obj
        [
          ("schedule", Json.String sched.Vmht_ir.Pass_manager.sname);
          ( "order",
            Json.List
              (List.map
                 (fun (p : Vmht_ir.Pass.t) -> Json.String p.Vmht_ir.Pass.name)
                 sched.Vmht_ir.Pass_manager.passes) );
        ] );
    ( "pass_stats",
      Json.List
        (List.map
           (fun (pass, runs, rewrites) ->
             Json.Obj
               [
                 ("pass", Json.String pass);
                 ("runs", Json.Int runs);
                 ("rewrites", Json.Int rewrites);
               ])
           (Vmht_ir.Pass_manager.totals ())) );
    ("mismatches", Json.List (List.map (fun s -> Json.String s) mismatches));
    ("exit_code", Json.Int code);
  ]

let kind_groups =
  Vmht_eval.Experiment.
    [
      ("tables", Table);
      ("figures", Figure);
      ("ablations", Ablation);
      ("sweeps", Sweep);
    ]

let bench_cmd =
  let names =
    Arg.(value & pos_all string [ "all" ] & info [] ~docv:"EXPERIMENT")
  in
  let fault_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "fault-rate" ] ~docv:"R"
          ~doc:
            "Enable fault injection: every fault class fires with \
             per-opportunity probability $(docv).  The robust experiment \
             then sweeps exactly this plan instead of its defaults.")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Base seed for the deterministic fault schedule (and anything \
             else the configuration seeds).")
  in
  let metrics_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:
            "Write the bench manifest (vmht-bench/4: per-experiment wall \
             time and summed run counts, seed, fault plan, pass totals, \
             mismatches) to $(docv); $(b,vmht perf diff) compares two.")
  in
  let spans_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "spans-out" ] ~docv:"FILE"
          ~doc:
            "Record causal host-time spans across the domain pool and \
             write them as Chrome-trace JSON to $(docv): one track per \
             worker, flow arrows from the submitting sweep.")
  in
  let action jobs fault_rate seed metrics_json spans_out opt_level passes names
      =
    let config = Vmht.Config.default in
    let config =
      match seed with
      | Some s -> Vmht.Config.with_seed config s
      | None -> config
    in
    checked (fun () ->
        match fault_rate with
        | Some rate ->
          Vmht.Config.with_fault config (Vmht_fault.Plan.uniform ~rate)
        | None -> config)
    @@ fun config ->
    with_schedule config opt_level passes @@ fun (config, sched) ->
    start_eval
      (Option.value jobs ~default:(Domain.recommended_domain_count ()));
    if Option.is_some spans_out then Vmht_obs.Span.enable true;
    let rows = ref [] in
    let run_timed name f =
      let out, row = timed name f in
      rows := row :: !rows;
      out
    in
    let run_experiment (e : Vmht_eval.Experiment.t) =
      print_string
        (run_timed e.name (fun () -> Vmht_eval.Experiment.run ~config e)
        ^ "\n")
    in
    let run_one = function
      | "all" ->
        print_string
          (run_timed "all" (fun () -> Vmht_eval.Experiment.run_all ~config ()));
        0
      | name -> (
        match Vmht_eval.Experiment.find name with
        | Some e ->
          run_experiment e;
          0
        | None ->
          Printf.eprintf "unknown experiment '%s'\n" name;
          1)
    in
    (* Each experiment runs once, in first-mention order: a group
       stands for its members, and [all] is a row of its own. *)
    let expand name =
      match List.assoc_opt name kind_groups with
      | Some kind ->
        List.map
          (fun (e : Vmht_eval.Experiment.t) -> e.name)
          (Vmht_eval.Experiment.by_kind kind)
      | None -> [ name ]
    in
    let plan =
      List.fold_left
        (fun plan n -> if List.mem n plan then plan else plan @ [ n ])
        [] (List.concat_map expand names)
    in
    let t0 = Unix.gettimeofday () in
    let code = List.fold_left (fun acc n -> max acc (run_one n)) 0 plan in
    let total_seconds = Unix.gettimeofday () -. t0 in
    let rows = List.rev !rows in
    let mismatches, code = check_results rows code in
    let code =
      match spans_out with
      | Some path when not (write_spans path) -> max code exit_write_failed
      | _ -> code
    in
    match metrics_json with
    | None -> code
    | Some path ->
      if
        write_json "manifest" path
          (Vmht_obs.Json.Obj
             (manifest_fields ~config ~sched ~rows ~total_seconds ~mismatches
                ~code))
      then code
      else max code exit_write_failed
  in
  let man =
    `S Manpage.s_description
    :: `P
         "Run the named experiments, the groups $(b,tables), \
          $(b,figures), $(b,ablations) and $(b,sweeps), or $(b,all), and \
          print their rendered tables and figures.  Each experiment runs \
          once, in the order first named.  Experiments (from the \
          registry):"
    :: List.map
         (fun (e : Vmht_eval.Experiment.t) ->
           `P
             (Printf.sprintf "$(b,%s) (%s) — %s" e.Vmht_eval.Experiment.name
                (Vmht_eval.Experiment.kind_name e.Vmht_eval.Experiment.kind)
                e.Vmht_eval.Experiment.doc))
         Vmht_eval.Experiment.all
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Regenerate evaluation tables and figures." ~man)
    Term.(
      const action $ eval_jobs_arg $ fault_rate $ seed $ metrics_json
      $ spans_out $ opt_level_arg $ passes_arg $ names)

(* ------------------------- serve / loadgen ------------------------ *)

(* Both service commands share the store plumbing: open (or skip) the
   persistent content-addressed store, install it into the flow so
   every synthesis in this process reads and writes through it. *)

let store_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store-dir" ] ~docv:"DIR"
        ~doc:
          "Persistent synthesis store directory (default: \
           $(b,VMHT_STORE_DIR), else $(b,XDG_CACHE_HOME)/vmht/store, else \
           ~/.cache/vmht/store).")

let no_store_arg =
  Arg.(
    value & flag
    & info [ "no-store" ] ~doc:"Run without the persistent synthesis store.")

let serve_jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domain-pool width the server runs each batch on.  Output is \
           byte-identical at any width.")

let open_store store_dir no_store =
  if no_store then Ok None
  else
    match Vmht_serve.Store.open_ ?dir:store_dir () with
    | Ok s ->
      Vmht_serve.Store.install s;
      Ok (Some s)
    | Error e -> Error e

let store_error err =
  Printf.eprintf "error: %s\n" (Vmht.Flow.error_to_string err);
  exit_write_failed

let loadgen_cmd =
  let requests =
    Arg.(
      value & opt int 120
      & info [ "requests" ] ~docv:"N" ~doc:"Requests in the batch.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S" ~doc:"Seed for the request mix.")
  in
  let metrics_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:
            "Write the timing-bearing manifest (throughput, latency \
             quantiles, store hit rate) to $(docv).")
  in
  let require_hit_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "require-hit-rate" ] ~docv:"R"
          ~doc:
            "Fail (exit 1) unless the store hit rate over this batch's \
             synthesis keys reaches $(docv) — the CI warm-store gate.")
  in
  let action requests seed store_dir no_store jobs metrics_json
      require_hit_rate =
    at_least ~flag:"--requests" 0 requests @@ fun () ->
    match open_store store_dir no_store with
    | Error e -> store_error e
    | Ok store ->
      Vmht_par.Parmap.set_jobs jobs;
      let server =
        Vmht_serve.Server.create ?store ~handle:Vmht_eval.Loadgen.handle ()
      in
      let config = Vmht.Config.with_seed Vmht.Config.default seed in
      let reqs = Vmht_eval.Loadgen.mix ~config ~requests ~seed in
      let report = Vmht_eval.Loadgen.run ?store ~server ~seed reqs in
      print_string report.Vmht_eval.Loadgen.output;
      prerr_string report.Vmht_eval.Loadgen.perf_line;
      let metrics_ok =
        match metrics_json with
        | None -> true
        | Some path ->
          write_json "manifest" path report.Vmht_eval.Loadgen.manifest
      in
      let hit_rate_ok =
        match require_hit_rate with
        | None -> true
        | Some r ->
          let ok = report.Vmht_eval.Loadgen.hit_rate >= r in
          if not ok then
            Printf.eprintf "store hit rate %.2f below required %.2f\n"
              report.Vmht_eval.Loadgen.hit_rate r;
          ok
      in
      if report.Vmht_eval.Loadgen.failures > 0 || not hit_rate_ok then 1
      else if not metrics_ok then exit_write_failed
      else 0
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a seeded synthesis/execution request mix through the batch \
          server and report throughput, latency and store hit rate.")
    Term.(
      const action $ requests $ seed $ store_dir_arg $ no_store_arg
      $ serve_jobs_arg $ metrics_json $ require_hit_rate)

let serve_cmd =
  let action store_dir no_store jobs =
    match open_store store_dir no_store with
    | Error e -> store_error e
    | Ok store ->
      Vmht_par.Parmap.set_jobs jobs;
      let server =
        Vmht_serve.Server.create ?store ~handle:Vmht_eval.Loadgen.handle ()
      in
      let module J = Vmht_obs.Json in
      let next_rid = ref 0 in
      let batch = ref [] in
      (* Requests rejected at parse time still get a reply line, held
         back so each flushed batch prints in request order. *)
      let prefailed = ref [] in
      let worst = ref 0 in
      let reply_line (rid, status, result) =
        print_endline
          (J.to_string
             (J.Obj
                [
                  ("rid", J.Int rid);
                  ("status", J.String status);
                  ("result", J.String result);
                ]))
      in
      let flush_batch () =
        let served =
          match List.rev !batch with
          | [] -> []
          | reqs ->
            List.map
              (fun (reply : Vmht_serve.Proto.reply) ->
                match reply.Vmht_serve.Proto.outcome with
                | Vmht_serve.Proto.Failed msg ->
                  worst := max !worst 1;
                  (reply.Vmht_serve.Proto.rid, "failed", msg)
                | outcome ->
                  ( reply.Vmht_serve.Proto.rid,
                    "ok",
                    Vmht_serve.Proto.outcome_to_string outcome ))
              (Vmht_serve.Server.run_batch server reqs)
        in
        List.iter reply_line
          (List.sort compare (List.rev_append !prefailed served));
        batch := [];
        prefailed := [];
        flush stdout
      in
      (try
         while true do
           let line = input_line stdin in
           if String.trim line = "" then flush_batch ()
           else begin
             let rid = !next_rid in
             incr next_rid;
             match Vmht_serve.Proto.job_of_line line with
             | Ok job ->
               batch := { Vmht_serve.Proto.rid; deadline_ms = None; job } :: !batch
             | Error (`Frontend msg) ->
               worst := max !worst exit_frontend;
               prefailed := (rid, "failed", msg) :: !prefailed
             | Error (`Request msg) ->
               worst := max !worst 1;
               prefailed := (rid, "failed", msg) :: !prefailed
           end
         done
       with End_of_file -> flush_batch ());
      !worst
  in
  let man =
    [
      `S "REQUEST KEYS";
      `P
        "Each request line is one JSON object.  A key its op does not take, \
         a value of the wrong type or an unknown value fails the line with \
         a message naming the key.  So does a key given twice, whichever \
         value it repeats.";
      `I ("$(b,op)", "\"synth\" or \"run\"; required.");
      `I
        ( "$(b,workload)",
          "A registry workload ($(b,vmht list)); required by run, and by \
           synth without $(b,source)." );
      `I
        ( "$(b,source), $(b,name)",
          "synth only: kernel source text, and which of its kernels to \
           synthesize (default: the first)." );
      `I ("$(b,style)", "synth only: \"vm\" (default) or \"dma\".");
      `I ("$(b,mode)", "run only: \"sw\", \"vm\" (default) or \"dma\".");
      `I
        ( "$(b,size)",
          "run only: an integer of at least 1 (default: the workload's \
           size)." );
      `I
        ( "$(b,unroll), $(b,opt), $(b,tlb)",
          "Integers: loop unroll factor, optimization level, and entries \
           of the VM wrapper's TLB." );
    ]
  in
  Cmd.v
    (Cmd.info "serve" ~man
       ~doc:
         "Batch synthesis server: JSON-line requests on stdin (a blank line \
          or EOF flushes a batch), JSON-line replies in request order on \
          stdout, deduplicated against the persistent store.")
    Term.(
      const action $ store_dir_arg $ no_store_arg $ serve_jobs_arg)

(* ------------------------- profile -------------------------------- *)

let profile_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Domain-pool width while profiling (default 1).")
  in
  let seed = Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"S") in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the profile as JSON to $(docv).")
  in
  let action name jobs seed json_out =
    match Vmht_eval.Experiment.find name with
    | None ->
      Printf.eprintf "unknown experiment '%s'\n" name;
      1
    | Some e ->
      Vmht_par.Parmap.set_jobs jobs;
      let config = Vmht.Config.default in
      let config =
        match seed with
        | Some s -> Vmht.Config.with_seed config s
        | None -> config
      in
      (* Enable before any engine exists: the profiling hook is bound
         at [Engine.create]. *)
      Vmht_obs.Profile.enable true;
      ignore (Vmht_eval.Experiment.run ~config e : string);
      let t = Vmht_obs.Profile.totals () in
      Printf.printf "profile: %s\n%s" name (Vmht_obs.Profile.render t);
      let exact =
        Vmht_obs.Profile.cycle_sum t = t.Vmht_obs.Profile.engine_cycles
      in
      Printf.printf "  cycle attribution %s (phases %d, engines %d)\n"
        (if exact then "sums exactly to the engine total" else "MISMATCH")
        (Vmht_obs.Profile.cycle_sum t)
        t.Vmht_obs.Profile.engine_cycles;
      let json_ok =
        match json_out with
        | None -> true
        | Some path ->
          let ok = write_json "profile" path (Vmht_obs.Profile.to_json t) in
          if ok then Printf.printf "  profile written to %s\n" path;
          ok
      in
      if not exact then 1 else if not json_ok then exit_write_failed else 0
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run an experiment under the simulator phase profiler and report \
          where simulated cycles and host time go (dispatch, actor, \
          memory, translate).")
    Term.(const action $ name_arg $ jobs $ seed $ json_out)

(* ------------------------- perf ----------------------------------- *)

let perf_diff_cmd =
  let old_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD.json")
  in
  let new_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW.json")
  in
  (* A percentage the comparison can hold to: nan and inf pass any
     growth, and a negative bound fails a manifest against itself. *)
  let percent =
    let parse s =
      match float_of_string_opt s with
      | Some v when Float.is_finite v && v >= 0. -> Ok v
      | _ ->
        Error
          (`Msg
            (Printf.sprintf
               "invalid value '%s', expected a finite percentage >= 0" s))
    in
    Arg.conv ~docv:"PCT" (parse, fun ppf v -> Format.fprintf ppf "%g" v)
  in
  let threshold =
    Arg.(
      value & opt percent 10.
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:
            "Flag a host-time metric as regressed when it grows by at \
             least $(docv) percent (default 10).  Counts are held \
             exact whatever $(docv) is.")
  in
  let warn_only =
    Arg.(
      value & flag
      & info [ "warn-only" ]
          ~doc:
            "Report host-time regressions but exit 0 anyway (for noisy \
             shared runners).  A moved count, or a metric of $(i,OLD) \
             missing from $(i,NEW), still fails.")
  in
  let action old_path new_path threshold warn_only =
    let read_manifest path =
      match Vmht_obs.Json.of_string (read_file path) with
      | v ->
        Result.map_error (Printf.sprintf "%s: %s" path)
          (Vmht_obs.Perf_diff.check_manifest v)
      | exception Sys_error msg -> Error msg
      | exception Vmht_obs.Json.Parse_error msg ->
        Error (Printf.sprintf "%s: %s" path msg)
    in
    match (read_manifest old_path, read_manifest new_path) with
    | Error msg, _ | _, Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit_frontend
    | Ok old_manifest, Ok new_manifest ->
      let report =
        Vmht_obs.Perf_diff.diff ~threshold ~old_manifest ~new_manifest ()
      in
      print_string (Vmht_obs.Perf_diff.render ~threshold report);
      if
        (not (Vmht_obs.Perf_diff.complete report))
        || report.Vmht_obs.Perf_diff.moved <> []
      then 1
      else if report.Vmht_obs.Perf_diff.regressions = [] then 0
      else if warn_only then begin
        print_endline "(warn-only: not failing)";
        0
      end
      else 1
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two bench manifests and fail when a host-time metric \
          regressed past the threshold, a count moved, or a metric is \
          missing from $(i,NEW).")
    Term.(const action $ old_arg $ new_arg $ threshold $ warn_only)

let perf_micro_cmd =
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"NAME"
          ~doc:"Run only targets whose name contains some $(docv).")
  in
  let action names =
    match Micro.select names with
    | [] ->
      Printf.eprintf "no micro target matches %s\n" (String.concat ", " names);
      1
    | selected ->
      Micro.print (Micro.estimates selected);
      0
  in
  Cmd.v
    (Cmd.info "micro"
       ~doc:
         "Run the Bechamel micro-benchmarks and print ns per run for \
          each target.")
    Term.(const action $ names)

let perf_snapshot_cmd =
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the snapshot to $(docv) as a bench manifest with a \
             $(b,micro) section (the committed BENCH_eval.json is one).")
  in
  let action json =
    start_eval 1;
    let config = Vmht.Config.default in
    let sched = Vmht.Config.schedule config in
    Printf.printf "perf: %d experiments\n%!"
      (List.length Vmht_eval.Experiment.all);
    let t0 = Unix.gettimeofday () in
    let rows =
      List.map
        (fun (e : Vmht_eval.Experiment.t) ->
          let _, row =
            timed e.name (fun () -> Vmht_eval.Experiment.run ~config e)
          in
          Printf.printf "  %-8s %8.3f s  (%d bytes)\n%!" row.name row.seconds
            row.output_bytes;
          row)
        Vmht_eval.Experiment.all
    in
    let total_seconds = Unix.gettimeofday () -. t0 in
    Printf.printf "total: %.3f s\n%!" total_seconds;
    let mismatches, code = check_results rows 0 in
    (* Before the micro targets, which synthesize and simulate too. *)
    let fields =
      manifest_fields ~config ~sched ~rows ~total_seconds ~mismatches ~code
    in
    let micro = Micro.estimates Micro.targets in
    Micro.print micro;
    match json with
    | None -> code
    | Some path ->
      if
        write_json "manifest" path
          (Vmht_obs.Json.Obj (fields @ [ ("micro", Micro.to_json micro) ]))
      then begin
        Printf.printf "wrote %s\n" path;
        code
      end
      else max code exit_write_failed
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "Time every experiment, one at a time on one domain under the \
          default configuration, then every micro-benchmark: the perf \
          gate's input.  Fails on any wrong result.")
    Term.(const action $ json)

let perf_cmd =
  Cmd.group
    (Cmd.info "perf"
       ~doc:
         "Performance tooling: micro-benchmarks, the evaluation snapshot \
          and the manifest regression gate.")
    [ perf_micro_cmd; perf_snapshot_cmd; perf_diff_cmd ]

(* ------------------------- dse ------------------------------------ *)

let dse_cmd =
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Domain-pool width for the sweep (default: the machine's \
             recommended domain count; 1 = sequential).  Output is \
             byte-identical at any width.")
  in
  let size =
    Arg.(
      value
      & opt int Vmht_eval.Dse.default_size
      & info [ "size" ] ~docv:"N" ~doc:"Elements per kernel run.")
  in
  let kernels =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "kernels" ] ~docv:"K1,K2"
          ~doc:"Kernels to explore (default: vecadd,saxpy,dotprod,stencil3).")
  in
  let axis_arg name doc =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ name ] ~docv:"N1,N2" ~doc)
  in
  let unrolls = axis_arg "unrolls" "Unroll factors to sweep (default: 1,2,4)." in
  let banks = axis_arg "bank-counts" "Bank counts to sweep (default: 1,2,4)." in
  let opts = axis_arg "opts" "Optimization levels to sweep (default: 0,2)." in
  let tlbs = axis_arg "tlbs" "TLB entry counts to sweep (default: 8,32)." in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write the full grid (every point, front flags included) \
             as a vmht-dse/1 manifest to $(docv).")
  in
  let action jobs size kernels unrolls banks opts tlbs json_out =
    Vmht_par.Parmap.set_jobs
      (match jobs with
       | Some n -> n
       | None -> Domain.recommended_domain_count ());
    let kernels =
      Option.value ~default:Vmht_eval.Dse.default_kernels kernels
    in
    let unknown =
      List.filter
        (fun k -> not (List.mem k Vmht_workloads.Registry.names))
        kernels
    in
    if unknown <> [] then begin
      Printf.eprintf "unknown kernel(s): %s\n" (String.concat ", " unknown);
      1
    end
    else begin
      let d = Vmht_eval.Dse.default_axes in
      let pick v dflt = Option.value ~default:dflt v in
      let axes =
        {
          Vmht_eval.Dse.unrolls = pick unrolls d.Vmht_eval.Dse.unrolls;
          Vmht_eval.Dse.banks = pick banks d.Vmht_eval.Dse.banks;
          Vmht_eval.Dse.opts = pick opts d.Vmht_eval.Dse.opts;
          Vmht_eval.Dse.tlbs = pick tlbs d.Vmht_eval.Dse.tlbs;
        }
      in
      checked (fun () ->
          Vmht_eval.Dse.explore ~size ~axes ~kernels Vmht.Config.default)
      @@ fun points ->
      print_string (Vmht_eval.Dse.render ~size points);
      print_newline ();
      match json_out with
      | None -> 0
      | Some path ->
        if write_json "manifest" path (Vmht_eval.Dse.manifest ~size points)
        then 0
        else exit_write_failed
    end
  in
  Cmd.v
    (Cmd.info "dse"
       ~doc:
         "Explore the unroll x banks x opt-level x TLB design space over \
          the domain pool and report each kernel's Pareto front over \
          cycles vs LUT area.")
    Term.(
      const action $ jobs $ size $ kernels $ unrolls $ banks $ opts $ tlbs
      $ json_out)

(* ------------------------- passes --------------------------------- *)

let passes_cmd =
  let action () =
    print_endline "passes:";
    List.iter
      (fun (p : Vmht_ir.Pass.t) ->
        Printf.printf "  %-16s %-8s %s\n" p.Vmht_ir.Pass.name
          (Vmht_ir.Pass.kind_name p.Vmht_ir.Pass.kind)
          p.Vmht_ir.Pass.doc)
      Vmht_ir.Pass.all;
    print_endline "presets:";
    List.iter
      (fun (s : Vmht_ir.Pass_manager.schedule) ->
        Printf.printf "  -%-4s %s\n" s.Vmht_ir.Pass_manager.sname
          (match s.Vmht_ir.Pass_manager.passes with
           | [] -> "(none)"
           | ps ->
             String.concat ", "
               (List.map (fun (p : Vmht_ir.Pass.t) -> p.Vmht_ir.Pass.name) ps)))
      [
        Vmht_ir.Pass_manager.o0;
        Vmht_ir.Pass_manager.o1;
        Vmht_ir.Pass_manager.o2;
      ];
    0
  in
  Cmd.v
    (Cmd.info "passes"
       ~doc:
         "List the registered optimization passes and the -O0/-O1/-O2           preset schedules.")
    Term.(const action $ const ())

(* ------------------------- list ----------------------------------- *)

let list_cmd =
  let action () =
    print_endline "workloads:";
    List.iter
      (fun (w : Vmht_workloads.Workload.t) ->
        Printf.printf "  %-12s %s\n" w.Vmht_workloads.Workload.name
          w.Vmht_workloads.Workload.description)
      Vmht_workloads.Registry.all;
    print_endline "experiments:";
    List.iter
      (fun (e : Vmht_eval.Experiment.t) ->
        Printf.printf "  %-8s %-9s %s\n" e.Vmht_eval.Experiment.name
          (Vmht_eval.Experiment.kind_name e.Vmht_eval.Experiment.kind)
          e.Vmht_eval.Experiment.doc)
      Vmht_eval.Experiment.all;
    0
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List workloads and experiments.")
    Term.(const action $ const ())

let () =
  let doc = "system-level synthesis for virtual-memory-enabled hardware threads" in
  let info = Cmd.info "vmht" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            compile_cmd;
            synth_cmd;
            run_cmd;
            system_cmd;
            bench_cmd;
            serve_cmd;
            loadgen_cmd;
            profile_cmd;
            perf_cmd;
            dse_cmd;
            passes_cmd;
            list_cmd;
          ]))
