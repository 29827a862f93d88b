open Vmht_sim

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* --------------------- Event_queue -------------------------------- *)

let test_queue_order () =
  let q = Event_queue.create () in
  Event_queue.push q ~at:5 "c";
  Event_queue.push q ~at:1 "a";
  Event_queue.push q ~at:3 "b";
  let pop () =
    match Event_queue.pop q with Some (_, v) -> v | None -> "?"
  in
  (* Bind each pop explicitly: list literals evaluate right-to-left. *)
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ]
    [ first; second; third ]

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  List.iter (fun v -> Event_queue.push q ~at:7 v) [ 1; 2; 3; 4; 5 ];
  let rec drain acc =
    match Event_queue.pop q with
    | Some (_, v) -> drain (v :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list int)) "ties pop FIFO" [ 1; 2; 3; 4; 5 ] (drain [])

let test_queue_interleaved () =
  let q = Event_queue.create () in
  for i = 0 to 99 do
    Event_queue.push q ~at:(i * 17 mod 31) i
  done;
  let last = ref (-1) in
  let count = ref 0 in
  let rec drain () =
    match Event_queue.pop q with
    | Some (at, _) ->
      check_bool "non-decreasing" true (at >= !last);
      last := at;
      incr count;
      drain ()
    | None -> ()
  in
  drain ();
  check_int "all popped" 100 !count

(* --------------------- Engine ------------------------------------- *)

let test_wait_advances_time () =
  let eng = Engine.create () in
  let finished_at = ref (-1) in
  Engine.spawn eng (fun () ->
      Engine.wait_on eng 10;
      Engine.wait_on eng 5;
      finished_at := Engine.now eng);
  Engine.run eng;
  check_int "time advanced" 15 !finished_at

let test_parallel_processes () =
  let eng = Engine.create () in
  let order = ref [] in
  let proc name delay () =
    Engine.wait_on eng delay;
    order := name :: !order
  in
  Engine.spawn eng (proc "slow" 20);
  Engine.spawn eng (proc "fast" 5);
  Engine.spawn eng (proc "mid" 10);
  Engine.run eng;
  Alcotest.(check (list string)) "completion order" [ "fast"; "mid"; "slow" ]
    (List.rev !order)

let test_fork () =
  let eng = Engine.create () in
  let results = ref [] in
  Engine.spawn eng (fun () ->
      Engine.spawn eng (fun () ->
          Engine.wait_on eng 3;
          results := ("child", Engine.now eng) :: !results);
      Engine.wait_on eng 1;
      results := ("parent", Engine.now eng) :: !results);
  Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "parent then child" [ ("parent", 1); ("child", 3) ]
    (List.rev !results)

let test_suspend_resume () =
  let eng = Engine.create () in
  let resumer = ref None in
  let woke_at = ref (-1) in
  Engine.spawn eng (fun () ->
      Engine.suspend (fun resume -> resumer := Some resume);
      woke_at := Engine.now eng);
  Engine.spawn eng (fun () ->
      Engine.wait_on eng 42;
      match !resumer with Some r -> r () | None -> Alcotest.fail "no resumer");
  Engine.run eng;
  check_int "woke at waker's time" 42 !woke_at

let test_double_resume_rejected () =
  let eng = Engine.create () in
  let resumer = ref None in
  Engine.spawn eng (fun () ->
      Engine.suspend (fun resume -> resumer := Some resume));
  Engine.spawn eng (fun () ->
      Engine.wait_on eng 1;
      match !resumer with
      | Some r ->
        r ();
        Alcotest.check_raises "second resume raises"
          (Invalid_argument "Engine.suspend: process resumed twice") r
      | None -> Alcotest.fail "no resumer");
  Engine.run eng

let test_stuck_detection () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      Engine.suspend (fun _resume -> ()));
  check_bool "raises Stuck" true
    (match Engine.run ~check_quiescent:true eng with
     | () -> false
     | exception Engine.Stuck _ -> true)

let test_not_in_process () =
  let raises f =
    match f () with () -> false | exception Engine.Not_in_process -> true
  in
  check_bool "suspend outside process raises" true
    (raises (fun () -> Engine.suspend ignore));
  (* A held handle waits only while its engine runs: not outside any
     run, and not from a process of another engine. *)
  let eng = Engine.create () in
  check_bool "wait_on outside run raises" true
    (raises (fun () -> Engine.wait_on eng 1));
  check_bool "waits_on outside run raises" true
    (raises (fun () -> Engine.waits_on eng [| 1 |]));
  let other = Engine.create () in
  let from_other = ref false in
  Engine.spawn other (fun () ->
      from_other := raises (fun () -> Engine.wait_on eng 1));
  Engine.run other;
  check_bool "wait_on from another engine's process raises" true !from_other;
  check_int "the idle engine's clock did not move" 0 (Engine.now eng)

let test_determinism () =
  let run_once () =
    let eng = Engine.create () in
    let log = Buffer.create 64 in
    for i = 0 to 9 do
      Engine.spawn eng (fun () ->
          Engine.wait_on eng (i * 3 mod 7);
          Buffer.add_string log (Printf.sprintf "%d@%d;" i (Engine.now eng)))
    done;
    Engine.run eng;
    Buffer.contents log
  in
  Alcotest.(check string) "identical runs" (run_once ()) (run_once ())

(* Where a process performs effects.  [counting effects body] runs
   [body] under a handler that counts every effect it performs and
   forwards it ([None]) to the engine's own handler, so the process
   behaves exactly as without it.  Only a wait some queued event must
   precede, and a suspend, may yield; fast-forwarded waits, [now] and
   [spawn] are plain calls.  A timing gate cannot tell whether the fast
   path still avoids the effect; this count can. *)
let counting effects body () =
  Effect.Deep.match_with body ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (_ : a Effect.t) ->
          incr effects;
          None);
    }

let waits_then_spawn eng ended () =
  for _ = 1 to 1000 do
    Engine.wait_on eng 1
  done;
  ended := Engine.now eng;
  Engine.spawn eng ignore

let test_lone_waits_perform_no_effect () =
  let eng = Engine.create () in
  let effects = ref 0 and ended = ref (-1) in
  Engine.spawn eng (counting effects (waits_then_spawn eng ended));
  Engine.run eng;
  check_int "effects" 0 !effects;
  check_int "ended at" 1000 !ended;
  check_int "fast-forwards" 1000 (Engine.fast_forwards eng)

let test_contended_waits_yield () =
  let eng = Engine.create () in
  let effects = ref 0 and ended = ref (-1) in
  Engine.spawn eng (counting effects (waits_then_spawn eng ended));
  (* Wakes every cycle, so each of the counted waits ties with it. *)
  Engine.spawn eng (fun () ->
      for _ = 1 to 1000 do
        Engine.wait_on eng 1
      done);
  Engine.run eng;
  check_int "effects" 1000 !effects;
  check_int "ended at" 1000 !ended;
  check_int "engine now" 1000 (Engine.now eng)

(* A fast-forward returns from [wait_on]; nothing may pile up per wait, so
   a chain far longer than any stack holds runs in constant space. *)
let test_long_fast_forward_chain () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      for _ = 1 to 2_000_000 do
        Engine.wait_on eng 1
      done);
  Engine.run eng;
  check_int "now" 2_000_000 (Engine.now eng);
  check_int "fast-forwards" 2_000_000 (Engine.fast_forwards eng)

(* A run of waits issued through [Engine.waits_on]: the same as issuing
   each on its own, without an effect when nothing else is queued. *)
let test_lone_run_performs_no_effect () =
  let eng = Engine.create () in
  let effects = ref 0 and ended = ref (-1) in
  let costs = Array.init 1000 (fun i -> if i mod 7 = 3 then 3 else 1) in
  let total = Array.fold_left ( + ) 0 costs in
  Engine.spawn eng
    (counting effects (fun () ->
         Engine.waits_on eng costs;
         ended := Engine.now eng));
  Engine.run eng;
  check_int "effects" 0 !effects;
  check_int "ended at" total !ended;
  check_int "one fast-forward" 1 (Engine.fast_forwards eng)

(* Beside a process that wakes every cycle, each wait of the run ties
   with a queued event, so the run yields exactly where the separate
   waits would. *)
let test_contended_run_yields_per_wait () =
  let effects_of issue =
    let eng = Engine.create () in
    let effects = ref 0 and ended = ref (-1) in
    Engine.spawn eng
      (counting effects (fun () ->
           issue eng (Array.make 1000 1);
           ended := Engine.now eng));
    Engine.spawn eng (fun () ->
        for _ = 1 to 1000 do
          Engine.wait_on eng 1
        done);
    Engine.run eng;
    check_int "ended at" 1000 !ended;
    !effects
  in
  let per_wait = effects_of (fun eng -> Array.iter (Engine.wait_on eng)) in
  check_int "per-wait effects" 1000 per_wait;
  check_int "run effects" per_wait (effects_of Engine.waits_on)

(* The single-runnable wait fast path against the plain heap
   round-trip: random process sets mixing waits (0 included), forks
   and suspend/resume pairs must log the same (time, process, step)
   sequence and end at the same time with the
   fast path on (what the simulator runs) and off (the reference), and
   each absorbed wait must replace exactly one dispatch.  A second
   property adds runs of waits ([Run]), issued through [Engine.waits_on]
   or as separate [wait]s. *)
type action =
  | Wait of int
  | Run of int array
  | Fork of action list
  | Park
  | Wake

let rec show_actions acts =
  String.concat " "
    (List.map
       (function
         | Wait n -> Printf.sprintf "w%d" n
         | Run costs ->
           Printf.sprintf "r[%s]"
             (String.concat "," (Array.to_list (Array.map string_of_int costs)))
         | Fork p -> "fork(" ^ show_actions p ^ ")"
         | Park -> "park"
         | Wake -> "wake")
       acts)

(* Cost arrays of a run: mixed costs (0 included) or a run of unit
   waits, as an accelerator's memory-free states issue. *)
let gen_run =
  let open QCheck.Gen in
  map
    (fun costs -> Run costs)
    (oneof
       [
         array_size (int_range 0 6) (int_bound 4);
         map (fun n -> Array.make n 1) (int_range 1 8);
       ])

let rec gen_actions ?(runs = false) depth =
  let open QCheck.Gen in
  let leaf =
    frequency
      ([ (4, map (fun n -> Wait n) (int_bound 4)); (1, return Park);
         (1, return Wake) ]
      @ if runs then [ (3, gen_run) ] else [])
  in
  let step =
    if depth = 0 then leaf
    else
      frequency
        [ (6, leaf);
          (1, map (fun p -> Fork p) (gen_actions ~runs (depth - 1))) ]
  in
  list_size (int_range 1 6) step

let arb_engine_case ?runs () =
  QCheck.make
    ~print:(fun procs -> String.concat " | " (List.map show_actions procs))
    QCheck.Gen.(list_size (int_range 1 4) (gen_actions ?runs 2))

(* Each process logs (now, pid, step) before every action and once at
   its end; [Park] hands its resume to a shared queue that [Wake] (or,
   once the engine drains, the loop below) pops in order.  [split]
   issues a [Run]'s costs as separate waits. *)
let run_engine_case ?(split = false) ~fastpath procs =
  let eng = Engine.create ~fastpath () in
  let log = ref [] in
  let parked = Queue.create () in
  let next_pid = ref 0 in
  let rec proc acts () =
    let pid = !next_pid in
    incr next_pid;
    let record step = log := (Engine.now eng, pid, step) :: !log in
    List.iteri
      (fun step act ->
        record step;
        match act with
        | Wait n -> Engine.wait_on eng n
        | Run costs ->
          if split then Array.iter (Engine.wait_on eng) costs
          else Engine.waits_on eng costs
        | Fork p -> Engine.spawn eng (proc p)
        | Park -> Engine.suspend (fun resume -> Queue.push resume parked)
        | Wake -> Option.iter (fun wake -> wake ()) (Queue.take_opt parked))
      acts;
    record (List.length acts)
  in
  List.iter (fun p -> Engine.spawn eng (proc p)) procs;
  Engine.run eng;
  while not (Queue.is_empty parked) do
    Queue.pop parked ();
    Engine.run eng
  done;
  ( List.rev !log,
    Engine.now eng,
    Engine.events_executed eng,
    Engine.fast_forwards eng )

let prop_engine_fastpath_reference =
  QCheck.Test.make ~count:500
    ~name:"engine: fast path = reference (log, final now, dispatches)"
    (arb_engine_case ()) (fun case ->
      let fast_log, fast_now, fast_events, fast_ff =
        run_engine_case ~fastpath:true case
      in
      let ref_log, ref_now, ref_events, ref_ff =
        run_engine_case ~fastpath:false case
      in
      fast_log = ref_log && fast_now = ref_now
      && fast_events + fast_ff = ref_events
      && ref_ff = 0)

(* A run's fast-forward stands for several waits, so dispatches plus
   fast-forwards need not add up to the reference's dispatches here;
   the log and the final time must match all the same, and a run must
   dispatch exactly what its separate waits dispatch on the same
   path. *)
let prop_engine_waits_reference =
  QCheck.Test.make ~count:500
    ~name:"engine: waits = separate waits (log, final now; both paths)"
    (arb_engine_case ~runs:true ()) (fun case ->
      let observe ~split ~fastpath =
        let log, now, events, _ = run_engine_case ~split ~fastpath case in
        ((log, now), events)
      in
      let reference, ref_events = observe ~split:true ~fastpath:false in
      let fast, fast_events = observe ~split:false ~fastpath:true in
      let slow, slow_events = observe ~split:false ~fastpath:false in
      let split_fast, split_fast_events = observe ~split:true ~fastpath:true in
      fast = reference && slow = reference && split_fast = reference
      && fast_events = split_fast_events
      && slow_events = ref_events)

(* --------------------- Resource ----------------------------------- *)

let test_resource_serializes () =
  let eng = Engine.create () in
  let bus = Resource.create ~engine:eng in
  let finish = ref [] in
  for i = 1 to 3 do
    Engine.spawn eng (fun () ->
        Resource.use bus ~cycles:10;
        finish := (i, Engine.now eng) :: !finish)
  done;
  Engine.run eng;
  Alcotest.(check (list (pair int int)))
    "FIFO, 10 cycles apart"
    [ (1, 10); (2, 20); (3, 30) ]
    (List.rev !finish)

let test_resource_stats () =
  let eng = Engine.create () in
  let r = Resource.create ~engine:eng in
  for _ = 1 to 4 do
    Engine.spawn eng (fun () -> Resource.use r ~cycles:5)
  done;
  Engine.run eng;
  let s = Resource.stats r in
  check_int "transactions" 4 s.Resource.transactions;
  check_int "busy cycles" 20 s.Resource.busy_cycles;
  (* waiters queue for 5, 10, 15 cycles respectively *)
  check_int "wait cycles" 30 s.Resource.wait_cycles;
  check_int "max queue" 3 s.Resource.max_queue

let test_resource_utilization () =
  let eng = Engine.create () in
  let r = Resource.create ~engine:eng in
  Engine.spawn eng (fun () ->
      Engine.wait_on eng 10;
      Resource.use r ~cycles:10);
  Engine.run eng;
  Alcotest.(check (float 1e-9)) "50%" 0.5 (Resource.utilization r ~total_cycles:20)

(* --------------------- Trace -------------------------------------- *)

let test_trace_disabled_by_default () =
  let tr = Trace.create () in
  Trace.record tr ~at:0 ~component:"x" (Vmht_obs.Event.Note "y");
  check_int "nothing recorded" 0 (Trace.count tr)

let test_trace_bounded () =
  let tr = Trace.create ~capacity:3 () in
  Trace.enable tr true;
  for i = 1 to 5 do
    Trace.record tr ~at:i ~component:"c"
      (Vmht_obs.Event.Note (string_of_int i))
  done;
  check_int "capacity respected" 3 (Trace.count tr);
  check_int "dropped counted" 2 (Trace.dropped tr);
  match Trace.events tr with
  | { Vmht_obs.Event.at = 3; _ } :: _ -> ()
  | _ -> Alcotest.fail "oldest retained event should be at=3"

let test_trace_dropped_header () =
  let tr = Trace.create ~capacity:2 () in
  Trace.enable tr true;
  for i = 1 to 5 do
    Trace.record tr ~at:i ~component:"c"
      (Vmht_obs.Event.Note (string_of_int i))
  done;
  let rendered = Trace.to_string tr in
  let first_line =
    match String.split_on_char '\n' rendered with l :: _ -> l | [] -> ""
  in
  Alcotest.(check string)
    "header present" "... 3 earlier events dropped ..." first_line

let test_trace_clear () =
  let tr = Trace.create ~capacity:2 () in
  Trace.enable tr true;
  for i = 1 to 5 do
    Trace.record tr ~at:i ~component:"c"
      (Vmht_obs.Event.Note (string_of_int i))
  done;
  Trace.clear tr;
  check_int "events gone" 0 (Trace.count tr);
  check_int "dropped reset" 0 (Trace.dropped tr);
  check_bool "still enabled" true (Trace.enabled tr);
  Trace.record tr ~at:9 ~component:"c" (Vmht_obs.Event.Note "again");
  check_int "usable after clear" 1 (Trace.count tr)

let suite =
  [
    Alcotest.test_case "queue: ordering" `Quick test_queue_order;
    Alcotest.test_case "queue: FIFO ties" `Quick test_queue_fifo_ties;
    Alcotest.test_case "queue: interleaved" `Quick test_queue_interleaved;
    Alcotest.test_case "engine: wait advances time" `Quick test_wait_advances_time;
    Alcotest.test_case "engine: parallel processes" `Quick test_parallel_processes;
    Alcotest.test_case "engine: fork" `Quick test_fork;
    Alcotest.test_case "engine: suspend/resume" `Quick test_suspend_resume;
    Alcotest.test_case "engine: double resume rejected" `Quick
      test_double_resume_rejected;
    Alcotest.test_case "engine: stuck detection" `Quick test_stuck_detection;
    Alcotest.test_case "engine: not in process" `Quick test_not_in_process;
    Alcotest.test_case "engine: deterministic" `Quick test_determinism;
    Alcotest.test_case "engine: lone waits, now, spawn perform no effect"
      `Quick test_lone_waits_perform_no_effect;
    Alcotest.test_case "engine: contended waits yield" `Quick
      test_contended_waits_yield;
    Alcotest.test_case "engine: 2M fast-forward chain" `Quick
      test_long_fast_forward_chain;
    QCheck_alcotest.to_alcotest prop_engine_fastpath_reference;
    Alcotest.test_case "engine: lone wait run performs no effect" `Quick
      test_lone_run_performs_no_effect;
    Alcotest.test_case "engine: contended wait run yields per wait" `Quick
      test_contended_run_yields_per_wait;
    QCheck_alcotest.to_alcotest prop_engine_waits_reference;
    Alcotest.test_case "resource: serializes FIFO" `Quick test_resource_serializes;
    Alcotest.test_case "resource: stats" `Quick test_resource_stats;
    Alcotest.test_case "resource: utilization" `Quick test_resource_utilization;
    Alcotest.test_case "trace: disabled by default" `Quick
      test_trace_disabled_by_default;
    Alcotest.test_case "trace: bounded" `Quick test_trace_bounded;
    Alcotest.test_case "trace: dropped header" `Quick test_trace_dropped_header;
    Alcotest.test_case "trace: clear" `Quick test_trace_clear;
  ]
