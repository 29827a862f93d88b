(* Process-wide simulator phase profile.

   The engine does the cheap per-dispatch work locally (an array
   increment, a batch counter, a clock read when the phase changes)
   and flushes deltas here under one mutex at the end of each [run] —
   so the hot loop never takes a lock.  Cycle attribution is exact by
   construction: every dispatched event is charged the simulated time
   it advanced past the previous charge point, so the per-phase cycle
   counts partition each engine's timeline and their sum equals the
   summed engine totals.  Host time is read from the clock wherever the
   current phase changes, so a phase is charged the wall time spent
   inside it — useful for "where do the milliseconds go", not for
   regression gating (the reads themselves cost time). *)

type phase = Dispatch | Actor | Memory | Translate

let n_phases = 4

let phase_index = function
  | Dispatch -> 0
  | Actor -> 1
  | Memory -> 2
  | Translate -> 3

let phase_of_index = function
  | 0 -> Dispatch
  | 1 -> Actor
  | 2 -> Memory
  | 3 -> Translate
  | i -> invalid_arg (Printf.sprintf "Profile.phase_of_index %d" i)

let phase_name = function
  | Dispatch -> "dispatch"
  | Actor -> "actor"
  | Memory -> "memory"
  | Translate -> "translate"

let all_phases = [ Dispatch; Actor; Memory; Translate ]

type totals = {
  cycles : int array; (* per phase, indexed by [phase_index] *)
  host_ns : float array; (* per phase, wall clock *)
  dispatches : int;
  engine_cycles : int; (* summed final [now] of every profiled engine *)
  engines : int;
  batch : Histogram.t; (* same-timestamp dispatch batch sizes *)
}

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let m = Mutex.create ()

let empty () =
  {
    cycles = Array.make n_phases 0;
    host_ns = Array.make n_phases 0.;
    dispatches = 0;
    engine_cycles = 0;
    engines = 0;
    batch = Histogram.create ();
  }

let acc = ref (empty ())

let reset () =
  Mutex.lock m;
  acc := empty ();
  Mutex.unlock m

let enable flag =
  if flag && not (Atomic.get enabled_flag) then reset ();
  Atomic.set enabled_flag flag

let flush ~cycles ~host_ns ~dispatches ~engine_cycles ~engines ~batch =
  Mutex.lock m;
  let a = !acc in
  for i = 0 to n_phases - 1 do
    a.cycles.(i) <- a.cycles.(i) + cycles.(i);
    a.host_ns.(i) <- a.host_ns.(i) +. host_ns.(i)
  done;
  Histogram.merge_into ~src:batch ~dst:a.batch;
  acc :=
    {
      a with
      dispatches = a.dispatches + dispatches;
      engine_cycles = a.engine_cycles + engine_cycles;
      engines = a.engines + engines;
    };
  Mutex.unlock m

let totals () =
  Mutex.lock m;
  let a = !acc in
  let copy =
    {
      cycles = Array.copy a.cycles;
      host_ns = Array.copy a.host_ns;
      dispatches = a.dispatches;
      engine_cycles = a.engine_cycles;
      engines = a.engines;
      batch = Histogram.copy a.batch;
    }
  in
  Mutex.unlock m;
  copy

let cycle_sum t = Array.fold_left ( + ) 0 t.cycles

let to_json (t : totals) =
  let phase_obj p =
    let i = phase_index p in
    ( phase_name p,
      Json.Obj
        [
          ("cycles", Json.Int t.cycles.(i));
          ("host_ms", Json.Float (t.host_ns.(i) /. 1e6));
        ] )
  in
  Json.Obj
    [
      ("schema", Json.String "vmht-profile/1");
      ("engines", Json.Int t.engines);
      ("dispatches", Json.Int t.dispatches);
      ("engine_cycles", Json.Int t.engine_cycles);
      ("cycle_sum", Json.Int (cycle_sum t));
      ("phases", Json.Obj (List.map phase_obj all_phases));
      ("dispatch_batch", Histogram.summary_to_json (Histogram.summary t.batch));
    ]

let render (t : totals) =
  let buf = Buffer.create 512 in
  let total_c = cycle_sum t in
  let total_h = Array.fold_left ( +. ) 0. t.host_ns in
  Buffer.add_string buf
    (Printf.sprintf "engines %d, dispatches %d, simulated cycles %d\n" t.engines
       t.dispatches t.engine_cycles);
  Buffer.add_string buf
    (Printf.sprintf "  %-10s %14s %6s %12s\n" "phase" "cycles" "%" "host ms");
  List.iter
    (fun p ->
      let i = phase_index p in
      let pct =
        if total_c = 0 then 0.
        else 100. *. float_of_int t.cycles.(i) /. float_of_int total_c
      in
      Buffer.add_string buf
        (Printf.sprintf "  %-10s %14d %5.1f%% %12.2f\n" (phase_name p)
           t.cycles.(i) pct
           (t.host_ns.(i) /. 1e6)))
    all_phases;
  Buffer.add_string buf
    (Printf.sprintf "  %-10s %14d %5.1f%% %12.2f\n" "total" total_c
       (if total_c = 0 then 0. else 100.)
       (total_h /. 1e6));
  let b = Histogram.summary t.batch in
  Buffer.add_string buf
    (Printf.sprintf "  dispatch batches: %s\n" (Histogram.summary_to_string b));
  Buffer.contents buf
