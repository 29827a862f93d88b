type time = int

exception Not_in_process
exception Stuck of string

(* The previous host clock read.  A record of floats only holds them
   unboxed, so storing a read allocates nothing. *)
type host_clock = { mutable at : float }

(* Per-engine profiling state, allocated only when the process-wide
   profile (Vmht_obs.Profile) is enabled at [create] time.

   Cycle attribution is a partition of the engine's timeline: every
   scheduled action is wrapped to remember the phase that scheduled
   it, and when it is dispatched it charges the simulated time that
   passed since the previous charge point ([charged_upto]) to that
   phase.  Charge points advance monotonically through every
   dispatch, so the per-phase sums telescope to exactly the engine's
   final [now].  Host time is read from the clock only where
   [cur_phase] changes — a dispatch resuming another phase, a phase
   entry or exit — and the slice since the previous read goes to the
   phase that was current over all of it, so a phase that burns host
   time inside one dispatch is charged for it.  A read where the phase
   stays would charge the same phase, so it is skipped. *)
type eprof = {
  mutable cur_phase : int; (* phase of the code currently executing *)
  mutable charged_upto : time;
  cycles : int array;
  host_ns : float array;
  mutable dispatches : int;
  last_host : host_clock;
  mutable flushed_now : time;
  mutable first_flush : bool;
  batch : Vmht_obs.Histogram.t;
  mutable batch_at : time; (* timestamp of the open dispatch batch *)
  mutable batch_len : int;
}

type t = {
  mutable now : time;
  queue : (unit -> unit) Event_queue.t;
  mutable suspended : int;
  mutable executed : int;
  mutable fast_forwards : int;
  profile : eprof option;
  fastpath : bool;
  mutable running : bool; (* inside [run]: its processes may wait *)
}

type phase = Vmht_obs.Profile.phase

(* The only two ways a process gives up control: a wait some queued
   event must precede (wake at the absolute time given) and a park. *)
type _ Effect.t +=
  | Wait : time -> unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t

let fresh_eprof () =
  {
    cur_phase = Vmht_obs.Profile.phase_index Vmht_obs.Profile.Dispatch;
    charged_upto = 0;
    cycles = Array.make Vmht_obs.Profile.n_phases 0;
    host_ns = Array.make Vmht_obs.Profile.n_phases 0.;
    dispatches = 0;
    last_host = { at = 0. };
    flushed_now = 0;
    first_flush = true;
    batch = Vmht_obs.Histogram.create ();
    batch_at = -1;
    batch_len = 0;
  }

let create ?(fastpath = true) () =
  {
    now = 0;
    queue = Event_queue.create ();
    suspended = 0;
    executed = 0;
    fast_forwards = 0;
    profile =
      (if Vmht_obs.Profile.enabled () then Some (fresh_eprof ()) else None);
    fastpath;
    running = false;
  }

let now t = t.now

(* Charge the host time since the previous clock read to the phase
   current until now. *)
let charge_host p =
  let h = Unix.gettimeofday () in
  p.host_ns.(p.cur_phase) <-
    p.host_ns.(p.cur_phase) +. ((h -. p.last_host.at) *. 1e9);
  p.last_host.at <- h

(* Make [ph] the current phase, charging the slice that ends here to
   the phase it replaces. *)
let switch_phase p ph =
  if ph <> p.cur_phase then begin
    charge_host p;
    p.cur_phase <- ph
  end

let schedule t ~at action =
  assert (at >= t.now);
  match t.profile with
  | None -> Event_queue.push t.queue ~at action
  | Some p ->
    (* Capture the scheduling phase; on dispatch, charge the timeline
       advance since the previous charge point to it.  The host slice
       up to the dispatch belongs to the phase the previous action left
       current (where it finished or yielded). *)
    let ph = p.cur_phase in
    Event_queue.push t.queue ~at (fun () ->
        let dt = t.now - p.charged_upto in
        if dt > 0 then p.cycles.(ph) <- p.cycles.(ph) + dt;
        p.charged_upto <- t.now;
        switch_phase p ph;
        action ())

let profiled t = t.profile <> None

(* Entering the phase that is already current reads nothing, so a
   handover from one entered phase to the next reads the clock once. *)
let enter_phase t ph =
  match t.profile with
  | None -> ph
  | Some p ->
    let saved = p.cur_phase in
    switch_phase p (Vmht_obs.Profile.phase_index ph);
    Vmht_obs.Profile.phase_of_index saved

(* [f] returns in [ph] (a nested phase restores it, a resumed dispatch
   re-enters the phase it was scheduled in), so leaving restores the
   phase current before. *)
let with_phase t ph f =
  match t.profile with
  | None -> f ()
  | Some _ -> (
    let saved = enter_phase t ph in
    match f () with
    | v ->
      ignore (enter_phase t saved : phase);
      v
    | exception e ->
      ignore (enter_phase t saved : phase);
      raise e)

let exec_process t fn =
  let open Effect.Deep in
  try_with fn ()
    {
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Wait at ->
            Some
              (fun (k : (a, _) continuation) ->
                schedule t ~at (fun () -> continue k ()))
          | Suspend register ->
            Some
              (fun (k : (a, _) continuation) ->
                t.suspended <- t.suspended + 1;
                let resumed = ref false in
                let resume () =
                  if !resumed then
                    invalid_arg "Engine.suspend: process resumed twice";
                  resumed := true;
                  t.suspended <- t.suspended - 1;
                  schedule t ~at:t.now (fun () -> continue k ())
                in
                register resume)
          | _ -> None);
    }

let spawn t fn = schedule t ~at:t.now (fun () -> exec_process t fn)

(* Sizes of same-timestamp dispatch batches, a measure of event-queue
   contention: a dispatch at the open batch's time extends it, any
   other closes it into the histogram and opens the next. *)
let flush_batch p =
  if p.batch_len > 0 then begin
    Vmht_obs.Histogram.observe p.batch p.batch_len;
    p.batch_len <- 0;
    p.batch_at <- -1
  end

let count_dispatch p at =
  p.dispatches <- p.dispatches + 1;
  if at = p.batch_at then p.batch_len <- p.batch_len + 1
  else begin
    flush_batch p;
    p.batch_at <- at;
    p.batch_len <- 1
  end

let flush_profile t =
  match t.profile with
  | None -> ()
  | Some p ->
    flush_batch p;
    charge_host p;
    Vmht_obs.Profile.flush ~cycles:p.cycles ~host_ns:p.host_ns
      ~dispatches:p.dispatches
      ~engine_cycles:(t.now - p.flushed_now)
      ~engines:(if p.first_flush then 1 else 0)
      ~batch:p.batch;
    Array.fill p.cycles 0 (Array.length p.cycles) 0;
    Array.fill p.host_ns 0 (Array.length p.host_ns) 0.;
    p.dispatches <- 0;
    p.flushed_now <- t.now;
    p.first_flush <- false;
    Vmht_obs.Histogram.reset p.batch

let run ?(check_quiescent = false) t =
  (match t.profile with
  | Some p -> p.last_host.at <- Unix.gettimeofday ()
  | None -> ());
  let rec loop () =
    if not (Event_queue.is_empty t.queue) then begin
      let at = Event_queue.min_time_exn t.queue in
      let action = Event_queue.pop_payload_exn t.queue in
      t.now <- at;
      t.executed <- t.executed + 1;
      (match t.profile with Some p -> count_dispatch p at | None -> ());
      action ();
      loop ()
    end
  in
  let was_running = t.running in
  t.running <- true;
  Fun.protect ~finally:(fun () -> t.running <- was_running) loop;
  flush_profile t;
  if check_quiescent && t.suspended > 0 then
    raise
      (Stuck
         (Printf.sprintf "%d process(es) still suspended at t=%d" t.suspended
            t.now))

let events_executed t = t.executed

let fast_forwards t = t.fast_forwards

(* A wait nothing queued can observe — the queue holds no event at or
   before [target] (strict compare: an event tied at [target] carries a
   smaller sequence number and must dispatch first) — moves the clock
   here, in the caller: observationally identical to the heap
   round-trip it replaces, and no effect is performed. *)
let can_fast_forward t target =
  t.fastpath
  && (Event_queue.is_empty t.queue || Event_queue.min_time_exn t.queue > target)

(* The profiler is charged inline exactly as [schedule]'s wrapper would
   have charged the dispatch: the advance goes to the phase current at
   the wait. *)
let fast_forward t target =
  (match t.profile with
  | Some p ->
    let dt = target - p.charged_upto in
    if dt > 0 then p.cycles.(p.cur_phase) <- p.cycles.(p.cur_phase) + dt;
    p.charged_upto <- target
  | None -> ());
  t.now <- target;
  t.fast_forwards <- t.fast_forwards + 1

let advance t n =
  if n > 0 then begin
    let target = t.now + n in
    if can_fast_forward t target then fast_forward t target
    else Effect.perform (Wait target)
  end

let wait_on t n =
  assert (n >= 0);
  if not t.running then raise Not_in_process;
  advance t n

(* The rest of a run, from wait [i] on, [remaining] cycles in all.  It
   moves the clock once when nothing queued falls at or before its end:
   no other process can run in between, so each of its waits would
   have fast-forwarded too.  Otherwise it issues wait [i] on its own —
   where a queued event ties with it, the tie goes exactly as it would
   for that unit wait — and tries the rest again. *)
let rec waits_from t costs i remaining =
  if remaining > 0 then begin
    let target = t.now + remaining in
    if can_fast_forward t target then fast_forward t target
    else begin
      let c = costs.(i) in
      advance t c;
      waits_from t costs (i + 1) (remaining - c)
    end
  end

let total_cost costs =
  let total = ref 0 in
  for i = 0 to Array.length costs - 1 do
    let c = Array.unsafe_get costs i in
    assert (c >= 0);
    total := !total + c
  done;
  !total

let waits_on t costs =
  if not t.running then raise Not_in_process;
  waits_from t costs 0 (total_cost costs)

(* Only a process's handler ({!exec_process}) handles [Suspend], so
   outside every process the effect is unhandled. *)
let suspend register =
  try Effect.perform (Suspend register)
  with Effect.Unhandled (Suspend _) -> raise Not_in_process
