type job = { run : unit -> unit }

type t = {
  m : Mutex.t;
  cond : Condition.t; (* signaled on: new work, task completion, shutdown *)
  queue : job Queue.t;
  mutable live : bool;
  size : int;
  mutable workers : unit Domain.t list;
}

(* Workers drain the queue, then block until signaled; on shutdown they
   finish whatever is still queued before exiting. *)
let rec worker t =
  Mutex.lock t.m;
  let rec await () =
    match Queue.take_opt t.queue with
    | Some job ->
      Mutex.unlock t.m;
      job.run ();
      worker t
    | None ->
      if t.live then begin
        Condition.wait t.cond t.m;
        await ()
      end
      else Mutex.unlock t.m
  in
  await ()

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let t =
    {
      m = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      live = true;
      size = domains;
      workers = [];
    }
  in
  (* Workers take stable small span tids (1 .. domains-1; the caller
     is track 0) so a -j N trace renders as N named lanes instead of
     one track per ever-growing Domain id. *)
  t.workers <-
    List.init (domains - 1) (fun i ->
        Domain.spawn (fun () ->
            Vmht_obs.Span.set_tid (i + 1);
            worker t));
  t

let size t = t.size

let map (type b) t (f : 'a -> b) xs =
  let xs = Array.of_list xs in
  let n = Array.length xs in
  if n = 0 then []
  else begin
    let results : (b, exn * Printexc.raw_backtrace) result option array =
      Array.make n None
    in
    let remaining = ref n in
    (* The span (if enabled) ties each task back to the submitting
       span via a flow edge, captured here on the caller's domain. *)
    let spans_on = Vmht_obs.Span.enabled () in
    let flow_from =
      if spans_on then Vmht_obs.Span.current_span_id () else None
    in
    let apply i =
      if spans_on then
        Vmht_obs.Span.with_span ~cat:"par" ?flow_from
          ("task:" ^ string_of_int i)
          (fun () -> f xs.(i))
      else f xs.(i)
    in
    (* Runs outside the mutex; only the bookkeeping re-acquires it. *)
    let run_one i =
      let r =
        match apply i with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock t.m;
      results.(i) <- Some r;
      decr remaining;
      Condition.broadcast t.cond;
      Mutex.unlock t.m
    in
    Mutex.lock t.m;
    if not t.live then begin
      Mutex.unlock t.m;
      invalid_arg "Pool.map: pool is shut down"
    end;
    for i = 0 to n - 1 do
      Queue.add { run = (fun () -> run_one i) } t.queue
    done;
    Condition.broadcast t.cond;
    (* Help until every result of THIS call is in: run queued tasks
       (ours or other callers') rather than blocking, so a task may
       itself call [map] on the same pool without deadlock. *)
    let rec help () =
      if !remaining > 0 then begin
        match Queue.take_opt t.queue with
        | Some job ->
          Mutex.unlock t.m;
          job.run ();
          Mutex.lock t.m;
          help ()
        | None ->
          Condition.wait t.cond t.m;
          help ()
      end
    in
    help ();
    Mutex.unlock t.m;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
           | None -> assert false)
         results)
  end

let shutdown t =
  Mutex.lock t.m;
  if t.live then begin
    t.live <- false;
    Condition.broadcast t.cond;
    Mutex.unlock t.m;
    List.iter Domain.join t.workers;
    t.workers <- []
  end
  else Mutex.unlock t.m
