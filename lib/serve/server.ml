module Histogram = Vmht_obs.Histogram

(* The batch's requests that share a synthesis key, in rid order; an
   unkeyed request is a group of one.  Dispatching a group runs its
   first live member once and gives every live member that outcome. *)
type group = { key : string option; members : Proto.request list }

type worker = {
  mutable pid : int;
  mutable to_w : Unix.file_descr;  (* requests out *)
  mutable from_w : Unix.file_descr;  (* replies in *)
  pending : group Queue.t;
  inflight : (group * float) Queue.t;  (* live members; dispatch order *)
}

type t = {
  n_shards : int;
  store : Store.t option;
  handle : Proto.request -> Proto.outcome;
  workers : worker array;  (* empty when [n_shards = 0] *)
  seen : (string, unit) Hashtbl.t;  (* synthesis keys this server met *)
  mutable submitted : int;
  mutable completed : int;
  mutable failed : int;
  mutable expired : int;
  mutable retried : int;
  mutable deduped : int;
  mutable key_hits : int;
  mutable key_misses : int;
  latency_us : Histogram.t;
  mutable alive : bool;
}

type stats = {
  submitted : int;
  completed : int;
  failed : int;
  expired : int;
  retried : int;
  deduped : int;
  key_hits : int;
  key_misses : int;
  latency : Histogram.summary;
}

let max_attempts = 3

let window = 8  (* in-flight groups per worker *)

let now = Unix.gettimeofday

(* [fleet] is every worker record of the server: the child must close
   its copies of the *other* live workers' pipe ends, or the parent
   closing a request pipe would never read as EOF in its worker (a
   sibling forked later still holds the write end) and both shutdown
   and death detection would hang. *)
let spawn ~handle ~fleet (w : worker) =
  let req_r, req_w = Unix.pipe () in
  let rep_r, rep_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    (* Child: serve until the parent closes the request pipe.  Exit
       with [_exit] so the parent's at_exit machinery (and its
       buffered channels, duplicated by fork) never runs here. *)
    Unix.close req_w;
    Unix.close rep_r;
    Array.iter
      (fun (other : worker) ->
        if other != w && other.pid >= 0 then begin
          (try Unix.close other.to_w with Unix.Unix_error _ -> ());
          try Unix.close other.from_w with Unix.Unix_error _ -> ()
        end)
      fleet;
    (try Worker.loop ~handle ~in_fd:req_r ~out_fd:rep_w with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close req_r;
    Unix.close rep_w;
    w.pid <- pid;
    w.to_w <- req_w;
    w.from_w <- rep_r

let create ?(shards = 0) ?store ~handle () =
  let shards = max 0 shards in
  if shards > 0 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workers =
    Array.init shards (fun _ ->
        {
          pid = -1;
          to_w = Unix.stdin;
          from_w = Unix.stdin;
          pending = Queue.create ();
          inflight = Queue.create ();
        })
  in
  Array.iter (fun w -> spawn ~handle ~fleet:workers w) workers;
  {
    n_shards = shards;
    store;
    handle;
    workers;
    seen = Hashtbl.create 256;
    submitted = 0;
    completed = 0;
    failed = 0;
    expired = 0;
    retried = 0;
    deduped = 0;
    key_hits = 0;
    key_misses = 0;
    latency_us = Histogram.create ();
    alive = true;
  }

let shards t = t.n_shards

(* Deterministic, process-independent hit accounting: a synthesis
   request is a hit iff its key is already on disk or was seen earlier
   by this server (same batch or a previous one) — exactly the
   requests the store or memo answers without synthesizing. *)
let account (t : t) key =
  let hit =
    Hashtbl.mem t.seen key
    ||
    match t.store with
    | Some s -> Store.contains s ~key
    | None -> false
  in
  if hit then t.key_hits <- t.key_hits + 1
  else t.key_misses <- t.key_misses + 1;
  Hashtbl.replace t.seen key ()

(* The planner: derive each request's key once, account it, and group
   the requests that share it.  Groups come out in leader-rid order. *)
let plan t (reqs : Proto.request list) =
  let by_key = Hashtbl.create 16 and groups = ref [] in
  List.iter
    (fun (req : Proto.request) ->
      let key = Proto.synthesis_key req.Proto.job in
      Option.iter (account t) key;
      match Option.bind key (Hashtbl.find_opt by_key) with
      | Some members -> members := req :: !members
      | None ->
        let members = ref [ req ] in
        Option.iter (fun k -> Hashtbl.add by_key k members) key;
        groups := (key, members) :: !groups)
    reqs;
  List.rev_map (fun (key, m) -> { key; members = List.rev !m }) !groups

(* Dispatch-time split of a group into its live members (leader first)
   and those whose [deadline_ms] budget, counted from batch submission,
   is used up. *)
let split ~batch_t0 (g : group) =
  let elapsed_ms = (now () -. batch_t0) *. 1000. in
  List.partition
    (fun (req : Proto.request) ->
      match req.Proto.deadline_ms with
      | None -> true
      | Some d -> elapsed_ms < float_of_int d)
    g.members

(* The one place replies and their counters are recorded, on either
   substrate.  A rid is recorded at most once. *)
let record (t : t) replies (req : Proto.request) outcome =
  if not (Hashtbl.mem replies req.Proto.rid) then begin
    Hashtbl.replace replies req.Proto.rid { Proto.rid = req.Proto.rid; outcome };
    match outcome with
    | Proto.Failed _ -> t.failed <- t.failed + 1
    | Proto.Synthesized _ | Proto.Executed _ -> t.completed <- t.completed + 1
  end

let expire (t : t) replies =
  List.iter (fun (req : Proto.request) ->
      t.expired <- t.expired + 1;
      record t replies req
        (Proto.Failed
           (Printf.sprintf "deadline of %d ms exceeded before dispatch"
              (Option.value req.Proto.deadline_ms ~default:0))))

(* Every live member of a run gets its leader's outcome. *)
let answer (t : t) replies ~seconds live outcome =
  Histogram.observe t.latency_us (int_of_float (seconds *. 1e6));
  List.iteri
    (fun i req ->
      if i > 0 then t.deduped <- t.deduped + 1;
      record t replies req outcome)
    live

(* --- in-process substrate ------------------------------------------ *)

let run_inprocess t replies ~batch_t0 groups =
  Vmht_par.Parmap.map
    (fun g ->
      match split ~batch_t0 g with
      | [], expired -> (expired, [], None)
      | (leader :: _ as live), expired ->
        let t0 = now () in
        let outcome =
          try t.handle leader with e -> Proto.Failed (Printexc.to_string e)
        in
        (expired, live, Some (outcome, now () -. t0)))
    groups
  |> List.iter (fun (expired, live, ran) ->
         expire t replies expired;
         Option.iter
           (fun (outcome, seconds) -> answer t replies ~seconds live outcome)
           ran)

(* --- sharded substrate --------------------------------------------- *)

let shard_of t (g : group) =
  let h =
    match g.key with
    | Some key -> Hashtbl.hash key
    | None -> Hashtbl.hash (List.hd g.members).Proto.rid
  in
  h mod t.n_shards

(* Remove the in-flight group led by [rid] (workers reply in FIFO
   order, so it is almost always the head). *)
let take_inflight (w : worker) rid =
  let items = List.of_seq (Queue.to_seq w.inflight) in
  Queue.clear w.inflight;
  let found = ref None in
  List.iter
    (fun ((g, _) as item) ->
      if Option.is_none !found && (List.hd g.members).Proto.rid = rid then
        found := Some item
      else Queue.add item w.inflight)
    items;
  !found

let run_sharded t replies ~batch_t0 ~expected groups =
  List.iter (fun g -> Queue.add g t.workers.(shard_of t g).pending) groups;
  let handle_death (w : worker) =
    (try Unix.close w.to_w with Unix.Unix_error _ -> ());
    (try Unix.close w.from_w with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
    (* Retry what the dead worker held, oldest first, ahead of the
       backlog.  The worker processes its window in FIFO order, so the
       head of [inflight] is the group it died on: only that group's
       leader is charged an attempt (and the group fails once it has
       had [max_attempts]); the rest were innocent bystanders and
       requeue unpenalized. *)
    let held = List.of_seq (Queue.to_seq w.inflight) in
    Queue.clear w.inflight;
    let backlog = List.of_seq (Queue.to_seq w.pending) in
    Queue.clear w.pending;
    List.iteri
      (fun i ((g : group), t0) ->
        let leader = List.hd g.members in
        if i > 0 then Queue.add g w.pending
        else if leader.Proto.attempt >= max_attempts then
          answer t replies ~seconds:(now () -. t0) g.members
            (Proto.Failed
               (Printf.sprintf "worker died (%d attempts)" leader.Proto.attempt))
        else begin
          t.retried <- t.retried + 1;
          let leader = { leader with Proto.attempt = leader.Proto.attempt + 1 } in
          Queue.add { g with members = leader :: List.tl g.members } w.pending
        end)
      held;
    List.iter (fun g -> Queue.add g w.pending) backlog;
    spawn ~handle:t.handle ~fleet:t.workers w
  in
  while Hashtbl.length replies < expected do
    (* Fill every worker's window. *)
    Array.iter
      (fun (w : worker) ->
        let filling = ref true in
        while
          !filling
          && Queue.length w.inflight < window
          && not (Queue.is_empty w.pending)
        do
          let g = Queue.pop w.pending in
          match split ~batch_t0 g with
          | [], expired -> expire t replies expired
          | (leader :: _ as live), expired -> (
            expire t replies expired;
            let g = { g with members = live } in
            match Proto.write_msg w.to_w leader with
            | () -> Queue.add (g, now ()) w.inflight
            | exception Unix.Unix_error _ ->
              (* Dead on arrival: park it in-flight so the death
                 handler routes it through the retry policy. *)
              Queue.add (g, now ()) w.inflight;
              filling := false;
              handle_death w)
        done)
      t.workers;
    if Hashtbl.length replies < expected then begin
      let waiting =
        Array.to_list t.workers
        |> List.filter (fun w -> not (Queue.is_empty w.inflight))
      in
      match waiting with
      | [] -> ()  (* everything recorded during fill (expired/failed) *)
      | _ -> (
        let fds = List.map (fun w -> w.from_w) waiting in
        match Unix.select fds [] [] 1.0 with
        | readable, _, _ ->
          List.iter
            (fun fd ->
              let w = List.find (fun w -> w.from_w == fd) waiting in
              match Proto.read_msg w.from_w with
              | Some (reply : Proto.reply) -> (
                match take_inflight w reply.Proto.rid with
                | Some (g, t0) ->
                  answer t replies ~seconds:(now () -. t0) g.members
                    reply.Proto.outcome
                | None ->
                  (* Reply to a request we no longer track (e.g. it
                     already failed through the retry path); drop. *)
                  ())
              | None -> handle_death w)
            readable
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    end
  done

(* ------------------------------------------------------------------ *)

let run_batch (t : t) (reqs : Proto.request list) =
  let reqs =
    List.sort
      (fun (a : Proto.request) b -> compare a.Proto.rid b.Proto.rid)
      reqs
  in
  let batch_t0 = now () in
  let expected = List.length reqs in
  t.submitted <- t.submitted + expected;
  let groups = plan t reqs in
  let replies = Hashtbl.create expected in
  if t.n_shards = 0 then run_inprocess t replies ~batch_t0 groups
  else run_sharded t replies ~batch_t0 ~expected groups;
  List.map (fun (req : Proto.request) -> Hashtbl.find replies req.Proto.rid) reqs

let stats (t : t) =
  {
    submitted = t.submitted;
    completed = t.completed;
    failed = t.failed;
    expired = t.expired;
    retried = t.retried;
    deduped = t.deduped;
    key_hits = t.key_hits;
    key_misses = t.key_misses;
    latency = Histogram.summary t.latency_us;
  }

let hit_rate (t : t) =
  let keyed = t.key_hits + t.key_misses in
  if keyed = 0 then 0. else float_of_int t.key_hits /. float_of_int keyed

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    (* Close every request pipe before reaping: each close is that
       pipe's last write end, so every worker sees EOF and exits. *)
    Array.iter
      (fun (w : worker) ->
        try Unix.close w.to_w with Unix.Unix_error _ -> ())
      t.workers;
    Array.iter
      (fun (w : worker) ->
        (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
        try Unix.close w.from_w with Unix.Unix_error _ -> ())
      t.workers
  end
