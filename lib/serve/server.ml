module Histogram = Vmht_obs.Histogram

(* The batch's requests that share a synthesis key, in rid order; an
   unkeyed request is a group of one.  Running a group runs its first
   live member once and gives every live member that outcome. *)
type group = Proto.request list

type t = {
  store : Store.t option;
  handle : Proto.request -> Proto.outcome;
  seen : (string, unit) Hashtbl.t;  (* synthesis keys this server met *)
  mutable submitted : int;
  mutable completed : int;
  mutable failed : int;
  mutable expired : int;
  mutable deduped : int;
  mutable key_hits : int;
  mutable key_misses : int;
  latency_us : Histogram.t;
}

type stats = {
  submitted : int;
  completed : int;
  failed : int;
  expired : int;
  deduped : int;
  key_hits : int;
  key_misses : int;
  latency : Histogram.summary;
}

let now = Unix.gettimeofday

let create ?store ~handle () =
  {
    store;
    handle;
    seen = Hashtbl.create 256;
    submitted = 0;
    completed = 0;
    failed = 0;
    expired = 0;
    deduped = 0;
    key_hits = 0;
    key_misses = 0;
    latency_us = Histogram.create ();
  }

(* Deterministic hit accounting: a synthesis request is a hit iff its
   key is already on disk or was seen earlier by this server (same
   batch or a previous one) — exactly the requests the store or memo
   answers without synthesizing. *)
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
let plan t (reqs : Proto.request list) : group list =
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
        groups := members :: !groups)
    reqs;
  List.rev_map (fun m -> List.rev !m) !groups

(* Run-time split of a group into its live members (leader first) and
   those whose [deadline_ms] budget, counted from batch submission, is
   used up. *)
let split ~batch_t0 (g : group) =
  let elapsed_ms = (now () -. batch_t0) *. 1000. in
  List.partition
    (fun (req : Proto.request) ->
      match req.Proto.deadline_ms with
      | None -> true
      | Some d -> elapsed_ms < float_of_int d)
    g

(* The one place replies and their counters are recorded.  The groups
   partition the batch, so each rid is recorded once. *)
let record (t : t) replies (req : Proto.request) outcome =
  Hashtbl.replace replies req.Proto.rid { Proto.rid = req.Proto.rid; outcome };
  match outcome with
  | Proto.Failed _ -> t.failed <- t.failed + 1
  | Proto.Synthesized _ | Proto.Executed _ -> t.completed <- t.completed + 1

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
           ran);
  List.map (fun (req : Proto.request) -> Hashtbl.find replies req.Proto.rid) reqs

let stats (t : t) =
  {
    submitted = t.submitted;
    completed = t.completed;
    failed = t.failed;
    expired = t.expired;
    deduped = t.deduped;
    key_hits = t.key_hits;
    key_misses = t.key_misses;
    latency = Histogram.summary t.latency_us;
  }

let hit_rate (t : t) =
  let keyed = t.key_hits + t.key_misses in
  if keyed = 0 then 0. else float_of_int t.key_hits /. float_of_int keyed

let shutdown (_ : t) = ()
