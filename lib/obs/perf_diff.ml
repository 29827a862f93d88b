(* Comparison of two vmht-bench/4 manifests: the regression gate behind
   [vmht perf diff].

   Metrics are keyed by dotted names and come in two kinds.  Host time
   (each experiment's wall seconds and ns/run, each micro benchmark's
   ns/run, the total seconds) regresses when it grows by at least
   [threshold] percent.  Counts (the sums of an experiment's run
   ledger, [<experiment>.counts.<name>]) are simulated and therefore
   deterministic: any difference is a move, whatever the threshold.  A
   metric of OLD that NEW lacks fails the gate, so a rename or a
   dropped experiment cannot silently weaken it; a metric only NEW has
   is listed.  Host times of builds in different dune profiles do not
   compare, so a differing "build_profile" is named, but it fails
   nothing: the counts still hold. *)

type row = {
  metric : string;
  old_v : float;
  new_v : float;
  delta_pct : float;
}

type moved = { count : string; old_c : int; new_c : int }

type report = {
  rows : row list; (* compared host-time metrics, manifest order *)
  regressions : row list;
  counts : int; (* counts compared *)
  moved : moved list; (* manifest order *)
  dropped : string list; (* in OLD, absent from NEW *)
  added : string list; (* in NEW only *)
  build_profiles : string * string; (* OLD's, NEW's *)
}

let schema = "vmht-bench/4"

let named_rows section j =
  match Option.bind (Json.member section j) Json.to_list with
  | None -> []
  | Some rows ->
    List.filter_map
      (fun r ->
        Option.map (fun name -> (name, r))
          (Option.bind (Json.member "name" r) Json.to_str))
      rows

(* The first name that [rows] holds twice: a diff keyed on names would
   pair both rows with one of the other manifest's. *)
let rec repeated = function
  | [] -> None
  | (name, _) :: rest ->
    if List.mem_assoc name rest then Some name else repeated rest

let check_manifest manifest =
  match Option.bind (Json.member "schema" manifest) Json.to_str with
  | Some s when s = schema -> (
    let repeat section what =
      Option.map
        (Printf.sprintf "%s %S appears more than once" what)
        (repeated (named_rows section manifest))
    in
    match
      (repeat "experiments" "experiment", repeat "micro" "micro target")
    with
    | Some msg, _ | None, Some msg -> Error msg
    | None, None -> Ok manifest)
  | Some s ->
    Error
      (Printf.sprintf
         "schema %S is not %s; re-take the baseline with 'vmht perf snapshot'"
         s schema)
  | None ->
    Error (Printf.sprintf "no \"schema\" field, not a %s manifest" schema)

type value = Time of float | Count of int

(* (metric name, value) pairs in manifest order. *)
let extract manifest =
  let acc = ref [] in
  let push name v = acc := (name, v) :: !acc in
  let time name j field =
    Option.iter
      (fun v -> push name (Time v))
      (Option.bind (Json.member field j) Json.to_float)
  in
  List.iter
    (fun (name, r) ->
      time (name ^ ".seconds") r "seconds";
      time (name ^ ".ns_per_run") r "ns_per_run";
      match Json.member "counts" r with
      | Some (Json.Obj counts) ->
        List.iter
          (fun (k, v) ->
            Option.iter
              (fun c -> push (Printf.sprintf "%s.counts.%s" name k) (Count c))
              (Json.to_int v))
          counts
      | _ -> ())
    (named_rows "experiments" manifest);
  List.iter
    (fun (name, r) -> time ("micro." ^ name ^ ".ns_per_run") r "ns_per_run")
    (named_rows "micro" manifest);
  time "total_seconds" manifest "total_seconds";
  List.rev !acc

let build_profile manifest =
  Option.value ~default:"unknown"
    (Option.bind (Json.member "build_profile" manifest) Json.to_str)

let delta_pct old_v new_v =
  if old_v = 0. then if new_v = 0. then 0. else infinity
  else (new_v -. old_v) /. old_v *. 100.

let diff ?(threshold = 10.) ~old_manifest ~new_manifest () =
  let old_metrics = extract old_manifest in
  let new_metrics = extract new_manifest in
  let new_tbl = Hashtbl.create 1024 in
  List.iter (fun (k, v) -> Hashtbl.replace new_tbl k v) new_metrics;
  let old_tbl = Hashtbl.create 1024 in
  List.iter (fun (k, v) -> Hashtbl.replace old_tbl k v) old_metrics;
  let rows = ref [] and counts = ref 0 in
  let moved = ref [] and dropped = ref [] in
  List.iter
    (fun (k, old_v) ->
      match (old_v, Hashtbl.find_opt new_tbl k) with
      | Time old_v, Some (Time new_v) ->
        rows :=
          { metric = k; old_v; new_v; delta_pct = delta_pct old_v new_v }
          :: !rows
      | Count old_c, Some (Count new_c) ->
        incr counts;
        if old_c <> new_c then moved := { count = k; old_c; new_c } :: !moved
      | _ -> dropped := k :: !dropped)
    old_metrics;
  let rows = List.rev !rows in
  {
    rows;
    regressions = List.filter (fun r -> r.delta_pct >= threshold) rows;
    counts = !counts;
    moved = List.rev !moved;
    dropped = List.rev !dropped;
    added =
      List.filter_map
        (fun (k, _) -> if Hashtbl.mem old_tbl k then None else Some k)
        new_metrics;
    build_profiles = (build_profile old_manifest, build_profile new_manifest);
  }

let complete r = (r.rows <> [] || r.counts > 0) && r.dropped = []

let render ~threshold r =
  let buf = Buffer.create 512 in
  let line fmt = Printf.bprintf buf (fmt ^^ "\n") in
  (let old_p, new_p = r.build_profiles in
   if old_p <> new_p then line "build profile: %s -> %s" old_p new_p);
  line "%-40s %14s %14s %9s" "metric" "old" "new" "delta";
  List.iter
    (fun row ->
      line "%-40s %14.4g %14.4g %+8.1f%%%s" row.metric row.old_v row.new_v
        row.delta_pct
        (if row.delta_pct >= threshold then "  REGRESSED" else ""))
    r.rows;
  List.iter
    (fun m ->
      line "%-40s %14d %14d %+9d  MOVED" m.count m.old_c m.new_c
        (m.new_c - m.old_c))
    r.moved;
  let only side k = line "%-40s (only in one manifest: %s)" k side in
  List.iter (only "OLD") r.dropped;
  List.iter (only "NEW") r.added;
  if r.moved <> [] then
    line "moved: %d count(s) differ; counts are exact at any threshold"
      (List.length r.moved);
  if r.regressions <> [] then
    line "regression: %d metric(s) slower by >= %.1f%%"
      (List.length r.regressions) threshold;
  if r.dropped <> [] then
    line "incomplete: %d metric(s) of OLD missing from NEW"
      (List.length r.dropped)
  else if not (complete r) then line "incomplete: no metric compared";
  if r.regressions = [] && r.moved = [] && complete r then
    line "ok: %d metric(s) within +%.1f%%, %d count(s) equal"
      (List.length r.rows) threshold r.counts;
  Buffer.contents buf
