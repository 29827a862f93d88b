(* Comparison of two bench manifests: the regression gate behind
   [vmht perf diff].  Any "vmht-bench..." schema is comparable — the
   committed vmht-bench-eval/2 baseline as well as the vmht-bench/3
   manifests [vmht bench] and [vmht perf snapshot] write.

   Metrics are extracted per experiment (wall seconds, ns/run and the
   deterministic simulated-cycle percentiles) and per micro benchmark
   (ns/run), keyed by dotted names.  A metric of OLD that NEW lacks
   fails the gate, so a rename or a dropped experiment cannot silently
   weaken it; a metric only NEW has is listed.  A metric regresses
   when it grows by at least [threshold] percent. *)

type row = {
  metric : string;
  old_v : float;
  new_v : float;
  delta_pct : float;
}

type report = {
  rows : row list; (* compared metrics, manifest order *)
  regressions : row list;
  dropped : string list; (* in OLD, absent from NEW *)
  added : string list; (* in NEW only *)
  unattributed : string list;
      (* experiments with no ns_per_run that are not marked
         "kind": "synthesis" — surfaced so a recording bug cannot
         silently drop an experiment out of the per-run gate *)
}

let check_schema manifest =
  match Option.bind (Json.member "schema" manifest) Json.to_str with
  | Some s when String.starts_with ~prefix:"vmht-bench" s -> Ok manifest
  | Some s -> Error (Printf.sprintf "schema %S is not a bench manifest" s)
  | None -> Error "no \"schema\" field, not a bench manifest"

let get path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let get_float path j = Option.bind (get path j) Json.to_float

(* (metric name, value) pairs in manifest order, plus the names of
   experiments whose ns_per_run is absent without the "synthesis" kind
   explaining why. *)
let extract manifest =
  let acc = ref [] in
  let unattributed = ref [] in
  let push name v = acc := (name, v) :: !acc in
  let named_rows section j =
    match Option.bind (Json.member section j) Json.to_list with
    | None -> []
    | Some rows ->
      List.filter_map
        (fun r ->
          match Option.bind (Json.member "name" r) Json.to_str with
          | Some name -> Some (name, r)
          | None -> None)
        rows
  in
  List.iter
    (fun (name, r) ->
      Option.iter (push (name ^ ".seconds")) (get_float [ "seconds" ] r);
      (match get_float [ "ns_per_run" ] r with
      | Some v -> push (name ^ ".ns_per_run") v
      | None ->
        let kind = Option.bind (Json.member "kind" r) Json.to_str in
        if kind <> Some "synthesis" then
          unattributed := name :: !unattributed);
      List.iter
        (fun q ->
          Option.iter
            (push (Printf.sprintf "%s.cycles.%s" name q))
            (get_float [ "cycles"; q ] r))
        [ "p50"; "p99"; "max" ])
    (named_rows "experiments" manifest);
  List.iter
    (fun (name, r) ->
      Option.iter
        (push ("micro." ^ name ^ ".ns_per_run"))
        (get_float [ "ns_per_run" ] r))
    (named_rows "micro" manifest);
  Option.iter (push "total_seconds") (get_float [ "total_seconds" ] manifest);
  (List.rev !acc, List.rev !unattributed)

let delta_pct old_v new_v =
  if old_v = 0. then if new_v = 0. then 0. else infinity
  else (new_v -. old_v) /. old_v *. 100.

let diff ?(threshold = 10.) ~old_manifest ~new_manifest () =
  let old_metrics, old_unattr = extract old_manifest in
  let new_metrics, new_unattr = extract new_manifest in
  let new_tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace new_tbl k v) new_metrics;
  let rows, dropped =
    List.fold_left
      (fun (rows, dropped) (k, old_v) ->
        match Hashtbl.find_opt new_tbl k with
        | Some new_v ->
          ( { metric = k; old_v; new_v; delta_pct = delta_pct old_v new_v }
            :: rows,
            dropped )
        | None -> (rows, k :: dropped))
      ([], []) old_metrics
  in
  let old_names = List.map fst old_metrics in
  let added =
    List.filter_map
      (fun (k, _) -> if List.mem k old_names then None else Some k)
      new_metrics
  in
  let rows = List.rev rows in
  {
    rows;
    regressions = List.filter (fun r -> r.delta_pct >= threshold) rows;
    dropped = List.rev dropped;
    added;
    unattributed =
      old_unattr
      @ List.filter (fun n -> not (List.mem n old_unattr)) new_unattr;
  }

let complete r = r.rows <> [] && r.dropped = []

let render ~threshold r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-40s %14s %14s %9s\n" "metric" "old" "new" "delta");
  List.iter
    (fun row ->
      let flag = if row.delta_pct >= threshold then "  REGRESSED" else "" in
      Buffer.add_string buf
        (Printf.sprintf "%-40s %14.4g %14.4g %+8.1f%%%s\n" row.metric row.old_v
           row.new_v row.delta_pct flag))
    r.rows;
  let only side k =
    Buffer.add_string buf
      (Printf.sprintf "%-40s (only in one manifest: %s)\n" k side)
  in
  List.iter (only "OLD") r.dropped;
  List.iter (only "NEW") r.added;
  List.iter
    (fun name ->
      Buffer.add_string buf
        (Printf.sprintf
           "%-40s (no per-run timing recorded and not marked \"synthesis\")\n"
           (name ^ ".ns_per_run")))
    r.unattributed;
  if r.regressions <> [] then
    Buffer.add_string buf
      (Printf.sprintf "regression: %d metric(s) slower by >= %.1f%%\n"
         (List.length r.regressions) threshold);
  if r.dropped <> [] then
    Buffer.add_string buf
      (Printf.sprintf "incomplete: %d metric(s) of OLD missing from NEW\n"
         (List.length r.dropped))
  else if r.rows = [] then
    Buffer.add_string buf "incomplete: no metric compared\n";
  if r.regressions = [] && complete r then
    Buffer.add_string buf
      (Printf.sprintf "ok: %d metric(s) within +%.1f%%\n" (List.length r.rows)
         threshold);
  Buffer.contents buf
