(* One "process" per SoC; one "thread" track per component instance,
   numbered in order of first appearance so the Perfetto timeline is
   stable across runs of a deterministic simulation.  Component
   instances must already carry distinct names ("mmu", "mmu1", ...) —
   the SoC numbers them at creation — so concurrent instances never
   collapse onto one track. *)

let tids_of_events events =
  let table = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (e : Event.t) ->
      if not (Hashtbl.mem table e.Event.component) then begin
        Hashtbl.replace table e.Event.component (Hashtbl.length table + 1);
        order := e.Event.component :: !order
      end)
    events;
  (table, List.rev !order)

let metadata_event ~pid ~tid ~name ~value =
  Json.Obj
    [
      ("name", Json.String name);
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.String value) ]);
    ]

let event_json ~pid ~tid (e : Event.t) =
  let common =
    [
      ("name", Json.String (Event.label e.Event.kind));
      ("cat", Json.String e.Event.component);
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("ts", Json.Int e.Event.at);
      ("args", Json.Obj (Event.args e.Event.kind));
    ]
  in
  if e.Event.duration > 0 then
    Json.Obj
      (common
      @ [ ("ph", Json.String "X"); ("dur", Json.Int e.Event.duration) ])
  else
    (* Instantaneous: thread-scoped instant event. *)
    Json.Obj (common @ [ ("ph", Json.String "i"); ("s", Json.String "t") ])

let group_events ~pid events =
  let tids, order = tids_of_events events in
  let metadata =
    metadata_event ~pid ~tid:0 ~name:"process_name" ~value:"vmht-soc"
    :: List.map
         (fun component ->
           metadata_event ~pid
             ~tid:(Hashtbl.find tids component)
             ~name:"thread_name" ~value:component)
         order
  in
  let entries =
    List.map
      (fun (e : Event.t) ->
        event_json ~pid ~tid:(Hashtbl.find tids e.Event.component) e)
      events
  in
  metadata @ entries

let wrap entries =
  Json.Obj
    [
      ("traceEvents", Json.List entries);
      (* Timestamps are fabric cycles, not microseconds; ns display
         keeps Perfetto from rescaling them confusingly. *)
      ("displayTimeUnit", Json.String "ns");
    ]

let to_json ?(pid = 1) events = wrap (group_events ~pid events)

let to_string events = Json.to_string_pretty (to_json events)
