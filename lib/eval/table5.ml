(* Table 5 — programming effort: source lines touched to move a thread
   from software to each hardware interface style.

   With the VM interface a thread function is retargeted by flipping
   the partition flag (1 line in the thread table).  The copy-based
   style additionally needs explicit staging code: a window/descriptor
   registration per buffer plus a copy-in and/or copy-out call per
   directional buffer — the lines this table counts. *)

module Table = Vmht_util.Table
module Workload = Vmht_workloads.Workload

let dma_effort_lines (instance : Workload.instance) =
  let buffers = instance.Workload.buffers in
  let windows = List.length buffers in
  let stages =
    List.fold_left
      (fun acc (b : Vmht.Launch.buffer) ->
        match b.Vmht.Launch.dir with
        | Vmht.Launch.In | Vmht.Launch.Out -> acc + 1
        | Vmht.Launch.InOut -> acc + 2)
      0 buffers
  in
  1 + windows + stages

let run base =
  let table =
    Table.create
      ~title:
        "Table 5: programming effort to move a thread to hardware \
         (source lines touched)"
      ~headers:
        [ "kernel"; "kernel LoC"; "buffers"; "VM lines"; "DMA lines" ]
  in
  Vmht_par.Parmap.map
    (fun (w : Workload.t) ->
      let soc = Vmht.Soc.create base in
      let instance =
        w.Workload.setup (Vmht.Soc.aspace soc) ~size:64 ~seed:1
      in
      [
        w.Workload.name;
        string_of_int (Common.source_lines w);
        string_of_int (List.length instance.Workload.buffers);
        "1";
        string_of_int (dma_effort_lines instance);
      ])
    Vmht_workloads.Registry.all
  |> List.iter (Table.add_row table);
  Table.render table
