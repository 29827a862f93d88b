(* Figure 2 — sensitivity to TLB size: runtime and hit rate vs entry
   count.  Runtime saturates once the TLB covers the working set of
   pages; the pointer chase needs far more entries than streaming. *)

module Plot = Vmht_util.Ascii_plot
module Table = Vmht_util.Table
module Workload = Vmht_workloads.Workload
module Mmu = Vmht_vm.Mmu

let entry_counts = [ 2; 4; 8; 16; 32; 64; 128 ]

let measure base (w : Workload.t) entries =
  let config = Vmht.Config.with_tlb_entries base entries in
  let o = Common.run ~config Common.Vm w ~size:w.Workload.default_size in
  assert o.Common.correct;
  let hit_rate = Option.value ~default:0. o.Common.result.Vmht.Launch.tlb_hit_rate in
  (Common.cycles o, hit_rate)

let run base =
  let workloads =
    List.map Vmht_workloads.Registry.find [ "vecadd"; "spmv"; "list_sum" ]
  in
  let measurements =
    Vmht_par.Parmap.map
      (fun w ->
        (w, Vmht_par.Parmap.map (fun e -> (e, measure base w e)) entry_counts))
      workloads
  in
  let series =
    List.map
      (fun ((w : Workload.t), points) ->
        (* Normalize to the largest-TLB runtime so kernels share a scale. *)
        let best =
          List.fold_left (fun acc (_, (c, _)) -> min acc c) max_int points
        in
        {
          Plot.label = w.Workload.name;
          points =
            List.map
              (fun (e, (c, _)) ->
                (float_of_int e, float_of_int c /. float_of_int best))
              points;
        })
      measurements
  in
  let plot =
    Plot.render ~logx:true
      ~title:
        "Figure 2: VM-thread runtime vs TLB entries (normalized to the \
         saturated runtime)"
      ~xlabel:"TLB entries" ~ylabel:"relative runtime" series
  in
  let table =
    Table.create ~title:"Figure 2 (data): TLB hit rates"
      ~headers:
        ("kernel" :: List.map string_of_int entry_counts)
  in
  List.iter
    (fun ((w : Workload.t), points) ->
      Table.add_row table
        (w.Workload.name
        :: List.map
             (fun (_, (_, hr)) -> Table.fmt_float ~decimals:3 hr)
             points))
    measurements;
  plot ^ "\n" ^ Table.render table
