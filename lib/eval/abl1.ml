(* Ablation 1 — the VM wrapper's stream buffer: sweep its size from
   effectively-off (one line) to 16 KiB and watch runtime and the
   buffer's share of the wrapper area.  Justifies the 4 KiB default:
   the knee sits there for the streaming kernels, while the pointer
   chase barely cares (its locality is in the TLB, not in lines). *)

module Table = Vmht_util.Table
module Workload = Vmht_workloads.Workload
module Cache = Vmht_mem.Cache

let sizes_bytes = [ 32; 512; 1024; 4096; 16384 ]

let label_of bytes = if bytes = 32 then "off (1 line)" else Printf.sprintf "%dB" bytes

let config_with_buffer base bytes =
  let ways = if bytes <= 32 then 1 else 4 in
  {
    base with
    Vmht.Config.accel_stream_buffer =
      { Cache.size_bytes = bytes; line_bytes = 32; ways; hit_latency = 1 };
  }

let run base =
  let workloads =
    List.map Vmht_workloads.Registry.find [ "vecadd"; "stencil3"; "list_sum" ]
  in
  let table =
    Table.create
      ~title:
        "Ablation 1: VM-thread cycles vs wrapper stream-buffer size \
         (default sizes)"
      ~headers:("buffer" :: List.map (fun w -> w.Workload.name) workloads)
  in
  Vmht_par.Parmap.map
    (fun bytes ->
      let config = config_with_buffer base bytes in
      let cells =
        Vmht_par.Parmap.map
          (fun w ->
            let o = Common.run ~config Common.Vm w ~size:w.Workload.default_size in
            assert o.Common.correct;
            Table.fmt_int (Common.cycles o))
          workloads
      in
      label_of bytes :: cells)
    sizes_bytes
  |> List.iter (Table.add_row table);
  Table.render table
