(* Table 3 — end-to-end performance at the default sizes: software
   thread vs copy-based accelerator vs VM-enabled hardware thread. *)

module Table = Vmht_util.Table
module Stats = Vmht_util.Stats
module Workload = Vmht_workloads.Workload

let run base =
  let table =
    Table.create
      ~title:
        "Table 3: end-to-end cycles and speedup over software (default sizes)"
      ~headers:
        [
          "kernel"; "size"; "SW cycles"; "DMA cycles"; "VM cycles";
          "DMA speedup"; "VM speedup"; "VM/DMA"; "ok";
        ]
  in
  let measured =
    Vmht_par.Parmap.map
      (fun (w : Workload.t) ->
        let size = w.Workload.default_size in
        let sw = Common.run ~config:base Common.Sw w ~size in
        let dma = Common.run ~config:base Common.Dma w ~size in
        let vm = Common.run ~config:base Common.Vm w ~size in
        let s_dma = Common.speedup ~baseline:sw dma in
        let s_vm = Common.speedup ~baseline:sw vm in
        let row =
          [
            w.Workload.name;
            string_of_int size;
            Table.fmt_int (Common.cycles sw);
            Table.fmt_int (Common.cycles dma);
            Table.fmt_int (Common.cycles vm);
            Table.fmt_float s_dma ^ "x";
            Table.fmt_float s_vm ^ "x";
            Table.fmt_float
              (float_of_int (Common.cycles dma)
              /. float_of_int (Common.cycles vm))
            ^ "x";
            (if sw.Common.correct && dma.Common.correct && vm.Common.correct
             then "yes"
             else "NO");
          ]
        in
        (row, s_dma, s_vm))
      Vmht_workloads.Registry.all
  in
  List.iter (fun (row, _, _) -> Table.add_row table row) measured;
  let dma_speedups = List.map (fun (_, s, _) -> s) measured in
  let vm_speedups = List.map (fun (_, _, s) -> s) measured in
  Table.add_separator table;
  Table.add_row table
    [
      "geomean"; ""; ""; ""; "";
      Table.fmt_float (Stats.geomean dma_speedups) ^ "x";
      Table.fmt_float (Stats.geomean vm_speedups) ^ "x";
    ];
  Table.render table
