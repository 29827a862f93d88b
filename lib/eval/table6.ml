(* Table 6 — thread density: how many hardware-thread instances of each
   kernel one device can host, per interface style.  The copy-based
   style is BRAM-bound by its per-thread scratchpad (128 KiB here); the
   VM style's wrapper is small and LUT/FF-bound, so a mid-size device
   hosts several times more VM-enabled threads — the paper's
   system-level scalability argument. *)

module Table = Vmht_util.Table
module Workload = Vmht_workloads.Workload

let run base =
  let config = { base with Vmht.Config.scratchpad_words = 16384 } in
  let table =
    Table.create
      ~title:
        "Table 6: hardware-thread instances per device (DMA style with a \
         128 KiB per-thread scratchpad)"
      ~headers:
        [
          "kernel"; "7020 VM"; "7020 DMA"; "7045 VM"; "7045 DMA";
          "VM/DMA (7020)";
        ]
  in
  Vmht_par.Parmap.map
    (fun (w : Workload.t) ->
      let vm = Common.synthesize ~config Vmht.Wrapper.Vm_iface w in
      let dma = Common.synthesize ~config Vmht.Wrapper.Dma_iface w in
      let n_7020_vm = Vmht.Sysgen.max_instances ~device:Vmht.Sysgen.zynq_7020 vm in
      let n_7020_dma = Vmht.Sysgen.max_instances ~device:Vmht.Sysgen.zynq_7020 dma in
      let n_7045_vm = Vmht.Sysgen.max_instances ~device:Vmht.Sysgen.zynq_7045 vm in
      let n_7045_dma = Vmht.Sysgen.max_instances ~device:Vmht.Sysgen.zynq_7045 dma in
      [
        w.Workload.name;
        string_of_int n_7020_vm;
        string_of_int n_7020_dma;
        string_of_int n_7045_vm;
        string_of_int n_7045_dma;
        Table.fmt_float ~decimals:1
          (float_of_int n_7020_vm /. float_of_int (max 1 n_7020_dma))
        ^ "x";
      ])
    Vmht_workloads.Registry.all
  |> List.iter (Table.add_row table);
  Table.render table
