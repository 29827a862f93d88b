(* Table 2 — resource utilization: bare datapath vs +VM wrapper vs +DMA
   wrapper.  The scratchpad is fixed at 16K words (128 KiB) for the DMA
   column; the VM wrapper uses the default 16-entry TLB + HW walker. *)

module Table = Vmht_util.Table
module Workload = Vmht_workloads.Workload
module Optypes = Vmht_hls.Optypes

let area_cells (a : Optypes.area) =
  [ string_of_int a.Optypes.lut; string_of_int a.Optypes.ff;
    string_of_int a.Optypes.dsp; string_of_int a.Optypes.bram ]

let pct base v = Printf.sprintf "+%.0f%%" (Vmht_util.Stats.percent_delta base v)

let run base =
  let config = { base with Vmht.Config.scratchpad_words = 16384 } in
  let table =
    Table.create
      ~title:
        "Table 2: resource utilization (LUT/FF/DSP/BRAM) — bare datapath, \
         +VM wrapper (16-entry TLB, HW walker), +DMA wrapper (128 KiB \
         scratchpad)"
      ~headers:
        [
          "kernel"; "LUT"; "FF"; "DSP"; "BRAM"; "VM LUT"; "VM FF"; "VM ovh";
          "DMA LUT"; "DMA FF"; "DMA BRAM"; "DMA ovh";
        ]
  in
  Vmht_par.Parmap.map
    (fun (w : Workload.t) ->
      let vm = Common.synthesize ~config Vmht.Wrapper.Vm_iface w in
      let dma = Common.synthesize ~config Vmht.Wrapper.Dma_iface w in
      let bare = vm.Vmht.Flow.datapath_area in
      let vm_total = vm.Vmht.Flow.total_area in
      let dma_total = dma.Vmht.Flow.total_area in
      [ w.Workload.name ]
      @ area_cells bare
      @ [
          string_of_int vm_total.Optypes.lut;
          string_of_int vm_total.Optypes.ff;
          pct
            (float_of_int (bare.Optypes.lut + bare.Optypes.ff))
            (float_of_int (vm_total.Optypes.lut + vm_total.Optypes.ff));
          string_of_int dma_total.Optypes.lut;
          string_of_int dma_total.Optypes.ff;
          string_of_int dma_total.Optypes.bram;
          pct
            (float_of_int (bare.Optypes.lut + bare.Optypes.ff))
            (float_of_int (dma_total.Optypes.lut + dma_total.Optypes.ff));
        ])
    Vmht_workloads.Registry.all
  |> List.iter (Table.add_row table);
  Table.render table
