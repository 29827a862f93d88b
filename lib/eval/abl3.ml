(* Ablation 3 — datapath parallelism: loop unrolling x memory ports on
   the copy-based style, whose scratchpad is genuinely multi-ported
   BRAM (the VM wrapper's TLB+buffer port is single-issue, so extra
   ports buy it nothing — itself a finding this table documents by
   contrast).  Unrolling without ports starves on the single port;
   ports without unrolling find no parallel accesses; together they
   compound.  Reported: the accelerator's *compute* phase (staging and
   draining are identical across the sweep); the LUT column prices the
   parallelism. *)

module Table = Vmht_util.Table
module Workload = Vmht_workloads.Workload
module Schedule = Vmht_hls.Schedule
module Optypes = Vmht_hls.Optypes

let unroll_factors = [ 1; 2; 4; 8 ]

let port_counts = [ 1; 2; 4 ]

let config_with base ~unroll ~ports =
  {
    base with
    Vmht.Config.unroll;
    resources =
      { base.Vmht.Config.resources with Schedule.mem = Schedule.flat_mem ports };
  }

let run base =
  let w = Vmht_workloads.Registry.find "vecadd" in
  let table =
    Table.create
      ~title:
        "Ablation 3: vecadd (copy-based) compute cycles vs unroll factor \
         and scratchpad ports — datapath LUTs in the last column"
      ~headers:
        ("unroll"
        :: List.map (fun p -> Printf.sprintf "%d port(s)" p) port_counts
        @ [ "LUT" ])
  in
  Vmht_par.Parmap.map
    (fun unroll ->
      let cells =
        Vmht_par.Parmap.map
          (fun ports ->
            let config = config_with base ~unroll ~ports in
            let o = Common.run ~config Common.Dma w ~size:w.Workload.default_size in
            assert o.Common.correct;
            Table.fmt_int
              o.Common.result.Vmht.Launch.phases.Vmht.Launch.compute_cycles)
          port_counts
      in
      let area =
        (Common.synthesize
           ~config:(config_with base ~unroll ~ports:2)
           Vmht.Wrapper.Dma_iface w)
          .Vmht.Flow.datapath_area
      in
      (string_of_int unroll :: cells) @ [ string_of_int area.Optypes.lut ])
    unroll_factors
  |> List.iter (Table.add_row table);
  Table.render table
