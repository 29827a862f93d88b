(* Table 1 — benchmark characteristics: static code metrics from the
   compiler plus dynamic instruction/memory profiles from a software
   run at the default size. *)

module Table = Vmht_util.Table
module Workload = Vmht_workloads.Workload
module Fsm = Vmht_hls.Fsm
module Cpu = Vmht_cpu.Cpu

let run base =
  let table =
    Table.create
      ~title:
        "Table 1: benchmark characteristics (dynamic profile at default size)"
      ~headers:
        [
          "kernel"; "pattern"; "ptr"; "LoC"; "IR ops"; "blocks"; "states";
          "dyn instrs"; "loads"; "stores"; "data words";
        ]
  in
  Vmht_par.Parmap.map
    (fun (w : Workload.t) ->
      let hw = Common.synthesize ~config:base Vmht.Wrapper.Vm_iface w in
      let stats = hw.Vmht.Flow.fsm.Fsm.stats in
      let outcome =
        Common.run ~config:base Common.Sw w ~size:w.Workload.default_size
      in
      let cpu_stats = Cpu.stats (Vmht.Soc.cpu outcome.Common.soc) in
      let accel_loads, accel_stores =
        (* Count loads/stores from the software profile: the CPU's
           memory accesses split by re-running is overkill; report the
           combined count and the split from the accel run instead. *)
        let o =
          Common.run ~config:base Common.Vm w ~size:w.Workload.default_size
        in
        match o.Common.result.Vmht.Launch.accel_stats with
        | Some s -> (s.Vmht_hls.Accel.loads, s.Vmht_hls.Accel.stores)
        | None -> (0, 0)
      in
      [
        w.Workload.name;
        w.Workload.pattern;
        (if w.Workload.pointer_based then "yes" else "no");
        string_of_int (Common.source_lines w);
        string_of_int stats.Fsm.ir_instrs;
        string_of_int stats.Fsm.blocks;
        string_of_int stats.Fsm.states;
        Table.fmt_int cpu_stats.Cpu.instructions;
        Table.fmt_int accel_loads;
        Table.fmt_int accel_stores;
        Table.fmt_int outcome.Common.instance.Workload.data_words;
      ])
    Vmht_workloads.Registry.all
  |> List.iter (Table.add_row table);
  Table.render table
