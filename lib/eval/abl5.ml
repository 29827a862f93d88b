(* Ablation 5 — optimization level: VM-thread cycles under the -O0,
   -O1 and -O2 pass schedules, with the optimizer's instruction counts.
   The pointer-based kernels are where the memory passes (store
   forwarding, address-chain strength reduction) live, so -O2 must
   strictly beat -O0 on every one of them; the opt level is part of
   the synthesis key, so the three variants never share a synthesis
   cache slot. *)

module Table = Vmht_util.Table
module Workload = Vmht_workloads.Workload
module Fsm = Vmht_hls.Fsm
module Pm = Vmht_ir.Pass_manager

let subjects = [ "vecadd"; "mmul"; "spmv"; "list_sum"; "tree_search"; "bfs" ]

let run base =
  let table =
    Table.create
      ~title:
        "Ablation 5: optimization level — VM-thread cycles and IR size \
         under the -O0/-O1/-O2 pass schedules"
      ~headers:
        [ "kernel"; "O0"; "O1"; "O2"; "O2 gain"; "IR O0"; "IR O2" ]
  in
  Common.par_map
    (fun name ->
      let w = Vmht_workloads.Registry.find name in
      let size = w.Workload.default_size in
      let at level =
        Common.run
          ~config:(Vmht.Config.with_opt_level base level)
          Common.Vm w ~size
      in
      let o0 = at 0 and o1 = at 1 and o2 = at 2 in
      assert (o0.Common.correct && o1.Common.correct && o2.Common.correct);
      let instrs outcome =
        match outcome.Common.hw with
        | Some hw ->
          hw.Vmht.Flow.fsm.Fsm.stats.Fsm.opt_report.Pm.instrs_after
        | None -> 0
      in
      [
        name;
        Table.fmt_int (Common.cycles o0);
        Table.fmt_int (Common.cycles o1);
        Table.fmt_int (Common.cycles o2);
        Table.fmt_float
          (float_of_int (Common.cycles o0) /. float_of_int (Common.cycles o2))
        ^ "x";
        string_of_int (instrs o0);
        string_of_int (instrs o2);
      ])
    subjects
  |> List.iter (Table.add_row table);
  Table.render table
