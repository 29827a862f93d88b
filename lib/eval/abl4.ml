(* Ablation 4 — loop pipelining (the extension mode): plain FSM
   execution vs modulo-scheduled loops, with the achieved initiation
   interval.  Latency-bound pointer chases gain nothing (their
   recurrence *is* the memory latency); everything with independent
   iterations gains up to [iteration / II]. *)

module Table = Vmht_util.Table
module Workload = Vmht_workloads.Workload
module Fsm = Vmht_hls.Fsm
module Pipeliner = Vmht_hls.Pipeliner

let subjects =
  [ "vecadd"; "saxpy"; "dotprod"; "mmul"; "histogram"; "list_sum" ]

let run base =
  let table =
    Table.create
      ~title:
        "Ablation 4: loop pipelining — VM-thread cycles, FSM vs \
         modulo-scheduled (achieved II vs FSM iteration length)"
      ~headers:[ "kernel"; "FSM"; "pipelined"; "gain"; "II"; "iter cycles" ]
  in
  Vmht_par.Parmap.map
    (fun name ->
      let w = Vmht_workloads.Registry.find name in
      let size = w.Workload.default_size in
      let off = Common.run ~config:base Common.Vm w ~size in
      let config = Vmht.Config.with_pipelining base true in
      let on = Common.run ~config Common.Vm w ~size in
      assert (off.Common.correct && on.Common.correct);
      let ii, iter =
        match on.Common.hw with
        | Some hw -> (
          match hw.Vmht.Flow.fsm.Fsm.plans with
          | p :: _ -> (p.Pipeliner.ii, p.Pipeliner.unpipelined_cycles)
          | [] -> (0, 0))
        | None -> (0, 0)
      in
      [
        name;
        Table.fmt_int (Common.cycles off);
        Table.fmt_int (Common.cycles on);
        Table.fmt_float
          (float_of_int (Common.cycles off) /. float_of_int (Common.cycles on))
        ^ "x";
        string_of_int ii;
        string_of_int iter;
      ])
    subjects
  |> List.iter (Table.add_row table);
  Table.render table
