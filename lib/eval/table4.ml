(* Table 4 — synthesis statistics: what the optimizer and the scheduler
   did to each kernel. *)

module Table = Vmht_util.Table
module Workload = Vmht_workloads.Workload
module Fsm = Vmht_hls.Fsm
module Bind = Vmht_hls.Bind
module Pm = Vmht_ir.Pass_manager

let run base =
  let table =
    Table.create
      ~title:"Table 4: synthesis flow statistics per kernel"
      ~headers:
        [
          "kernel"; "IR in"; "IR out"; "folds"; "cse"; "st fwd"; "str red";
          "licm"; "dce"; "states"; "FUs"; "regs";
        ]
  in
  (* Synthesis wall time is host time: its own table, on [host:] lines. *)
  let times =
    Table.create ~title:"Table 4 (host): synthesis wall time per kernel"
      ~headers:[ "kernel"; "synth ms" ]
  in
  Common.par_map
    (fun (w : Workload.t) ->
      let hw = Common.synthesize ~config:base Vmht.Wrapper.Vm_iface w in
      let stats = hw.Vmht.Flow.fsm.Fsm.stats in
      let report = stats.Fsm.opt_report in
      let rw pass = string_of_int (Pm.rewrites report pass) in
      ( [
          w.Workload.name;
          string_of_int report.Pm.instrs_before;
          string_of_int report.Pm.instrs_after;
          rw "const_fold";
          rw "cse";
          rw "store_forward";
          rw "strength_reduce";
          rw "licm";
          rw "dce";
          string_of_int stats.Fsm.states;
          string_of_int (Bind.total_fus hw.Vmht.Flow.fsm.Fsm.binding);
          string_of_int stats.Fsm.reg_count;
        ],
        Table.fmt_float (hw.Vmht.Flow.synthesis_seconds *. 1000.) ))
    Vmht_workloads.Registry.all
  |> List.iter (fun (row, ms) ->
         Table.add_row table row;
         Table.add_row times [ List.hd row; ms ]);
  Table.render table ^ "\n" ^ Common.host_lines (Table.render times)
