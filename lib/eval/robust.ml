(* Robustness experiment — fault injection and recovery cost across
   execution styles.

   Sweeps a uniform fault rate over four kernels in all three styles
   and reports the recovery overhead: extra cycles the faulty run pays
   over the fault-free run at the same seed.  The structural claim the
   table demonstrates is the paper's: VM-enabled threads recover
   *locally* (a shootdown re-walks, a transient walk retries in place,
   a bus error stretches one transaction), while the copy-based style
   must re-run its whole copy-in/compute/copy-out whenever a staged
   DMA burst aborts — so on the pointer kernels the VM style's
   recovery overhead is strictly smaller.

   Fully deterministic: the fault schedule is a pure function of
   (config, seed), so the rendered table is byte-identical at any
   parallel-harness width. *)

module Table = Vmht_util.Table
module Workload = Vmht_workloads.Workload
module Plan = Vmht_fault.Plan
module Injector = Vmht_fault.Injector

let kernels = [ "vecadd"; "list_sum"; "tree_search"; "bfs" ]

let styles = [ Common.Sw; Common.Dma; Common.Vm ]

(* Low enough that recovery dominates re-execution only mildly, high
   enough that every style actually sees faults (at 1e-3 the copy-based
   style's handful of bursts rarely draws one, which would make the
   comparison vacuous). *)
let default_rates = [ 0.005; 0.02 ]

(* A config arriving with faults already enabled (the CLI's
   [--fault-rate]) *is* the sweep; otherwise sweep the defaults. *)
let plans (base : Vmht.Config.t) =
  if base.Vmht.Config.fault.Plan.enabled then [ base.Vmht.Config.fault ]
  else List.map (fun rate -> Plan.uniform ~rate) default_rates

type cell = {
  clean : int;
  faulty : int;
  correct : bool;
  stats : Injector.stats;
}

let overhead_pct c =
  100. *. float_of_int (c.faulty - c.clean) /. float_of_int (max 1 c.clean)

let measure base plan (w : Workload.t) style =
  let size = w.Workload.default_size in
  let seed = base.Vmht.Config.seed in
  let clean =
    Common.run ~config:(Vmht.Config.with_fault base Plan.none) ~seed style w
      ~size
  in
  let faulty =
    Common.run ~config:(Vmht.Config.with_fault base plan) ~seed style w ~size
  in
  assert clean.Common.correct;
  {
    clean = Common.cycles clean;
    faulty = Common.cycles faulty;
    correct = faulty.Common.correct;
    stats = Vmht.Soc.fault_stats faulty.Common.soc;
  }

let run base =
  let workloads = List.map Vmht_workloads.Registry.find kernels in
  let measurements =
    Vmht_par.Parmap.map
      (fun plan ->
        ( plan,
          Vmht_par.Parmap.map
            (fun w ->
              ( w,
                Vmht_par.Parmap.map
                  (fun style -> (style, measure base plan w style))
                  styles ))
            workloads ))
      (plans base)
  in
  let table =
    Table.create
      ~title:
        "Robustness: recovery overhead under injected faults — cycles \
         (fault-free vs faulty), extra %, and what was injected"
      ~headers:
        [
          "rate"; "kernel"; "style"; "clean"; "faulty"; "overhead"; "inj";
          "retries"; "aborts"; "ok";
        ]
  in
  List.iteri
    (fun i (plan, per_kernel) ->
      if i > 0 then Table.add_separator table;
      List.iter
        (fun ((w : Workload.t), per_style) ->
          List.iter
            (fun (style, c) ->
              Table.add_row table
                [
                  Plan.to_string plan;
                  w.Workload.name;
                  Common.mode_name style;
                  Table.fmt_int c.clean;
                  Table.fmt_int c.faulty;
                  Printf.sprintf "+%.1f%%" (overhead_pct c);
                  string_of_int c.stats.Injector.injected;
                  string_of_int c.stats.Injector.retries;
                  string_of_int c.stats.Injector.aborts;
                  (if c.correct then "yes" else "NO");
                ])
            per_style)
        per_kernel)
    measurements;
  (* The headline comparison: on the pointer kernels, local VM recovery
     vs whole-thread copy-based re-runs. *)
  let summary =
    List.concat_map
      (fun (plan, per_kernel) ->
        List.filter_map
          (fun ((w : Workload.t), per_style) ->
            if not (List.mem w.Workload.name [ "list_sum"; "tree_search"; "bfs" ])
            then None
            else
              let find style = List.assoc style per_style in
              let vm = find Common.Vm and dma = find Common.Dma in
              Some
                (Printf.sprintf
                   "  %-12s @ %-14s vm +%.1f%% vs dma +%.1f%% — %s" w.Workload.name
                   (Plan.to_string plan) (overhead_pct vm) (overhead_pct dma)
                   (if overhead_pct vm < overhead_pct dma then
                      "VM recovery cheaper"
                    else "copy-based cheaper")))
          per_kernel)
      measurements
  in
  Table.render table ^ "\nPointer kernels, recovery overhead:\n"
  ^ String.concat "\n" summary ^ "\n"
