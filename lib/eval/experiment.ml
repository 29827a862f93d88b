type kind = Table | Figure | Ablation | Sweep

let kind_name = function
  | Table -> "table"
  | Figure -> "figure"
  | Ablation -> "ablation"
  | Sweep -> "sweep"

type t = {
  name : string;
  doc : string;
  kind : kind;
  run : Vmht.Config.t -> string;
}

(* Report order; every consumer (the CLI, run_all, help text) derives its
   listing from this one place. *)
let all =
  [
    {
      name = "table1";
      doc = "kernel suite: cycles and speedups, sw vs dma vs vm";
      kind = Table;
      run = Table1.run;
    };
    {
      name = "table2";
      doc = "capacity cliff: copy-based fails where VM threads keep going";
      kind = Table;
      run = Table2.run;
    };
    {
      name = "table3";
      doc = "cycle attribution: where the time goes in each style";
      kind = Table;
      run = Table3.run;
    };
    {
      name = "table4";
      doc = "synthesized wrapper area: dma vs vm interface logic";
      kind = Table;
      run = Table4.run;
    };
    {
      name = "table5";
      doc = "design productivity: source lines vs handled VM machinery";
      kind = Table;
      run = Table5.run;
    };
    {
      name = "table6";
      doc = "sharing & protection: two processes, one accelerator";
      kind = Table;
      run = Table6.run;
    };
    {
      name = "fig1";
      doc = "speedup vs data size: the copy-based capacity cliff";
      kind = Figure;
      run = Fig1.run;
    };
    {
      name = "fig2";
      doc = "runtime and hit rate vs TLB entries";
      kind = Figure;
      run = Fig2.run;
    };
    {
      name = "fig3";
      doc = "runtime vs page size";
      kind = Figure;
      run = Fig3.run;
    };
    {
      name = "fig4";
      doc = "miss handling: hardware walker vs software refill";
      kind = Figure;
      run = Fig4.run;
    };
    {
      name = "fig5";
      doc = "synthesis time and FSM size vs unroll factor";
      kind = Figure;
      run = Fig5.run;
    };
    {
      name = "fig6";
      doc = "multi-thread scaling on the shared bus";
      kind = Figure;
      run = Fig6.run;
    };
    {
      name = "abl1";
      doc = "wrapper stream-buffer size sweep";
      kind = Ablation;
      run = Abl1.run;
    };
    {
      name = "abl2";
      doc = "TLB organization: associativity and replacement";
      kind = Ablation;
      run = Abl2.run;
    };
    {
      name = "abl3";
      doc = "datapath parallelism: unroll x memory ports";
      kind = Ablation;
      run = Abl3.run;
    };
    {
      name = "abl4";
      doc = "loop pipelining on vs off, achieved II";
      kind = Ablation;
      run = Abl4.run;
    };
    {
      name = "abl5";
      doc = "optimization level: -O0/-O1/-O2 pass schedules";
      kind = Ablation;
      run = Abl5.run;
    };
    {
      name = "abl6";
      doc = "translation hierarchy: shared L2 TLB and page-walk cache";
      kind = Ablation;
      run = Abl6.run;
    };
    {
      name = "robust";
      doc = "fault injection: recovery overhead, vm vs copy-based";
      kind = Sweep;
      run = Robust.run;
    };
    {
      name = "rtl1";
      doc = "RTL loop closed: emitted Verilog vs model executor, cycle-exact";
      kind = Sweep;
      run = Rtl1.run;
    };
    {
      name = "dse1";
      doc = "design-space exploration: unroll x banks x opt x TLB Pareto front";
      kind = Sweep;
      run = Dse.run;
    };
  ]

let find name = List.find_opt (fun e -> e.name = name) all

let by_kind kind = List.filter (fun e -> e.kind = kind) all

let run ?(config = Vmht.Config.default) e = e.run config

(* Experiments fan out across the domain pool (and, inside each, their
   sweep points fan out again — [Common.par_map] nests safely).  The
   rendered sections come back in registry order and mismatches merge
   in submission order, so the output is byte-identical to a
   sequential run. *)
let run_all ?(config = Vmht.Config.default) () =
  String.concat "\n"
    (Common.par_map
       (fun e -> Printf.sprintf "===== %s =====\n%s" e.name (run ~config e))
       all)
