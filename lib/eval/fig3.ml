(* Figure 3 — sensitivity to page size.  Larger pages mean fewer TLB
   misses for a fixed working set (each entry covers more data) at the
   cost of heavier demand-fault granularity; the pointer chase benefits
   most. *)

module Plot = Vmht_util.Ascii_plot
module Workload = Vmht_workloads.Workload

let page_shifts = [ 10; 11; 12; 13; 14; 15; 16 ]

let series_for base (w : Workload.t) =
  let points =
    Vmht_par.Parmap.map
      (fun shift ->
        let config = Vmht.Config.with_page_shift base shift in
        let o = Common.run ~config Common.Vm w ~size:w.Workload.default_size in
        assert o.Common.correct;
        (float_of_int (1 lsl shift), float_of_int (Common.cycles o)))
      page_shifts
  in
  { Plot.label = w.Workload.name; points }

let run base =
  Plot.render ~logx:true
    ~title:"Figure 3: VM-thread runtime vs page size (bytes)"
    ~xlabel:"page bytes" ~ylabel:"cycles"
    (Vmht_par.Parmap.map
       (fun name -> series_for base (Vmht_workloads.Registry.find name))
       [ "list_sum"; "mmul"; "spmv" ])
