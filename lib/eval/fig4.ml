(* Figure 4 — translation-miss handling: hardware page-table walker vs
   software TLB refills.  Small TLBs make the miss path dominant; the
   hardware walker's advantage grows with the miss rate. *)

module Plot = Vmht_util.Ascii_plot
module Workload = Vmht_workloads.Workload
module Mmu = Vmht_vm.Mmu

let entry_counts = [ 2; 4; 8; 16; 32 ]

let series_for base (w : Workload.t) ~hw_walk =
  let points =
    Vmht_par.Parmap.map
      (fun entries ->
        let sized = Vmht.Config.with_tlb_entries base entries in
        let config =
          {
            sized with
            Vmht.Config.mmu = { sized.Vmht.Config.mmu with Mmu.hw_walk };
          }
        in
        let o = Common.run ~config Common.Vm w ~size:w.Workload.default_size in
        assert o.Common.correct;
        (float_of_int entries, float_of_int (Common.cycles o)))
      entry_counts
  in
  {
    Plot.label =
      Printf.sprintf "%s (%s)" w.Workload.name
        (if hw_walk then "hw walker" else "sw refill");
    points;
  }

let run base =
  let spmv = Vmht_workloads.Registry.find "spmv" in
  let list_sum = Vmht_workloads.Registry.find "list_sum" in
  Plot.render ~logx:true ~logy:true
    ~title:
      "Figure 4: miss-handling style — hardware walker vs software TLB \
       refill, runtime vs TLB size"
    ~xlabel:"TLB entries" ~ylabel:"cycles"
    (Vmht_par.Parmap.map
       (fun (w, hw_walk) -> series_for base w ~hw_walk)
       [
         (spmv, true);
         (spmv, false);
         (list_sum, true);
         (list_sum, false);
       ])
