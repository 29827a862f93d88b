(* Figure 1 — speedup vs data size for a streaming kernel (vecadd) and
   a pointer-chasing kernel (list_sum), copy-based vs VM-enabled.  The
   expected shape: DMA catches up (or wins) on dense streaming as
   bursts amortize its staging; VM wins pointer chasing at every size
   and everything at small sizes where fixed staging costs dominate. *)

module Plot = Vmht_util.Ascii_plot
module Workload = Vmht_workloads.Workload

let sizes = [ 256; 512; 1024; 2048; 4096; 8192; 16384; 32768; 65536 ]

(* Copy-based runs stop at the scratchpad capacity cliff; those sizes
   simply have no DMA point — which is itself part of the result. *)
let series_for base (w : Workload.t) mode =
  let points =
    Vmht_par.Parmap.map
      (fun size ->
        match Common.run ~config:base mode w ~size with
        | hw ->
          assert hw.Common.correct;
          let sw = Common.run ~config:base Common.Sw w ~size in
          Some (float_of_int size, Common.speedup ~baseline:sw hw)
        | exception Vmht.Launch.Window_overflow _ -> None)
      sizes
    |> List.filter_map Fun.id
  in
  {
    Plot.label =
      Printf.sprintf "%s (%s)" w.Workload.name (Common.mode_name mode);
    points;
  }

let run base =
  let vecadd = Vmht_workloads.Registry.find "vecadd" in
  let list_sum = Vmht_workloads.Registry.find "list_sum" in
  Plot.render ~logx:true
    ~title:
      "Figure 1: speedup over software vs data size (elements) — \
       copy-based (dma) vs VM-enabled (vm); dma series end at the \
       scratchpad capacity cliff"
    ~xlabel:"elements" ~ylabel:"speedup"
    (Vmht_par.Parmap.map
       (fun (w, mode) -> series_for base w mode)
       [
         (vecadd, Common.Dma);
         (vecadd, Common.Vm);
         (list_sum, Common.Dma);
         (list_sum, Common.Vm);
       ])
