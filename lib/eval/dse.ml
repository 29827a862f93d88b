(* Design-space exploration — the dse1 sweep.

   One synthesis + simulation per point of the cross product
   unroll x scratchpad banks x optimization level x TLB entries, per
   kernel, fanned out over the domain pool ([Common.par_map], so the
   output is byte-identical at any -j width and every point reuses the
   synthesis cache across repeat invocations).  Each kernel gets a
   Pareto front over (total cycles, total LUT): banks and unroll buy
   cycles with datapath area, the TLB geometry buys cycles with wrapper
   area, and -O0 exists to be dominated — a non-trivial front needs
   both knobs that pay in area and knobs that never pay off. *)

module Table = Vmht_util.Table
module Workload = Vmht_workloads.Workload
module Json = Vmht_obs.Json
module Optypes = Vmht_hls.Optypes

type axes = {
  unrolls : int list;
  banks : int list;
  opts : int list;
  tlbs : int list;
}

let default_axes =
  { unrolls = [ 1; 2; 4 ]; banks = [ 1; 2; 4 ]; opts = [ 0; 2 ]; tlbs = [ 8; 32 ] }

let default_kernels = [ "vecadd"; "saxpy"; "dotprod"; "stencil3" ]

let default_size = 256

type point = {
  kernel : string;
  unroll : int;
  banks : int;
  opt : int;
  tlb : int;
  cycles : int;
  lut : int;
  ff : int;
  pareto : bool;
}

let config_of base ~unroll ~banks ~opt ~tlb =
  Vmht.Config.with_tlb_entries
    (Vmht.Config.with_opt_level
       (Vmht.Config.with_banks (Vmht.Config.with_unroll base unroll) banks)
       opt)
    tlb

(* Minimize both cycles and LUT; a point is on the front iff no other
   point of the same kernel is at least as good on both axes and
   strictly better on one. *)
let dominates a b =
  a.cycles <= b.cycles && a.lut <= b.lut
  && (a.cycles < b.cycles || a.lut < b.lut)

let mark_pareto points =
  List.map
    (fun p -> { p with pareto = not (List.exists (fun q -> dominates q p) points) })
    points

(* Every point's config is built before the sweep fans out, so an axis
   value the config rejects ([with_banks] below 1) raises before any
   point runs. *)
let explore ?(size = default_size) ?(axes = default_axes)
    ?(kernels = default_kernels) base =
  let grid =
    List.concat_map
      (fun kernel ->
        List.concat_map
          (fun unroll ->
            List.concat_map
              (fun banks ->
                List.concat_map
                  (fun opt ->
                    List.map
                      (fun tlb ->
                        ( (kernel, unroll, banks, opt, tlb),
                          config_of base ~unroll ~banks ~opt ~tlb ))
                      axes.tlbs)
                  axes.opts)
              axes.banks)
          axes.unrolls)
      kernels
  in
  let points =
    Common.par_map
      (fun ((kernel, unroll, banks, opt, tlb), config) ->
        let w = Vmht_workloads.Registry.find kernel in
        let o = Common.run ~config Common.Vm w ~size in
        assert o.Common.correct;
        let area =
          match o.Common.hw with
          | Some hw -> hw.Vmht.Flow.total_area
          | None -> Optypes.zero_area
        in
        {
          kernel;
          unroll;
          banks;
          opt;
          tlb;
          cycles = o.Common.result.Vmht.Launch.total_cycles;
          lut = area.Optypes.lut;
          ff = area.Optypes.ff;
          pareto = false;
        })
      grid
  in
  List.concat_map
    (fun kernel ->
      mark_pareto (List.filter (fun p -> p.kernel = kernel) points))
    kernels

let by_quality a b =
  compare
    (a.cycles, a.lut, a.unroll, a.banks, a.opt, a.tlb)
    (b.cycles, b.lut, b.unroll, b.banks, b.opt, b.tlb)

let render ?(size = default_size) points =
  let kernels =
    List.fold_left
      (fun acc p -> if List.mem p.kernel acc then acc else p.kernel :: acc)
      [] points
    |> List.rev
  in
  String.concat "\n"
    (List.map
       (fun kernel ->
         let all = List.filter (fun p -> p.kernel = kernel) points in
         let front = List.sort by_quality (List.filter (fun p -> p.pareto) all) in
         let table =
           Table.create
             ~title:
               (Printf.sprintf
                  "DSE: %s (vm, size %d) — Pareto front over cycles vs LUT \
                   (%d of %d points; %d dominated)"
                  kernel size (List.length front) (List.length all)
                  (List.length all - List.length front))
             ~headers:[ "unroll"; "banks"; "opt"; "tlb"; "cycles"; "LUT"; "FF" ]
         in
         List.iter
           (fun p ->
             Table.add_row table
               [
                 string_of_int p.unroll;
                 string_of_int p.banks;
                 Printf.sprintf "-O%d" p.opt;
                 string_of_int p.tlb;
                 Table.fmt_int p.cycles;
                 Table.fmt_int p.lut;
                 Table.fmt_int p.ff;
               ])
           front;
         Table.render table)
       kernels)

let manifest ?(size = default_size) points =
  Json.Obj
    [
      ("schema", Json.String "vmht-dse/1");
      ("mode", Json.String "vm");
      ("size", Json.Int size);
      ( "points",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("kernel", Json.String p.kernel);
                   ("unroll", Json.Int p.unroll);
                   ("banks", Json.Int p.banks);
                   ("opt", Json.Int p.opt);
                   ("tlb", Json.Int p.tlb);
                   ("cycles", Json.Int p.cycles);
                   ("lut", Json.Int p.lut);
                   ("ff", Json.Int p.ff);
                   ("pareto", Json.Bool p.pareto);
                 ])
             points) );
    ]

let run base = render (explore base)
