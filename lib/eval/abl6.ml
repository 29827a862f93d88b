(* Ablation 6 — translation hierarchy: the per-thread L1 TLB alone,
   plus the SoC-shared second-level TLB, plus the walker's page-walk
   cache.  The pointer-chasing subjects are the ones whose sparse
   reference streams blow the 16-entry L1; the L2 catches the reuse the
   L1 is too small to hold, and the walk cache halves the bus reads of
   the walks that remain.  Walk cycles must strictly shrink at each
   added level on every subject. *)

module Table = Vmht_util.Table
module Workload = Vmht_workloads.Workload
module Tlb = Vmht_vm.Tlb
module Tlb2 = Vmht_vm.Tlb2
module Mmu = Vmht_vm.Mmu

let l2_geometry =
  {
    Tlb2.enabled = true;
    entries = 128;
    assoc = 4;
    policy = Tlb.Lru;
    hit_cycles = 2;
  }

let variants =
  [
    ( "L1 only",
      fun base ->
        Vmht.Config.with_walk_cache
          (Vmht.Config.with_tlb2 base { l2_geometry with Tlb2.enabled = false })
          0 );
    ("+L2", fun base -> Vmht.Config.with_walk_cache
          (Vmht.Config.with_tlb2 base l2_geometry) 0);
    ( "+L2+PWC",
      fun base ->
        Vmht.Config.with_walk_cache (Vmht.Config.with_tlb2 base l2_geometry) 8
    );
  ]

let measure config (w : Workload.t) =
  let o = Common.run ~config Common.Vm w ~size:w.Workload.default_size in
  assert o.Common.correct;
  let m = Option.get o.Common.result.Vmht.Launch.mmu_stats in
  (Common.cycles o, m.Mmu.walk_cycles)

let run base =
  let workloads =
    List.map Vmht_workloads.Registry.find
      [ "spmv"; "bfs"; "list_sum"; "tree_search" ]
  in
  let table =
    Table.create
      ~title:
        "Ablation 6: two-level TLB hierarchy — cycles (walk cycles)"
      ~headers:
        ("kernel"
        :: List.map fst variants
        @ [ "walk reduction" ])
  in
  Vmht_par.Parmap.map
    (fun w ->
      let results =
        Vmht_par.Parmap.map (fun (_, cfg) -> measure (cfg base) w) variants
      in
      let _, l1_walk = List.hd results in
      let _, full_walk = List.nth results (List.length results - 1) in
      (* The full hierarchy must strictly beat the bare L1 on walk
         cycles — the claim this ablation exists to check. *)
      assert (full_walk < l1_walk);
      w.Workload.name
      :: List.map
           (fun (cycles, walk) ->
             Printf.sprintf "%s (%s)" (Table.fmt_int cycles)
               (Table.fmt_int walk))
           results
      @ [
          Printf.sprintf "%.2fx"
            (float_of_int l1_walk /. float_of_int (max 1 full_walk));
        ])
    workloads
  |> List.iter (Table.add_row table);
  Table.render table
