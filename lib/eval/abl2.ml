(* Ablation 2 — TLB organization: replacement policy and associativity
   at a fixed 16-entry budget.  Full associativity pays off for the
   scattered pointer chase (conflict misses dominate in the 1-way
   organization); LRU beats FIFO most where re-reference is common. *)

module Table = Vmht_util.Table
module Workload = Vmht_workloads.Workload
module Tlb = Vmht_vm.Tlb
module Mmu = Vmht_vm.Mmu

let organizations =
  [
    ("full/LRU", { Tlb.entries = 16; assoc = 0; policy = Tlb.Lru });
    ("full/FIFO", { Tlb.entries = 16; assoc = 0; policy = Tlb.Fifo });
    ("4-way/LRU", { Tlb.entries = 16; assoc = 4; policy = Tlb.Lru });
    ("4-way/FIFO", { Tlb.entries = 16; assoc = 4; policy = Tlb.Fifo });
    ("1-way", { Tlb.entries = 16; assoc = 1; policy = Tlb.Lru });
  ]

let measure base tlb (w : Workload.t) =
  let config =
    { base with Vmht.Config.mmu = { base.Vmht.Config.mmu with Mmu.tlb } }
  in
  let o = Common.run ~config Common.Vm w ~size:w.Workload.default_size in
  assert o.Common.correct;
  let hit_rate =
    Option.value ~default:0. o.Common.result.Vmht.Launch.tlb_hit_rate
  in
  (Common.cycles o, hit_rate)

let run base =
  let workloads =
    List.map Vmht_workloads.Registry.find [ "spmv"; "list_sum"; "tree_search" ]
  in
  let table =
    Table.create
      ~title:
        "Ablation 2: TLB organization at 16 entries — cycles (hit rate)"
      ~headers:("organization" :: List.map (fun w -> w.Workload.name) workloads)
  in
  Vmht_par.Parmap.map
    (fun (name, tlb) ->
      let cells =
        Vmht_par.Parmap.map
          (fun w ->
            let cycles, hr = measure base tlb w in
            Printf.sprintf "%s (%.3f)" (Table.fmt_int cycles) hr)
          workloads
      in
      name :: cells)
    organizations
  |> List.iter (Table.add_row table);
  Table.render table
