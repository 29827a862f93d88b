open Vmht_vm
module Phys_mem = Vmht_mem.Phys_mem
module Bus = Vmht_mem.Bus
module Dram = Vmht_mem.Dram
module Engine = Vmht_sim.Engine

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let make_world ?(page_shift = 12) () =
  let bytes = 1 lsl 22 in
  let phys = Phys_mem.create ~bytes in
  let dram = Dram.create () in
  let bus = Bus.create ~engine:(Engine.create ()) phys dram in
  let frames =
    Frame_alloc.create ~base:0 ~bytes ~page_bytes:(1 lsl page_shift)
  in
  let aspace = Addr_space.create phys frames ~page_shift ~va_bits:24 in
  (phys, bus, frames, aspace)

(* Run a simulated process on the bus's engine to completion and
   return its value (with the cycles it took). *)
let in_sim bus f =
  let eng = Bus.engine bus in
  let result = ref None in
  Engine.spawn eng (fun () -> result := Some (f ()));
  Engine.run eng;
  Option.get !result

let in_sim_timed bus f =
  let start = Engine.now (Bus.engine bus) in
  in_sim bus (fun () ->
      let v = f () in
      (v, Engine.now (Bus.engine bus) - start))

(* ------------------------- Frame_alloc ---------------------------- *)

let test_frames_distinct () =
  let fa = Frame_alloc.create ~base:0 ~bytes:65536 ~page_bytes:4096 in
  let frames = List.init 16 (fun _ -> Frame_alloc.alloc fa) in
  check_int "all distinct" 16 (List.length (List.sort_uniq compare frames))

let test_frames_exhaustion_and_reuse () =
  let fa = Frame_alloc.create ~base:0 ~bytes:8192 ~page_bytes:4096 in
  let f1 = Frame_alloc.alloc fa in
  let _f2 = Frame_alloc.alloc fa in
  check_bool "exhausted" true
    (match Frame_alloc.alloc fa with
     | _ -> false
     | exception Frame_alloc.Out_of_frames -> true);
  Frame_alloc.free fa f1;
  check_int "recycled" f1 (Frame_alloc.alloc fa)

(* ------------------------- Page_table ----------------------------- *)

let test_pt_map_lookup () =
  let _, _, frames, aspace = make_world () in
  let pt = Addr_space.page_table aspace in
  let frame = Frame_alloc.alloc frames in
  Page_table.map pt ~vaddr:0x5000 ~frame ~writable:true;
  (match Page_table.lookup pt ~vaddr:0x5123 with
   | Some e ->
     check_int "frame" frame e.Page_table.frame;
     check_bool "writable" true e.Page_table.writable
   | None -> Alcotest.fail "expected mapping");
  check_bool "other page unmapped" true
    (Page_table.lookup pt ~vaddr:0x9000 = None)

let test_pt_translate_offset () =
  let _, _, frames, aspace = make_world () in
  let pt = Addr_space.page_table aspace in
  let frame = Frame_alloc.alloc frames in
  Page_table.map pt ~vaddr:0x7000 ~frame ~writable:false;
  check_bool "offset preserved" true
    (Page_table.translate pt ~vaddr:0x74F8 = Some (frame + 0x4F8))

let test_pt_double_map_rejected () =
  let _, _, frames, aspace = make_world () in
  let pt = Addr_space.page_table aspace in
  Page_table.map pt ~vaddr:0x3000 ~frame:(Frame_alloc.alloc frames)
    ~writable:true;
  check_bool "remap raises" true
    (match
       Page_table.map pt ~vaddr:0x3000 ~frame:(Frame_alloc.alloc frames)
         ~writable:true
     with
     | () -> false
     | exception Page_table.Already_mapped _ -> true)

let test_pt_unmap () =
  let _, _, frames, aspace = make_world () in
  let pt = Addr_space.page_table aspace in
  Page_table.map pt ~vaddr:0x3000 ~frame:(Frame_alloc.alloc frames)
    ~writable:true;
  Page_table.unmap pt ~vaddr:0x3000;
  check_bool "gone" true (Page_table.lookup pt ~vaddr:0x3000 = None)

let test_pt_unmap_returns_frames () =
  let _, _, frames, aspace = make_world () in
  let pt = Addr_space.page_table aspace in
  let before = Frame_alloc.allocated_count frames in
  let frame = Frame_alloc.alloc frames in
  Page_table.map pt ~vaddr:0x5000 ~frame ~writable:true;
  (* Data frame + on-demand level-2 table. *)
  check_int "map costs two frames" (before + 2)
    (Frame_alloc.allocated_count frames);
  Page_table.unmap pt ~vaddr:0x5000;
  check_int "unmap returns both" before (Frame_alloc.allocated_count frames);
  (* map → unmap → map recycles the freed frames. *)
  let frame2 = Frame_alloc.alloc frames in
  Page_table.map pt ~vaddr:0x5000 ~frame:frame2 ~writable:true;
  check_int "remap reuses freed frames" (before + 2)
    (Frame_alloc.allocated_count frames);
  check_bool "remap live" true (Page_table.lookup pt ~vaddr:0x5000 <> None)

let test_pt_shared_table_survives_partial_unmap () =
  let _, _, frames, aspace = make_world () in
  let pt = Addr_space.page_table aspace in
  (* 0x5000 and 0x6000 share one level-2 table: unmapping one page must
     not free the table out from under the other. *)
  Page_table.map pt ~vaddr:0x5000 ~frame:(Frame_alloc.alloc frames)
    ~writable:true;
  Page_table.map pt ~vaddr:0x6000 ~frame:(Frame_alloc.alloc frames)
    ~writable:true;
  Page_table.unmap pt ~vaddr:0x5000;
  check_bool "sibling mapping intact" true
    (Page_table.lookup pt ~vaddr:0x6000 <> None);
  check_int "walk still two levels" 2
    (List.length (Page_table.walk_addrs pt ~vaddr:0x6000))

let test_pt_map_unmap_churn_no_leak () =
  let _, _, frames, aspace = make_world () in
  let pt = Addr_space.page_table aspace in
  let before = Frame_alloc.allocated_count frames in
  (* Twice the physical capacity: only possible if unmap really frees
     (the regression this guards: Out_of_frames after ~capacity/2). *)
  for _ = 1 to 2 * Frame_alloc.capacity frames do
    let frame = Frame_alloc.alloc frames in
    Page_table.map pt ~vaddr:0x5000 ~frame ~writable:true;
    Page_table.unmap pt ~vaddr:0x5000
  done;
  check_int "no frames leaked" before (Frame_alloc.allocated_count frames)

let test_pt_walk_addrs () =
  let _, _, frames, aspace = make_world () in
  let pt = Addr_space.page_table aspace in
  check_int "unmapped walk stops at L1" 1
    (List.length (Page_table.walk_addrs pt ~vaddr:0xA000));
  Page_table.map pt ~vaddr:0xA000 ~frame:(Frame_alloc.alloc frames)
    ~writable:true;
  check_int "mapped walk reads two levels" 2
    (List.length (Page_table.walk_addrs pt ~vaddr:0xA000))

let prop_pt_roundtrip =
  QCheck.Test.make ~count:100 ~name:"page table: map/lookup round-trips"
    QCheck.(small_nat)
    (fun n ->
      let _, _, frames, aspace = make_world () in
      let pt = Addr_space.page_table aspace in
      let pages = List.init (1 + (n mod 30)) (fun i -> (i * 3) + 1) in
      let mapping =
        List.map
          (fun vpn ->
            let frame = Frame_alloc.alloc frames in
            Page_table.map pt ~vaddr:(vpn * 4096) ~frame ~writable:(vpn mod 2 = 0);
            (vpn, frame))
          pages
      in
      List.for_all
        (fun (vpn, frame) ->
          match Page_table.lookup pt ~vaddr:(vpn * 4096) with
          | Some e -> e.Page_table.frame = frame
          | None -> false)
        mapping)

(* ------------------------- Addr_space ----------------------------- *)

let test_aspace_alloc_rw () =
  let _, _, _, aspace = make_world () in
  let base = Addr_space.alloc aspace ~bytes:65536 in
  check_bool "non-null base" true (base > 0);
  Addr_space.store_word aspace base 11;
  Addr_space.store_word aspace (base + 65528) 22;
  check_int "low" 11 (Addr_space.load_word aspace base);
  check_int "high" 22 (Addr_space.load_word aspace (base + 65528))

let test_aspace_null_unmapped () =
  let _, _, _, aspace = make_world () in
  check_bool "address 0 unmapped" true (Addr_space.translate aspace 0 = None)

let test_aspace_regions_disjoint () =
  let _, _, _, aspace = make_world () in
  let a = Addr_space.alloc aspace ~bytes:5000 in
  let b = Addr_space.alloc aspace ~bytes:5000 in
  check_bool "no overlap" true (b >= a + 5000 || a >= b + 5000)

let test_aspace_lazy_faults () =
  let _, _, _, aspace = make_world () in
  let base = Addr_space.alloc ~lazy_:true aspace ~bytes:16384 in
  check_bool "initially unmapped" true
    (Addr_space.translate aspace base = None);
  check_bool "fault repairs" true (Addr_space.handle_fault aspace ~vaddr:base);
  check_bool "mapped after fault" true
    (Addr_space.translate aspace base <> None);
  check_int "one lazy page touched" 1 (Addr_space.touched_lazy_pages aspace)

let test_aspace_segfault () =
  let _, _, _, aspace = make_world () in
  check_bool "wild access raises" true
    (match Addr_space.load_word aspace 0x100000 with
     | _ -> false
     | exception Addr_space.Segfault _ -> true)

(* ------------------------- Tlb ------------------------------------ *)

let test_tlb_hit_after_insert () =
  let tlb = Tlb.create Tlb.default_config in
  check_bool "cold miss" true (Tlb.lookup tlb ~vpn:5 = None);
  Tlb.insert tlb ~vpn:5 { Tlb.frame = 0x4000; writable = true };
  (match Tlb.lookup tlb ~vpn:5 with
   | Some e -> check_int "frame" 0x4000 e.Tlb.frame
   | None -> Alcotest.fail "expected hit");
  let s = Tlb.stats tlb in
  check_int "1 hit" 1 s.Tlb.hits;
  check_int "2 lookups" 2 s.Tlb.lookups

let test_tlb_lru_eviction () =
  let tlb = Tlb.create { Tlb.entries = 4; assoc = 0; policy = Tlb.Lru } in
  for vpn = 0 to 3 do
    Tlb.insert tlb ~vpn { Tlb.frame = vpn * 4096; writable = true }
  done;
  (* Touch 0..2 so 3 is LRU; insert 4 -> 3 evicted. *)
  for vpn = 0 to 2 do
    ignore (Tlb.lookup tlb ~vpn)
  done;
  Tlb.insert tlb ~vpn:4 { Tlb.frame = 0; writable = true };
  check_bool "vpn 3 evicted" true (Tlb.lookup tlb ~vpn:3 = None);
  check_bool "vpn 0 retained" true (Tlb.lookup tlb ~vpn:0 <> None)

let test_tlb_fifo_eviction () =
  let tlb = Tlb.create { Tlb.entries = 4; assoc = 0; policy = Tlb.Fifo } in
  for vpn = 0 to 3 do
    Tlb.insert tlb ~vpn { Tlb.frame = 0; writable = true }
  done;
  (* Touching does not matter for FIFO: 0 is still the first in. *)
  ignore (Tlb.lookup tlb ~vpn:0);
  Tlb.insert tlb ~vpn:9 { Tlb.frame = 0; writable = true };
  check_bool "vpn 0 evicted (FIFO)" true (Tlb.lookup tlb ~vpn:0 = None)

let test_tlb_set_associative_conflicts () =
  (* 4 entries, 2 ways -> 2 sets: vpns 0,2,4 share set 0. *)
  let tlb = Tlb.create { Tlb.entries = 4; assoc = 2; policy = Tlb.Lru } in
  List.iter
    (fun vpn -> Tlb.insert tlb ~vpn { Tlb.frame = 0; writable = true })
    [ 0; 2; 4 ];
  check_bool "conflict evicted vpn 0" true (Tlb.lookup tlb ~vpn:0 = None);
  check_bool "other set unaffected" true (Tlb.occupancy tlb <= 4)

let test_tlb_invalidate () =
  let tlb = Tlb.create Tlb.default_config in
  Tlb.insert tlb ~vpn:1 { Tlb.frame = 0; writable = true };
  Tlb.invalidate tlb ~vpn:1;
  check_bool "gone" true (Tlb.lookup tlb ~vpn:1 = None);
  Tlb.insert tlb ~vpn:2 { Tlb.frame = 0; writable = true };
  Tlb.invalidate_all tlb;
  check_int "empty" 0 (Tlb.occupancy tlb)

let test_tlb_geometry_validated () =
  let rejects cfg =
    match Tlb.create cfg with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "16 entries / 3 ways rejected" true
    (rejects { Tlb.entries = 16; assoc = 3; policy = Tlb.Lru });
  check_bool "16 entries / 5 ways rejected" true
    (rejects { Tlb.entries = 16; assoc = 5; policy = Tlb.Lru });
  check_bool "4 ways of a 2-entry TLB rejected" true
    (rejects { Tlb.entries = 2; assoc = 4; policy = Tlb.Lru });
  check_bool "no entries rejected" true
    (rejects { Tlb.entries = 0; assoc = 0; policy = Tlb.Lru });
  let tlb = Tlb.create { Tlb.entries = 16; assoc = 4; policy = Tlb.Lru } in
  check_int "divisible geometry builds every slot" 16 (Tlb.slot_count tlb)

let test_tlb_fifo_reinsert_keeps_order () =
  let tlb = Tlb.create { Tlb.entries = 4; assoc = 0; policy = Tlb.Fifo } in
  for vpn = 0 to 3 do
    Tlb.insert tlb ~vpn { Tlb.frame = vpn * 4096; writable = true }
  done;
  (* Re-inserting resident vpn 0 refreshes its payload but must not
     move it to the back of the FIFO order. *)
  Tlb.insert tlb ~vpn:0 { Tlb.frame = 0x8000; writable = true };
  (match Tlb.lookup tlb ~vpn:0 with
   | Some e -> check_int "payload refreshed" 0x8000 e.Tlb.frame
   | None -> Alcotest.fail "expected hit");
  Tlb.insert tlb ~vpn:9 { Tlb.frame = 0; writable = true };
  check_bool "vpn 0 still first out" true (Tlb.lookup tlb ~vpn:0 = None);
  check_bool "vpn 1 retained" true (Tlb.lookup tlb ~vpn:1 <> None)

let test_tlb_invalidate_vpn_all_asids () =
  let tlb = Tlb.create Tlb.default_config in
  Tlb.insert ~asid:1 tlb ~vpn:7 { Tlb.frame = 0x1000; writable = true };
  Tlb.insert ~asid:2 tlb ~vpn:7 { Tlb.frame = 0x2000; writable = true };
  Tlb.insert ~asid:1 tlb ~vpn:8 { Tlb.frame = 0x3000; writable = true };
  Tlb.invalidate_vpn tlb ~vpn:7;
  check_bool "asid 1 copy gone" true (Tlb.lookup ~asid:1 tlb ~vpn:7 = None);
  check_bool "asid 2 copy gone" true (Tlb.lookup ~asid:2 tlb ~vpn:7 = None);
  check_bool "other vpn retained" true (Tlb.lookup ~asid:1 tlb ~vpn:8 <> None)

let prop_tlb_never_stale =
  QCheck.Test.make ~count:200 ~name:"tlb: lookups never return stale frames"
    QCheck.(list (pair (int_bound 20) (int_bound 1000)))
    (fun ops ->
      let tlb = Tlb.create { Tlb.entries = 4; assoc = 0; policy = Tlb.Lru } in
      let shadow = Hashtbl.create 16 in
      List.for_all
        (fun (vpn, frame_raw) ->
          let frame = frame_raw * 4096 in
          Tlb.insert tlb ~vpn { Tlb.frame; writable = true };
          Hashtbl.replace shadow vpn frame;
          match Tlb.lookup tlb ~vpn with
          | Some e -> e.Tlb.frame = Hashtbl.find shadow vpn
          | None -> false)
        ops)

(* The translation memo against the plain associative scan: any
   sequence of lookups, inserts and shootdowns with ASIDs, over LRU and
   FIFO, fully- and set-associative geometries, must give the same
   answers, counters and occupancy with the memo on (what the simulator
   runs) and off (the reference). *)
type tlb_op =
  | Lookup of int * int
  | Lookup_frame of int * int
  | Insert of int * int * bool
  | Invalidate of int * int
  | Invalidate_vpn of int
  | Invalidate_asid of int
  | Invalidate_slot of int

let show_tlb_op = function
  | Lookup (a, v) -> Printf.sprintf "lookup %d:%d" a v
  | Lookup_frame (a, v) -> Printf.sprintf "lookup_frame %d:%d" a v
  | Insert (a, v, w) ->
    Printf.sprintf "insert %d:%d%s" a v (if w then "w" else "")
  | Invalidate (a, v) -> Printf.sprintf "invalidate %d:%d" a v
  | Invalidate_vpn v -> Printf.sprintf "invalidate_vpn %d" v
  | Invalidate_asid a -> Printf.sprintf "invalidate_asid %d" a
  | Invalidate_slot n -> Printf.sprintf "invalidate_slot %d" n

let gen_tlb_op =
  let open QCheck.Gen in
  (* More vpns than any geometry holds, so sets fill and evict. *)
  let asid = int_bound 2 and vpn = int_bound 40 in
  frequency
    [
      (4, map2 (fun a v -> Lookup (a, v)) asid vpn);
      (4, map2 (fun a v -> Lookup_frame (a, v)) asid vpn);
      (4, map3 (fun a v w -> Insert (a, v, w)) asid vpn bool);
      (1, map2 (fun a v -> Invalidate (a, v)) asid vpn);
      (1, map (fun v -> Invalidate_vpn v) vpn);
      (1, map (fun a -> Invalidate_asid a) asid);
      (1, map (fun n -> Invalidate_slot n) (int_bound 20));
    ]

let arb_tlb_case =
  let geometries = [ (4, 0); (8, 0); (8, 1); (8, 2); (16, 4) ] in
  QCheck.make
    ~print:(fun ((entries, assoc), policy, ops) ->
      Printf.sprintf "%d entries, %d-way, %s: %s" entries assoc
        (match policy with Tlb.Lru -> "lru" | Tlb.Fifo -> "fifo")
        (String.concat "; " (List.map show_tlb_op ops)))
    QCheck.Gen.(
      triple (oneofl geometries)
        (oneofl [ Tlb.Lru; Tlb.Fifo ])
        (list_size (int_range 1 80) gen_tlb_op))

(* Every op's answer as an int: a hit's frame plus its writable bit,
   -1 for a miss, 0 for the ops that answer nothing.  The [i]-th op
   inserts frame [i + 1], so a stale translation cannot go unseen. *)
let run_tlb_case ~memo ((entries, assoc), policy, ops) =
  let tlb = Tlb.create ~memo { Tlb.entries; assoc; policy } in
  let answer i = function
    | Lookup (asid, vpn) -> (
      match Tlb.lookup ~asid tlb ~vpn with
      | Some e -> e.Tlb.frame + Bool.to_int e.Tlb.writable
      | None -> -1)
    | Lookup_frame (asid, vpn) -> Tlb.lookup_frame ~asid tlb ~vpn
    | Insert (asid, vpn, writable) ->
      Tlb.insert ~asid tlb ~vpn { Tlb.frame = (i + 1) * 4096; writable };
      0
    | Invalidate (asid, vpn) -> Tlb.invalidate ~asid tlb ~vpn; 0
    | Invalidate_vpn vpn -> Tlb.invalidate_vpn tlb ~vpn; 0
    | Invalidate_asid asid -> Tlb.invalidate_asid tlb ~asid; 0
    | Invalidate_slot n -> Tlb.invalidate_slot tlb ~n; 0
  in
  let answers = List.mapi answer ops in
  (answers, Tlb.stats tlb, Tlb.occupancy tlb, Tlb.memo_hits tlb)

let prop_tlb_memo_reference =
  QCheck.Test.make ~count:500
    ~name:"tlb: memo = plain scan (answers, stats, occupancy)" arb_tlb_case
    (fun case ->
      let answers, stats, occupancy, _ = run_tlb_case ~memo:true case in
      let ref_answers, ref_stats, ref_occupancy, ref_memo_hits =
        run_tlb_case ~memo:false case
      in
      answers = ref_answers && stats = ref_stats && occupancy = ref_occupancy
      && ref_memo_hits = 0)

(* ------------------------- Ptw / Mmu ------------------------------ *)

let test_ptw_walk_times_and_translates () =
  let _, bus, _, aspace = make_world () in
  let base = Addr_space.alloc aspace ~bytes:4096 in
  let ptw = Ptw.create bus (Addr_space.page_table aspace) in
  let entry, elapsed = in_sim_timed bus (fun () -> Ptw.walk ptw ~vaddr:base) in
  check_bool "found" true (entry <> None);
  check_bool "walk takes bus time" true (elapsed > 0);
  check_int "two level reads" 2 (Ptw.stats ptw).Ptw.level_reads

let test_mmu_translate_hit_vs_miss () =
  let _, bus, _, aspace = make_world () in
  let base = Addr_space.alloc aspace ~bytes:8192 in
  let mmu = Mmu.create Mmu.default_config bus aspace in
  let (p1, p2), _ =
    in_sim_timed bus (fun () ->
        let p1 = Mmu.translate mmu ~vaddr:base in
        let p2 = Mmu.translate mmu ~vaddr:(base + 8) in
        (p1, p2))
  in
  check_bool "translations agree with page table" true
    (Some p1 = Addr_space.translate aspace base
     && Some p2 = Addr_space.translate aspace (base + 8));
  let s = Mmu.stats mmu in
  check_int "one miss" 1 s.Mmu.tlb_misses;
  check_int "one hit" 1 s.Mmu.tlb_hits

let test_mmu_miss_slower_than_hit () =
  let _, bus, _, aspace = make_world () in
  let base = Addr_space.alloc aspace ~bytes:4096 in
  let mmu = Mmu.create Mmu.default_config bus aspace in
  let _, miss_time = in_sim_timed bus (fun () -> Mmu.translate mmu ~vaddr:base) in
  let _, hit_time = in_sim_timed bus (fun () -> Mmu.translate mmu ~vaddr:base) in
  check_bool "miss slower" true (miss_time > hit_time)

let test_mmu_demand_paging () =
  let _, bus, _, aspace = make_world () in
  let base = Addr_space.alloc ~lazy_:true aspace ~bytes:4096 in
  let mmu = Mmu.create Mmu.default_config bus aspace in
  let v = in_sim bus (fun () ->
      Mmu.store mmu base 99;
      Mmu.load mmu base)
  in
  check_int "value through demand-paged memory" 99 v;
  check_int "one fault" 1 (Mmu.stats mmu).Mmu.page_faults

let test_mmu_fault_on_wild_access () =
  let _, bus, _, aspace = make_world () in
  let mmu = Mmu.create Mmu.default_config bus aspace in
  check_bool "raises Mmu_fault" true
    (in_sim bus (fun () ->
         match Mmu.load mmu 0x200000 with
         | _ -> false
         | exception Mmu.Mmu_fault _ -> true))

let test_mmu_sw_refill_slower () =
  let run hw_walk =
    let _, bus, _, aspace = make_world () in
    let base = Addr_space.alloc aspace ~bytes:4096 in
    let mmu = Mmu.create { Mmu.default_config with Mmu.hw_walk } bus aspace in
    snd (in_sim_timed bus (fun () -> Mmu.translate mmu ~vaddr:base))
  in
  check_bool "software refill costs more" true (run false > run true)

let test_mmu_loads_data () =
  let phys, bus, _, aspace = make_world () in
  let base = Addr_space.alloc aspace ~bytes:4096 in
  Addr_space.store_word aspace base 1234;
  let mmu = Mmu.create Mmu.default_config bus aspace in
  check_int "load via mmu" 1234 (in_sim bus (fun () -> Mmu.load mmu base));
  ignore phys

(* ------------------------- Tlb2 / walk cache ---------------------- *)

let enabled_l2 = { Tlb2.default_config with Tlb2.enabled = true }

let test_tlb2_shared_between_mmus () =
  let _, bus, _, aspace = make_world () in
  let base = Addr_space.alloc aspace ~bytes:4096 in
  let l2 = Tlb2.create enabled_l2 in
  let mmu1 = Mmu.create ~tlb2:l2 Mmu.default_config bus aspace in
  let mmu2 = Mmu.create ~tlb2:l2 Mmu.default_config bus aspace in
  let _, cold = in_sim_timed bus (fun () -> Mmu.translate mmu1 ~vaddr:base) in
  let _, warm = in_sim_timed bus (fun () -> Mmu.translate mmu2 ~vaddr:base) in
  (* mmu1's walk filled the shared L2, so mmu2's L1 miss never walks. *)
  check_int "first mmu walked" 1 (Mmu.ptw_stats mmu1).Ptw.walks;
  check_int "second mmu never walks" 0 (Mmu.ptw_stats mmu2).Ptw.walks;
  let s = Tlb2.stats l2 in
  check_int "two L2 probes" 2 s.Tlb.lookups;
  check_int "one L2 hit" 1 s.Tlb.hits;
  check_bool "L2 refill cheaper than a walk" true (warm < cold)

let test_tlb2_miss_accounting () =
  let _, bus, _, aspace = make_world () in
  let base = Addr_space.alloc aspace ~bytes:8192 in
  let l2 = Tlb2.create enabled_l2 in
  let mmu = Mmu.create ~tlb2:l2 Mmu.default_config bus aspace in
  in_sim bus (fun () ->
      ignore (Mmu.translate mmu ~vaddr:base);
      ignore (Mmu.translate mmu ~vaddr:(base + 4096));
      (* L1 hit: the L2 must not even be probed. *)
      ignore (Mmu.translate mmu ~vaddr:base));
  let s = Tlb2.stats l2 in
  check_int "only L1 misses probe the L2" 2 s.Tlb.lookups;
  check_int "both cold probes missed" 0 s.Tlb.hits

let test_tlb2_shootdown_via_invalidate_vpn () =
  let l2 = Tlb2.create enabled_l2 in
  Tlb2.insert ~asid:1 l2 ~vpn:3 { Tlb.frame = 0x3000; writable = true };
  Tlb2.insert ~asid:2 l2 ~vpn:3 { Tlb.frame = 0x3000; writable = true };
  Tlb2.invalidate_vpn l2 ~vpn:3;
  check_bool "all asids shot down" true
    (Tlb2.lookup ~asid:1 l2 ~vpn:3 = None
    && Tlb2.lookup ~asid:2 l2 ~vpn:3 = None);
  check_int "nothing resident" 0 (Tlb2.occupancy l2)

let prop_tlb2_asid_isolation =
  QCheck.Test.make ~count:200 ~name:"tlb2: hits respect asid tags"
    QCheck.(list (triple (int_bound 3) (int_bound 10) (int_bound 500)))
    (fun ops ->
      let l2 =
        Tlb2.create { enabled_l2 with Tlb2.entries = 8; Tlb2.assoc = 0 }
      in
      let shadow = Hashtbl.create 16 in
      List.for_all
        (fun (asid, vpn, fr) ->
          let frame = fr * 4096 in
          Tlb2.insert ~asid l2 ~vpn { Tlb.frame; writable = true };
          Hashtbl.replace shadow (asid, vpn) frame;
          match Tlb2.lookup ~asid l2 ~vpn with
          | Some e -> e.Tlb.frame = Hashtbl.find shadow (asid, vpn)
          | None -> false)
        ops)

let test_walk_cache_warm_walk_single_read () =
  let _, bus, frames, aspace = make_world () in
  let pt = Addr_space.page_table aspace in
  (* Two pages under the same level-1 entry. *)
  Page_table.map pt ~vaddr:0x5000 ~frame:(Frame_alloc.alloc frames)
    ~writable:true;
  Page_table.map pt ~vaddr:0x6000 ~frame:(Frame_alloc.alloc frames)
    ~writable:true;
  let ptw = Ptw.create ~walk_cache_entries:4 bus pt in
  in_sim bus (fun () ->
      ignore (Ptw.walk ptw ~vaddr:0x5000);
      ignore (Ptw.walk ptw ~vaddr:0x6000));
  let s = Ptw.stats ptw in
  check_int "cold walk reads 2 levels, warm walk 1" 3 s.Ptw.level_reads;
  check_int "one walk-cache hit" 1 s.Ptw.walk_cache_hits;
  check_int "one walk-cache miss" 1 s.Ptw.walk_cache_misses

let test_walk_cache_warm_walk_faster () =
  let run walk_cache_entries =
    let _, bus, frames, aspace = make_world () in
    let pt = Addr_space.page_table aspace in
    Page_table.map pt ~vaddr:0x5000 ~frame:(Frame_alloc.alloc frames)
      ~writable:true;
    Page_table.map pt ~vaddr:0x6000 ~frame:(Frame_alloc.alloc frames)
      ~writable:true;
    let ptw = Ptw.create ~walk_cache_entries bus pt in
    snd
      (in_sim_timed bus (fun () ->
           ignore (Ptw.walk ptw ~vaddr:0x5000);
           ignore (Ptw.walk ptw ~vaddr:0x6000)))
  in
  check_bool "memoized level-1 frame saves bus time" true (run 4 < run 0)

let test_walk_cache_invalidation () =
  let _, bus, frames, aspace = make_world () in
  let pt = Addr_space.page_table aspace in
  Page_table.map pt ~vaddr:0x5000 ~frame:(Frame_alloc.alloc frames)
    ~writable:true;
  let ptw = Ptw.create ~walk_cache_entries:4 bus pt in
  in_sim bus (fun () -> ignore (Ptw.walk ptw ~vaddr:0x5000));
  Ptw.invalidate_walk_cache_entry ptw ~vaddr:0x5000;
  in_sim bus (fun () -> ignore (Ptw.walk ptw ~vaddr:0x5000));
  check_int "memo was dropped, walk missed again" 2
    (Ptw.stats ptw).Ptw.walk_cache_misses;
  Ptw.invalidate_walk_cache ptw;
  in_sim bus (fun () -> ignore (Ptw.walk ptw ~vaddr:0x5000));
  check_int "full shootdown drops everything" 3
    (Ptw.stats ptw).Ptw.walk_cache_misses

let prop_walk_cache_matches_functional =
  QCheck.Test.make ~count:50
    ~name:"ptw: walk cache never changes walk results"
    QCheck.(list (pair bool (int_bound 40)))
    (fun ops ->
      let _, bus, frames, aspace = make_world () in
      let pt = Addr_space.page_table aspace in
      (* Tiny cache so unrelated level-1 entries collide constantly. *)
      let ptw = Ptw.create ~walk_cache_entries:2 bus pt in
      List.for_all
        (fun (toggle, vpn) ->
          let vaddr = (vpn + 1) * 4096 in
          (if toggle then
             match Page_table.lookup pt ~vaddr with
             | Some _ ->
               (* Mirror the SoC's shootdown ordering: memo first,
                  then the unmap that may free the table frame. *)
               Ptw.invalidate_walk_cache_entry ptw ~vaddr;
               Page_table.unmap pt ~vaddr
             | None ->
               Page_table.map pt ~vaddr ~frame:(Frame_alloc.alloc frames)
                 ~writable:true);
          let walked = in_sim bus (fun () -> Ptw.walk ptw ~vaddr) in
          match (walked, Page_table.lookup pt ~vaddr) with
          | Some a, Some b -> a.Page_table.frame = b.Page_table.frame
          | None, None -> true
          | _ -> false)
        ops)

let suite =
  [
    Alcotest.test_case "frames: distinct" `Quick test_frames_distinct;
    Alcotest.test_case "frames: exhaustion + reuse" `Quick
      test_frames_exhaustion_and_reuse;
    Alcotest.test_case "pt: map/lookup" `Quick test_pt_map_lookup;
    Alcotest.test_case "pt: translate offset" `Quick test_pt_translate_offset;
    Alcotest.test_case "pt: double map rejected" `Quick
      test_pt_double_map_rejected;
    Alcotest.test_case "pt: unmap" `Quick test_pt_unmap;
    Alcotest.test_case "pt: unmap returns frames" `Quick
      test_pt_unmap_returns_frames;
    Alcotest.test_case "pt: shared table survives partial unmap" `Quick
      test_pt_shared_table_survives_partial_unmap;
    Alcotest.test_case "pt: 2x-capacity map/unmap churn" `Quick
      test_pt_map_unmap_churn_no_leak;
    Alcotest.test_case "pt: walk addrs" `Quick test_pt_walk_addrs;
    QCheck_alcotest.to_alcotest prop_pt_roundtrip;
    Alcotest.test_case "aspace: alloc + rw" `Quick test_aspace_alloc_rw;
    Alcotest.test_case "aspace: null unmapped" `Quick test_aspace_null_unmapped;
    Alcotest.test_case "aspace: regions disjoint" `Quick
      test_aspace_regions_disjoint;
    Alcotest.test_case "aspace: lazy faults" `Quick test_aspace_lazy_faults;
    Alcotest.test_case "aspace: segfault" `Quick test_aspace_segfault;
    Alcotest.test_case "tlb: hit after insert" `Quick test_tlb_hit_after_insert;
    Alcotest.test_case "tlb: LRU eviction" `Quick test_tlb_lru_eviction;
    Alcotest.test_case "tlb: FIFO eviction" `Quick test_tlb_fifo_eviction;
    Alcotest.test_case "tlb: set-assoc conflicts" `Quick
      test_tlb_set_associative_conflicts;
    Alcotest.test_case "tlb: invalidate" `Quick test_tlb_invalidate;
    Alcotest.test_case "tlb: geometry validated" `Quick
      test_tlb_geometry_validated;
    Alcotest.test_case "tlb: FIFO re-insert keeps order" `Quick
      test_tlb_fifo_reinsert_keeps_order;
    Alcotest.test_case "tlb: invalidate vpn across asids" `Quick
      test_tlb_invalidate_vpn_all_asids;
    QCheck_alcotest.to_alcotest prop_tlb_never_stale;
    QCheck_alcotest.to_alcotest prop_tlb_memo_reference;
    Alcotest.test_case "ptw: timed walk" `Quick test_ptw_walk_times_and_translates;
    Alcotest.test_case "mmu: hit vs miss" `Quick test_mmu_translate_hit_vs_miss;
    Alcotest.test_case "mmu: miss slower" `Quick test_mmu_miss_slower_than_hit;
    Alcotest.test_case "mmu: demand paging" `Quick test_mmu_demand_paging;
    Alcotest.test_case "mmu: wild access faults" `Quick
      test_mmu_fault_on_wild_access;
    Alcotest.test_case "mmu: SW refill slower" `Quick test_mmu_sw_refill_slower;
    Alcotest.test_case "mmu: loads data" `Quick test_mmu_loads_data;
    Alcotest.test_case "tlb2: shared between mmus" `Quick
      test_tlb2_shared_between_mmus;
    Alcotest.test_case "tlb2: miss accounting" `Quick test_tlb2_miss_accounting;
    Alcotest.test_case "tlb2: vpn shootdown across asids" `Quick
      test_tlb2_shootdown_via_invalidate_vpn;
    QCheck_alcotest.to_alcotest prop_tlb2_asid_isolation;
    Alcotest.test_case "walk cache: warm walk reads one level" `Quick
      test_walk_cache_warm_walk_single_read;
    Alcotest.test_case "walk cache: warm walk faster" `Quick
      test_walk_cache_warm_walk_faster;
    Alcotest.test_case "walk cache: invalidation" `Quick
      test_walk_cache_invalidation;
    QCheck_alcotest.to_alcotest prop_walk_cache_matches_functional;
  ]
