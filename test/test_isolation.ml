(* Multi-process isolation (ASIDs, shootdowns) and failure injection:
   the ways a hardware thread can go wrong, and the system must fail
   loudly rather than corrupt. *)

open Vmht
module Addr_space = Vmht_vm.Addr_space
module Mmu = Vmht_vm.Mmu
module Tlb = Vmht_vm.Tlb
module Engine = Vmht_sim.Engine

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let in_soc soc f = Launch.run_to_completion soc f

(* ---------------------- ASID isolation ---------------------------- *)

let test_tlb_asid_isolation () =
  let tlb = Tlb.create Tlb.default_config in
  Tlb.insert ~asid:1 tlb ~vpn:5 { Tlb.frame = 0x1000; writable = true };
  Tlb.insert ~asid:2 tlb ~vpn:5 { Tlb.frame = 0x2000; writable = true };
  (match (Tlb.lookup ~asid:1 tlb ~vpn:5, Tlb.lookup ~asid:2 tlb ~vpn:5) with
   | Some a, Some b ->
     check_int "asid 1 frame" 0x1000 a.Tlb.frame;
     check_int "asid 2 frame" 0x2000 b.Tlb.frame
   | _ -> Alcotest.fail "both translations should hit");
  check_bool "asid 3 misses" true (Tlb.lookup ~asid:3 tlb ~vpn:5 = None);
  Tlb.invalidate_asid tlb ~asid:1;
  check_bool "asid 1 dropped" true (Tlb.lookup ~asid:1 tlb ~vpn:5 = None);
  check_bool "asid 2 kept" true (Tlb.lookup ~asid:2 tlb ~vpn:5 <> None)

let test_processes_same_vaddr_different_data () =
  let soc = Soc.create Config.default in
  let space1 = Soc.aspace soc in
  let space2, asid2 = Soc.create_process soc in
  check_bool "distinct asid" true (asid2 > 0);
  (* Same allocation sequence -> same virtual addresses in both. *)
  let v1 = Addr_space.alloc space1 ~bytes:4096 in
  let v2 = Addr_space.alloc space2 ~bytes:4096 in
  check_int "same virtual address" v1 v2;
  Addr_space.store_word space1 v1 111;
  Addr_space.store_word space2 v2 222;
  let mmu1 = Soc.make_mmu soc in
  let mmu2 = Soc.make_mmu ~aspace:(space2, asid2) soc in
  let a, b =
    in_soc soc (fun () -> (Mmu.load mmu1 v1, Mmu.load mmu2 v2))
  in
  check_int "process 1 sees its data" 111 a;
  check_int "process 2 sees its data" 222 b

(* ---------------------- TLB shootdown ----------------------------- *)

let test_shootdown_removes_stale_translation () =
  let soc = Soc.create Config.default in
  let space = Soc.aspace soc in
  let base = Addr_space.alloc space ~bytes:4096 in
  let mmu = Soc.make_mmu soc in
  (* Warm the TLB. *)
  let v = in_soc soc (fun () -> Mmu.load mmu base) in
  check_int "initial read" 0 v;
  (* Unmap WITHOUT shootdown: the stale entry still translates — the
     hazard shootdowns exist to close. *)
  Vmht_vm.Page_table.unmap (Addr_space.page_table space) ~vaddr:base;
  let stale = in_soc soc (fun () -> Mmu.load mmu base) in
  check_int "stale TLB entry still serves" 0 stale;
  (* Now the proper kernel path. *)
  (match Addr_space.translate space base with
   | None -> ()
   | Some _ -> Alcotest.fail "page table should be unmapped");
  List.iter (fun m -> Mmu.invalidate_page m ~vaddr:base) [ mmu ];
  check_bool "faults after shootdown" true
    (in_soc soc (fun () ->
         match Mmu.load mmu base with
         | _ -> false
         | exception Mmu.Mmu_fault _ -> true))

let test_soc_unmap_page_shoots_all_mmus () =
  let soc = Soc.create Config.default in
  let space = Soc.aspace soc in
  let base = Addr_space.alloc space ~bytes:4096 in
  let mmu1 = Soc.make_mmu soc in
  let mmu2 = Soc.make_mmu soc in
  ignore (in_soc soc (fun () -> Mmu.load mmu1 base + Mmu.load mmu2 base));
  Soc.unmap_page soc space ~vaddr:base;
  List.iter
    (fun mmu ->
      check_bool "every MMU faults" true
        (in_soc soc (fun () ->
             match Mmu.load mmu base with
             | _ -> false
             | exception Mmu.Mmu_fault _ -> true)))
    [ mmu1; mmu2 ]

let test_soc_shootdown_reaches_all_levels () =
  (* With the full translation hierarchy on, [Soc.unmap_page] must
     reach every level: both L1 TLBs, the shared L2, and each walker's
     page-walk cache.  Freed frames are first in line for reuse, so any
     surviving stale state would serve another page's data instead of
     faulting. *)
  let config =
    Config.with_walk_cache
      (Config.with_tlb2 Config.default
         { Vmht_vm.Tlb2.default_config with Vmht_vm.Tlb2.enabled = true })
      8
  in
  let soc = Soc.create config in
  let l2 =
    match Soc.tlb2 soc with
    | Some l2 -> l2
    | None -> Alcotest.fail "enabled config should build a shared L2"
  in
  let space = Soc.aspace soc in
  let base = Addr_space.alloc space ~bytes:4096 in
  Addr_space.store_word space base 111;
  let mmu1 = Soc.make_mmu soc in
  let mmu2 = Soc.make_mmu soc in
  let a, b = in_soc soc (fun () -> (Mmu.load mmu1 base, Mmu.load mmu2 base)) in
  check_int "mmu1 warm read" 111 a;
  check_int "mmu2 warm read" 111 b;
  check_bool "L2 warmed" true (Vmht_vm.Tlb2.occupancy l2 > 0);
  Soc.unmap_page soc space ~vaddr:base;
  check_int "L2 shot down" 0 (Vmht_vm.Tlb2.occupancy l2);
  (* The frames [base] just returned back the new page. *)
  let fresh = Addr_space.alloc space ~bytes:4096 in
  Addr_space.store_word space fresh 999;
  List.iter
    (fun mmu ->
      check_bool "unmapped page faults (no level leaks the reused frame)"
        true
        (in_soc soc (fun () ->
             match Mmu.load mmu base with
             | _ -> false
             | exception Mmu.Mmu_fault _ -> true)))
    [ mmu1; mmu2 ];
  check_int "fresh page reads through the hierarchy" 999
    (in_soc soc (fun () -> Mmu.load mmu1 fresh))

(* ---------------------- failure injection ------------------------- *)

let synthesize_source src =
  Flow.run_exn (Flow.Request.of_source ~style:Wrapper.Vm_iface src)

let test_hw_thread_divide_by_zero () =
  let soc = Soc.create Config.default in
  let hw = synthesize_source "kernel f(x: int) : int { return 10 / x; }" in
  check_bool "trap surfaces" true
    (match
       in_soc soc (fun () -> Launch.run_hw soc hw { Launch.args = [ 0 ]; buffers = [] })
     with
     | _ -> false
     | exception Vmht_lang.Ast_interp.Eval_error _ -> true)

let test_hw_thread_wild_pointer () =
  let soc = Soc.create Config.default in
  let hw = synthesize_source "kernel f(p: int*) : int { return p[0]; }" in
  check_bool "Mmu_fault surfaces" true
    (match
       in_soc soc (fun () ->
           Launch.run_hw soc hw { Launch.args = [ 0x300000 ]; buffers = [] })
     with
     | _ -> false
     | exception Mmu.Mmu_fault _ -> true)

let test_fault_through_thread_join () =
  let soc = Soc.create Config.default in
  let hw = synthesize_source "kernel f(p: int*) : int { return p[0]; }" in
  check_bool "fault re-raised at join" true
    (in_soc soc (fun () ->
         let t =
           Vmht_rt.Hthreads.spawn ~engine:(Soc.engine soc) (fun () ->
               Launch.run_hw soc hw
                 { Launch.args = [ 0x300000 ]; buffers = [] })
         in
         match Vmht_rt.Hthreads.join t with
         | _ -> false
         | exception Mmu.Mmu_fault _ -> true))

let test_dma_kernel_escaping_windows () =
  (* A copy-based thread touching memory outside its declared buffers
     hits the window checker — the bug the VM interface turns into a
     working program. *)
  let soc = Soc.create Config.default in
  let space = Soc.aspace soc in
  let inside = Addr_space.alloc space ~bytes:4096 in
  let outside = Addr_space.alloc space ~bytes:4096 in
  let hw =
    Flow.run_exn
      (Flow.Request.of_kernel ~style:Wrapper.Dma_iface
         (Vmht_lang.Parser.parse_kernel
            "kernel f(p: int*, q: int*) : int { return p[0] + q[0]; }"))
  in
  check_bool "escapes are detected" true
    (match
       in_soc soc (fun () ->
           Launch.run_hw soc hw
             {
               Launch.args = [ inside; outside ];
               buffers =
                 [ { Launch.base = inside; words = 8; dir = Launch.In } ];
             })
     with
     | _ -> false
     | exception Vmht_mem.Scratchpad.Out_of_window _ -> true)

let test_physical_memory_exhaustion () =
  let config =
    { Config.default with Config.phys_bytes = 64 * 1024 (* 16 frames *) }
  in
  let soc = Soc.create config in
  check_bool "Out_of_frames surfaces" true
    (match Addr_space.alloc (Soc.aspace soc) ~bytes:(1024 * 1024) with
     | _ -> false
     | exception Vmht_vm.Frame_alloc.Out_of_frames -> true)

let suite =
  [
    Alcotest.test_case "tlb: ASID isolation" `Quick test_tlb_asid_isolation;
    Alcotest.test_case "processes: same vaddr, different data" `Quick
      test_processes_same_vaddr_different_data;
    Alcotest.test_case "shootdown: stale entry closed" `Quick
      test_shootdown_removes_stale_translation;
    Alcotest.test_case "shootdown: all MMUs" `Quick
      test_soc_unmap_page_shoots_all_mmus;
    Alcotest.test_case "shootdown: all hierarchy levels" `Quick
      test_soc_shootdown_reaches_all_levels;
    Alcotest.test_case "inject: divide by zero" `Quick
      test_hw_thread_divide_by_zero;
    Alcotest.test_case "inject: wild pointer" `Quick test_hw_thread_wild_pointer;
    Alcotest.test_case "inject: fault at join" `Quick
      test_fault_through_thread_join;
    Alcotest.test_case "inject: DMA window escape" `Quick
      test_dma_kernel_escaping_windows;
    Alcotest.test_case "inject: frame exhaustion" `Quick
      test_physical_memory_exhaustion;
  ]
