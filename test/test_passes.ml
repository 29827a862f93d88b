open Vmht_ir
module Ast_interp = Vmht_lang.Ast_interp

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let ir_run f ~data ~args = Ir_interp.run (Ast_interp.array_memory data) f ~args

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* ---------------------- registry ----------------------------------- *)

let test_registry_populated () =
  Alcotest.(check (list string))
    "every pass, in listing order"
    [
      "const_fold"; "copy_prop"; "cse"; "store_forward"; "strength_reduce";
      "licm"; "coalesce"; "dce"; "simplify_cfg";
    ]
    (List.map (fun (p : Pass.t) -> p.Pass.name) Pass.all);
  List.iter
    (fun (p : Pass.t) ->
      check_bool (p.Pass.name ^ " documented") true (p.Pass.doc <> "");
      check_bool (p.Pass.name ^ " found") true
        (match Pass.find p.Pass.name with Some q -> q == p | None -> false))
    Pass.all

let test_of_names_round_trip () =
  match Pass_manager.of_names [ "dce"; "const_fold" ] with
  | Ok sched ->
    check_bool "order kept" true
      (List.map (fun (p : Pass.t) -> p.Pass.name) sched.Pass_manager.passes
      = [ "dce"; "const_fold" ]);
    check_bool "named" true
      (sched.Pass_manager.sname = "custom:dce,const_fold")
  | Error msg -> Alcotest.fail msg

let test_of_names_unknown () =
  match Pass_manager.of_names [ "const_fold"; "nope" ] with
  | Ok _ -> Alcotest.fail "unknown pass accepted"
  | Error msg ->
    check_bool "names the culprit" true (contains ~sub:"nope" msg)

let test_fingerprint_tracks_schedule () =
  let base = Vmht.Config.default in
  let fp c = Vmht.Config.fingerprint c in
  check_bool "opt level changes fingerprint" true
    (fp (Vmht.Config.with_opt_level base 0) <> fp base);
  check_bool "custom passes change fingerprint" true
    (fp (Vmht.Config.with_passes base (Some [ "dce" ])) <> fp base);
  check_bool "pass order changes fingerprint" true
    (fp (Vmht.Config.with_passes base (Some [ "dce"; "cse" ]))
    <> fp (Vmht.Config.with_passes base (Some [ "cse"; "dce" ])))

(* The fingerprint is the record itself: over configs built from random
   setter calls (few values per axis, so distinct call sequences often
   build equal configs), two fingerprint equally exactly when they are
   structurally equal. *)
let gen_calls =
  let open QCheck.Gen in
  let setter name values set =
    map (fun v -> (name, fun c -> set c v)) (oneofl values)
  in
  let module C = Vmht.Config in
  let tlb2 entries =
    { Vmht_vm.Tlb2.default_config with Vmht_vm.Tlb2.enabled = true; entries }
  in
  let setters =
    oneof
      [
        setter "tlb" [ 8; 16 ] C.with_tlb_entries;
        setter "tlb2" [ tlb2 8; tlb2 16 ] C.with_tlb2;
        setter "walk_cache" [ 0; 8 ] C.with_walk_cache;
        setter "page_shift" [ 12; 13 ] C.with_page_shift;
        setter "unroll" [ 1; 2 ] C.with_unroll;
        setter "pipelining" [ false; true ] C.with_pipelining;
        setter "banks" [ 1; 2 ] C.with_banks;
        setter "fault"
          [ Vmht_fault.Plan.none; Vmht_fault.Plan.uniform ~rate:0.01 ]
          C.with_fault;
        setter "seed" [ 1; 2 ] C.with_seed;
        setter "opt_level" [ 0; 2 ] C.with_opt_level;
        setter "backend" [ C.Model; C.Rtl ] C.with_backend;
        setter "passes" [ None; Some [ "dce" ]; Some [ "cse"; "dce" ] ]
          C.with_passes;
      ]
  in
  list_size (int_bound 5) setters

let apply_calls base calls =
  ( String.concat ", " (List.map fst calls),
    List.fold_left (fun c (_, set) -> set c) base calls )

let gen_config = QCheck.Gen.map (apply_calls Vmht.Config.default) gen_calls

let prop_fingerprint_is_equality =
  QCheck.Test.make ~count:500
    ~name:"config fingerprint: equal iff the configs are equal"
    (QCheck.make
       ~print:(fun ((a, _), (b, _)) -> Printf.sprintf "[%s] vs [%s]" a b)
       (QCheck.Gen.pair gen_config gen_config))
    (fun ((_, a), (_, b)) ->
      let fp = Vmht.Config.fingerprint in
      (fp a = fp b) = (a = b))

(* ---------------------- synthesis key ------------------------------ *)

let registry_kernels =
  List.map Vmht_workloads.Workload.kernel Vmht_workloads.Registry.all

(* The key never merges two designs: over the same random configs, both
   wrapper styles and every registry kernel, two configs that share a
   key get identical fresh syntheses.  The second config is the first
   with more setter calls applied, so the pair often differs only in
   fields the key leaves out. *)
let prop_equal_keys_equal_hardware =
  QCheck.Test.make ~count:300
    ~name:"synthesis key: configs with one key synthesize alike"
    (QCheck.make
       ~print:(fun ((a, _), calls, style, (k : Vmht_lang.Ast.kernel)) ->
         Printf.sprintf "[%s] then [%s], %s, %s" a
           (String.concat ", " (List.map fst calls))
           (Vmht.Wrapper.style_name style)
           k.Vmht_lang.Ast.kname)
       QCheck.Gen.(
         quad gen_config gen_calls
           (oneofl [ Vmht.Wrapper.Vm_iface; Vmht.Wrapper.Dma_iface ])
           (oneofl registry_kernels)))
    (fun ((_, a), calls, style, kernel) ->
      let _, b = apply_calls a calls in
      let key c = Vmht.Flow.cache_key c style kernel in
      key a <> key b
      ||
      let synth config =
        Vmht.Flow.run_exn
          (Vmht.Flow.Request.of_kernel ~config ~style ~cache:false kernel)
      in
      let x = synth a and y = synth b in
      x.Vmht.Flow.verilog = y.Vmht.Flow.verilog
      && x.Vmht.Flow.fsm.Vmht_hls.Fsm.stats.Vmht_hls.Fsm.states
         = y.Vmht.Flow.fsm.Vmht_hls.Fsm.stats.Vmht_hls.Fsm.states
      && x.Vmht.Flow.datapath_area = y.Vmht.Flow.datapath_area
      && x.Vmht.Flow.wrapper_area = y.Vmht.Flow.wrapper_area
      && x.Vmht.Flow.total_area = y.Vmht.Flow.total_area)

(* Which config fields the key reads, one setter per field of
   [Config.t]: platform fields move no key, each wrapper's parameters
   move only that style's keys, and the HLS and optimizer fields move
   both. *)
let test_key_reads_synthesis_fields () =
  let module C = Vmht.Config in
  let kernel = List.hd registry_kernels in
  let moves set style =
    Vmht.Flow.cache_key (set C.default) style kernel
    <> Vmht.Flow.cache_key C.default style kernel
  in
  List.iter
    (fun (name, set, vm, dma) ->
      check_bool (name ^ " moves the vm key") vm
        (moves set Vmht.Wrapper.Vm_iface);
      check_bool (name ^ " moves the dma key") dma
        (moves set Vmht.Wrapper.Dma_iface))
    [
      ("seed", (fun c -> C.with_seed c 2), false, false);
      ( "fault",
        (fun c -> C.with_fault c (Vmht_fault.Plan.uniform ~rate:0.01)),
        false,
        false );
      ("backend", (fun c -> C.with_backend c C.Rtl), false, false);
      ( "tlb2",
        (fun c ->
          C.with_tlb2 c
            { Vmht_vm.Tlb2.default_config with Vmht_vm.Tlb2.enabled = true }),
        false,
        false );
      ("page_shift", (fun c -> C.with_page_shift c 13), false, false);
      ( "phys_bytes",
        (fun c -> { c with C.phys_bytes = 1 lsl 20 }),
        false,
        false );
      ( "stream buffer",
        (fun c ->
          {
            c with
            C.accel_stream_buffer =
              {
                c.C.accel_stream_buffer with
                Vmht_mem.Cache.size_bytes = 8192;
              };
          }),
        false,
        false );
      ("tlb", (fun c -> C.with_tlb_entries c 64), true, false);
      ("walk_cache", (fun c -> C.with_walk_cache c 8), true, false);
      ( "scratchpad",
        (fun c -> { c with C.scratchpad_words = 1024 }),
        false,
        true );
      ("unroll", (fun c -> C.with_unroll c 2), true, true);
      ("opt_level", (fun c -> C.with_opt_level c 0), true, true);
      ("banks", (fun c -> C.with_banks c 2), true, true);
      ("pipelining", (fun c -> C.with_pipelining c true), true, true);
      ("passes", (fun c -> C.with_passes c (Some [ "dce" ])), true, true);
    ]

(* Two different kernels with one name are two memo entries: requested
   A, B, A, B they miss twice and then hit. *)
let test_memo_keys_kernels_not_names () =
  let parse = Vmht_lang.Parser.parse_kernel in
  let a = parse "kernel k(x: int) : int { return x + 1; }"
  and b = parse "kernel k(x: int) : int { return x * 3; }" in
  Vmht.Flow.reset_cache ();
  List.iter
    (fun k -> ignore (Vmht.Flow.run_exn (Vmht.Flow.Request.of_kernel k)))
    [ a; b; a; b ];
  let s = Vmht.Flow.cache_stats () in
  Vmht.Flow.reset_cache ();
  check_int "misses" 2 s.Vmht.Flow.cache_misses;
  check_int "hits" 2 s.Vmht.Flow.cache_hits;
  check_int "entries" 2 s.Vmht.Flow.cache_entries

(* ---------------------- verifier ----------------------------------- *)

let block_with f label instrs term =
  let b = Ir.add_block f label in
  b.Ir.instrs <- instrs;
  b.Ir.term <- term;
  b

let test_verify_accepts_lowered () =
  let f =
    Lower.lower_kernel
      (Vmht_lang.Parser.parse_kernel
         "kernel f(x: int) : int { return x + 1; }")
  in
  Verify.run f

(* Each verifier check, with the exact message it reports. *)
let expect_error f msg =
  match Verify.check f with
  | Ok () -> Alcotest.failf "accepted; expected %S" msg
  | Error got -> Alcotest.(check string) "message" msg got

let test_verify_rejects_undefined_reg () =
  let f = Ir.create_func ~name:"f" ~arg_count:1 ~returns_value:true in
  let r = Ir.fresh_reg f in
  (* r2 is never defined anywhere. *)
  ignore
    (block_with f (Ir.fresh_label f)
       [ Ir.Mov (r, Ir.Reg 2) ]
       (Ir.Ret (Some (Ir.Reg r))));
  f.Ir.next_reg <- 3;
  expect_error f "f: register r2 may be read before it is defined"

(* Defined on one path only: the then-branch defines r3 and r2 (in that
   order), the join reads both.  The lowest such register is named. *)
let test_verify_one_path_def () =
  let f = Ir.create_func ~name:"f" ~arg_count:2 ~returns_value:true in
  let r2 = Ir.fresh_reg f and r3 = Ir.fresh_reg f and r4 = Ir.fresh_reg f in
  let l0 = Ir.fresh_label f and l1 = Ir.fresh_label f in
  let l2 = Ir.fresh_label f and l3 = Ir.fresh_label f in
  ignore (block_with f l0 [] (Ir.Br (Ir.Reg 0, l1, l2)));
  ignore
    (block_with f l1
       [ Ir.Mov (r3, Ir.Imm 1); Ir.Mov (r2, Ir.Reg 1) ]
       (Ir.Jmp l3));
  ignore (block_with f l2 [] (Ir.Jmp l3));
  ignore
    (block_with f l3
       [ Ir.Bin (Vmht_lang.Ast.Add, r4, Ir.Reg r3, Ir.Reg r2) ]
       (Ir.Ret (Some (Ir.Reg r4))));
  expect_error f "f: register r2 may be read before it is defined"

let test_verify_no_blocks () =
  expect_error
    (Ir.create_func ~name:"f" ~arg_count:0 ~returns_value:false)
    "f: function has no blocks"

let test_verify_duplicate_label () =
  let f = Ir.create_func ~name:"f" ~arg_count:0 ~returns_value:false in
  let l0 = Ir.fresh_label f in
  ignore (block_with f l0 [] (Ir.Ret None));
  ignore (block_with f l0 [] (Ir.Ret None));
  expect_error f "f: duplicate block label L0"

let test_verify_label_range () =
  let f = Ir.create_func ~name:"f" ~arg_count:0 ~returns_value:false in
  ignore (block_with f (Ir.fresh_label f) [] (Ir.Jmp 5));
  ignore (block_with f 5 [] (Ir.Ret None));
  expect_error f "f: block label L5 outside allocator range [0, 1)"

let test_verify_register_range () =
  let one instrs term =
    let f = Ir.create_func ~name:"f" ~arg_count:1 ~returns_value:true in
    ignore (block_with f (Ir.fresh_label f) instrs term);
    f
  in
  let ret0 = Ir.Ret (Some (Ir.Reg 0)) in
  expect_error
    (one [ Ir.Mov (5, Ir.Imm 0) ] ret0)
    "f: block L0: r5 = 0: defined register r5 outside allocator range [0, 1)";
  expect_error
    (one [ Ir.Store (Ir.Imm 8, Ir.Reg 7) ] ret0)
    "f: block L0: mem[8] = r7: register r7 outside allocator range [0, 1)";
  expect_error
    (one [] (Ir.Ret (Some (Ir.Reg 9))))
    "f: block L0: ret r9: register r9 outside allocator range [0, 1)"

let test_verify_rejects_dangling_target () =
  let f = Ir.create_func ~name:"f" ~arg_count:0 ~returns_value:false in
  ignore (block_with f (Ir.fresh_label f) [] (Ir.Jmp 99));
  expect_error f "f: block L0: jmp L99: target L99 outside allocator range [0, 1)";
  (* In range, but no block carries the label. *)
  let g = Ir.create_func ~name:"g" ~arg_count:1 ~returns_value:false in
  let l0 = Ir.fresh_label g and l1 = Ir.fresh_label g in
  ignore (block_with g l0 [] (Ir.Br (Ir.Reg 0, l0, l1)));
  expect_error g "g: block L0: br r0 ? L0 : L1: target L1 has no block"

let test_verify_rejects_ret_arity () =
  let f = Ir.create_func ~name:"f" ~arg_count:0 ~returns_value:true in
  ignore (block_with f (Ir.fresh_label f) [] (Ir.Ret None));
  expect_error f "f: block L0 returns no value from a value function";
  let g = Ir.create_func ~name:"g" ~arg_count:1 ~returns_value:false in
  ignore (block_with g (Ir.fresh_label g) [] (Ir.Ret (Some (Ir.Reg 0))));
  expect_error g "g: block L0 returns a value from a void function"

(* An unreachable block keeps the lowerer's [Ret None] placeholder in a
   value function: only reachable blocks must match the arity. *)
let test_verify_unreachable_exempt () =
  let f = Ir.create_func ~name:"f" ~arg_count:1 ~returns_value:true in
  ignore (block_with f (Ir.fresh_label f) [] (Ir.Ret (Some (Ir.Reg 0))));
  ignore (block_with f (Ir.fresh_label f) [] (Ir.Ret None));
  match Verify.check f with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* ---------------------- simplify_cfg edge cases -------------------- *)

let test_cfg_unreachable_self_loop () =
  let f = Ir.create_func ~name:"f" ~arg_count:0 ~returns_value:false in
  let l0 = Ir.fresh_label f in
  let l1 = Ir.fresh_label f in
  ignore (block_with f l0 [] (Ir.Ret None));
  (* Unreachable block that is its own predecessor: the "has a unique
     predecessor" and "no predecessors" heuristics both miss it; only
     reachability can delete it. *)
  ignore (block_with f l1 [] (Ir.Jmp l1));
  let n = Passes.simplify_cfg f in
  check_bool "rewrote" true (n > 0);
  check_int "self-loop removed" 1 (Ir.block_count f);
  Verify.run f

let test_cfg_thread_into_merged () =
  let f = Ir.create_func ~name:"f" ~arg_count:1 ~returns_value:true in
  let r1 = Ir.fresh_reg f in
  let r2 = Ir.fresh_reg f in
  let l0 = Ir.fresh_label f in
  let l1 = Ir.fresh_label f in
  let l2 = Ir.fresh_label f in
  (* l0 -> l1 (empty forwarder) -> l2: threading the jump gives l2 a
     unique predecessor, which lets the chain merge into one block. *)
  ignore (block_with f l0 [ Ir.Mov (r1, Ir.Imm 5) ] (Ir.Jmp l1));
  ignore (block_with f l1 [] (Ir.Jmp l2));
  ignore
    (block_with f l2
       [ Ir.Bin (Vmht_lang.Ast.Add, r2, Ir.Reg r1, Ir.Reg 0) ]
       (Ir.Ret (Some (Ir.Reg r2))));
  let rec fix () = if Passes.simplify_cfg f > 0 then fix () in
  fix ();
  Verify.run f;
  check_int "merged to one block" 1 (Ir.block_count f);
  check_bool "semantics kept" true
    (ir_run f ~data:[| 0 |] ~args:[ 37 ] = Some 42)

(* Empty forwarders in a cycle (1 -> 2 -> 3 -> 1) and a chain into it
   (4 -> 5 -> 2).  A walk stops at the first block whose target it has
   already visited, so each cycle block resolves to its predecessor on
   the cycle (1 to 3, 2 to 1, 3 to 2) and the chain to the predecessor
   of its entry point (4 and 5 to 1); only 1 and 3 stay reachable. *)
let test_cfg_forwarding_cycle () =
  let f = Ir.create_func ~name:"f" ~arg_count:1 ~returns_value:false in
  let l = Array.init 6 (fun _ -> Ir.fresh_label f) in
  ignore (block_with f l.(0) [] (Ir.Br (Ir.Reg 0, l.(1), l.(4))));
  List.iter
    (fun (a, b) -> ignore (block_with f l.(a) [] (Ir.Jmp l.(b))))
    [ (1, 2); (2, 3); (3, 1); (4, 5); (5, 2) ];
  ignore (Passes.simplify_cfg f);
  Alcotest.(check string) "threaded"
    "func f(r0)\nL0:\n  br r0 ? L3 : L1\nL1:\n  jmp L1\nL3:\n  jmp L3\n"
    (Ir.func_to_string f);
  Verify.run f

(* ---------------------- dce on loads ------------------------------- *)

let test_dce_deletes_dead_load () =
  let f = Ir.create_func ~name:"f" ~arg_count:0 ~returns_value:false in
  let r = Ir.fresh_reg f in
  ignore
    (block_with f (Ir.fresh_label f) [ Ir.Load (r, Ir.Imm 0) ] (Ir.Ret None));
  check_bool "rewrote" true (Passes.dce f > 0);
  check_int "dead load removed" 0 (Ir.instr_count f);
  Verify.run f

let test_dce_keeps_load_feeding_store () =
  let f = Ir.create_func ~name:"f" ~arg_count:0 ~returns_value:false in
  let r = Ir.fresh_reg f in
  ignore
    (block_with f (Ir.fresh_label f)
       [ Ir.Load (r, Ir.Imm 0); Ir.Store (Ir.Imm 8, Ir.Reg r) ]
       (Ir.Ret None));
  check_int "nothing removed" 0 (Passes.dce f);
  check_int "both instrs kept" 2 (Ir.instr_count f)

(* ---------------------- memory / scalar pass units ----------------- *)

let test_store_forward_hit () =
  let f = Ir.create_func ~name:"f" ~arg_count:1 ~returns_value:true in
  let r1 = Ir.fresh_reg f in
  ignore
    (block_with f (Ir.fresh_label f)
       [ Ir.Store (Ir.Reg 0, Ir.Imm 42); Ir.Load (r1, Ir.Reg 0) ]
       (Ir.Ret (Some (Ir.Reg r1))));
  check_int "one forward" 1 (Passes.store_forward f);
  (match (Ir.entry f).Ir.instrs with
  | [ Ir.Store _; Ir.Mov (d, Ir.Imm 42) ] -> check_int "dest" r1 d
  | _ -> Alcotest.fail "load not rewritten to mov");
  Verify.run f;
  check_bool "still stores and returns 42" true
    (let data = [| 0 |] in
     ir_run f ~data ~args:[ 0 ] = Some 42 && data.(0) = 42)

let test_store_forward_blocked_by_store () =
  let f = Ir.create_func ~name:"f" ~arg_count:2 ~returns_value:true in
  let r2 = Ir.fresh_reg f in
  (* The second store may alias the first address, so the load must
     stay a load. *)
  ignore
    (block_with f (Ir.fresh_label f)
       [
         Ir.Store (Ir.Reg 0, Ir.Imm 1);
         Ir.Store (Ir.Reg 1, Ir.Imm 2);
         Ir.Load (r2, Ir.Reg 0);
       ]
       (Ir.Ret (Some (Ir.Reg r2))));
  check_int "no forward" 0 (Passes.store_forward f);
  check_bool "aliasing store wins" true
    (ir_run f ~data:[| 0; 0 |] ~args:[ 0; 0 ] = Some 2)

let test_strength_reduce_mul () =
  let f = Ir.create_func ~name:"f" ~arg_count:1 ~returns_value:true in
  let r1 = Ir.fresh_reg f in
  ignore
    (block_with f (Ir.fresh_label f)
       [ Ir.Bin (Vmht_lang.Ast.Mul, r1, Ir.Reg 0, Ir.Imm 5) ]
       (Ir.Ret (Some (Ir.Reg r1))));
  check_bool "rewrote" true (Passes.strength_reduce f > 0);
  Verify.run f;
  check_bool "no multiply left" true
    (List.for_all
       (function Ir.Bin (Vmht_lang.Ast.Mul, _, _, _) -> false | _ -> true)
       (Ir.entry f).Ir.instrs);
  check_bool "x*5 = 35" true (ir_run f ~data:[| 0 |] ~args:[ 7 ] = Some 35)

let test_strength_reduce_offset_chain () =
  let f = Ir.create_func ~name:"f" ~arg_count:1 ~returns_value:true in
  let r1 = Ir.fresh_reg f in
  let r2 = Ir.fresh_reg f in
  let r3 = Ir.fresh_reg f in
  ignore
    (block_with f (Ir.fresh_label f)
       [
         Ir.Bin (Vmht_lang.Ast.Add, r1, Ir.Reg 0, Ir.Imm 8);
         Ir.Bin (Vmht_lang.Ast.Add, r2, Ir.Reg r1, Ir.Imm 8);
         Ir.Load (r3, Ir.Reg r2);
       ]
       (Ir.Ret (Some (Ir.Reg r3))));
  check_bool "rewrote" true (Passes.strength_reduce f > 0);
  Verify.run f;
  check_bool "chain folded to base+16" true
    (List.exists
       (function
         | Ir.Bin (Vmht_lang.Ast.Add, d, Ir.Reg 0, Ir.Imm 16) -> d = r2
         | _ -> false)
       (Ir.entry f).Ir.instrs);
  check_bool "loads m[2]" true
    (ir_run f ~data:[| 0; 0; 99 |] ~args:[ 0 ] = Some 99)

let test_coalesce_folds_pair () =
  let f = Ir.create_func ~name:"f" ~arg_count:1 ~returns_value:true in
  let r1 = Ir.fresh_reg f in
  let r2 = Ir.fresh_reg f in
  ignore
    (block_with f (Ir.fresh_label f)
       [
         Ir.Bin (Vmht_lang.Ast.Add, r1, Ir.Reg 0, Ir.Imm 1);
         Ir.Mov (r2, Ir.Reg r1);
       ]
       (Ir.Ret (Some (Ir.Reg r2))));
  check_int "one fold" 1 (Passes.coalesce f);
  Verify.run f;
  (match (Ir.entry f).Ir.instrs with
  | [ Ir.Bin (Vmht_lang.Ast.Add, d, Ir.Reg 0, Ir.Imm 1) ] ->
    check_int "op writes mov dest" r2 d
  | _ -> Alcotest.fail "pair not folded");
  check_bool "x+1" true (ir_run f ~data:[| 0 |] ~args:[ 6 ] = Some 7)

let test_coalesce_keeps_live_temp () =
  let f = Ir.create_func ~name:"f" ~arg_count:1 ~returns_value:true in
  let r1 = Ir.fresh_reg f in
  let r2 = Ir.fresh_reg f in
  let r3 = Ir.fresh_reg f in
  (* r1 is read again after the mov, so the pair must survive. *)
  ignore
    (block_with f (Ir.fresh_label f)
       [
         Ir.Bin (Vmht_lang.Ast.Add, r1, Ir.Reg 0, Ir.Imm 1);
         Ir.Mov (r2, Ir.Reg r1);
         Ir.Bin (Vmht_lang.Ast.Add, r3, Ir.Reg r1, Ir.Reg r2);
       ]
       (Ir.Ret (Some (Ir.Reg r3))));
  check_int "no fold" 0 (Passes.coalesce f);
  check_bool "2*(x+1)" true (ir_run f ~data:[| 0 |] ~args:[ 4 ] = Some 10)

(* ---------------------- qcheck: differential ----------------------- *)

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100000)

let fresh_data () = Array.init Gen_prog.mem_words (fun i -> (i * 37) mod 101)

let differential kernel ~args transform =
  let f_plain = Lower.lower_kernel kernel in
  let f_opt = Lower.lower_kernel kernel in
  transform f_opt;
  Verify.run f_opt;
  let d1 = fresh_data () and d2 = fresh_data () in
  let r1 = ir_run f_plain ~data:d1 ~args in
  let r2 = ir_run f_opt ~data:d2 ~args in
  r1 = r2 && d1 = d2

let prop_each_pass_preserves_semantics =
  QCheck.Test.make ~count:150
    ~name:"every registered pass preserves interpreter results" seed_arb
    (fun seed ->
      let kernel = Gen_prog.gen_kernel seed in
      let args = [ 0; seed mod 23; seed mod 19 ] in
      List.for_all
        (fun (p : Pass.t) ->
          differential kernel ~args (fun f -> ignore (p.Pass.run f)))
        Pass.all)

let prop_each_preset_preserves_semantics =
  QCheck.Test.make ~count:150
    ~name:"-O0/-O1/-O2 schedules preserve interpreter results" seed_arb
    (fun seed ->
      let kernel = Gen_prog.gen_kernel seed in
      let args = [ 0; seed mod 29; seed mod 31 ] in
      List.for_all
        (fun level ->
          differential kernel ~args (fun f ->
              ignore
                (Pass_manager.optimize
                   ~schedule:(Pass_manager.of_opt_level level)
                   f)))
        [ 0; 1; 2 ])

let prop_verifier_accepts_all_pass_output =
  (* [Pass_manager.run] re-verifies after every single pass application
     (and raises on failure), so one full -O2 run checks the verifier
     against each intermediate IR, not just the final one. *)
  QCheck.Test.make ~count:1000
    ~name:"verifier accepts IR after every pass (1000 programs)" seed_arb
    (fun seed ->
      let kernel = Gen_prog.gen_kernel seed in
      let f = Lower.lower_kernel kernel in
      Verify.run f;
      match Pass_manager.optimize f with
      | (_ : Pass_manager.report) -> true
      | exception Failure _ -> false)

(* ---------------------- the zero-rewrite contract ------------------ *)

(* Blocks are the only mutable parts below a function, so copying them
   and the record is a deep enough copy for a pass to rewrite. *)
let copy_func (f : Ir.func) =
  {
    f with
    Ir.blocks =
      List.map (fun (b : Ir.block) -> { b with Ir.label = b.Ir.label }) f.blocks;
  }

(* Structural, not by [Marshal] bytes: a rewrite may leave equal IR
   with different sharing. *)
let same_ir (a : Ir.func) (b : Ir.func) =
  a.Ir.next_reg = b.Ir.next_reg
  && a.Ir.next_label = b.Ir.next_label
  && a.Ir.blocks = b.Ir.blocks

let o2_passes = Pass_manager.o2.Pass_manager.passes

(* A generated kernel at unroll 1 and 4, each as lowered and after one
   round of the O2 schedule; one seed in four makes a void kernel. *)
let pass_inputs seed =
  let kernel = Gen_prog.gen_kernel ~returns:(seed mod 4 <> 0) seed in
  List.concat_map
    (fun factor ->
      let kernel, _ = Ast_unroll.unroll_kernel ~factor kernel in
      let lowered = Lower.lower_kernel kernel in
      let rounded = copy_func lowered in
      List.iter (fun (p : Pass.t) -> ignore (p.Pass.run rounded)) o2_passes;
      [ lowered; rounded ])
    [ 1; 4 ]

(* [Pass_manager.run] stops once every pass in turn has reported zero
   rewrites since the last rewrite; that is the joint fixpoint only if
   a pass reporting zero leaves the IR as it found it. *)
let prop_quiet_pass_leaves_ir =
  QCheck.Test.make ~count:200
    ~name:"a pass reporting zero rewrites leaves the IR unchanged" seed_arb
    (fun seed ->
      List.for_all
        (fun f ->
          List.for_all
            (fun (p : Pass.t) ->
              let g = copy_func f in
              p.Pass.run g > 0 || same_ir f g)
            o2_passes)
        (pass_inputs seed))

(* The pass manager applies the schedule in rounds, but a round whose
   passes were all quiet already is cut short: the counts are those of
   full rounds, with fewer applications in the last one. *)
let test_fixpoint_stops_when_quiet () =
  let f =
    Lower.lower_kernel
      (Vmht_lang.Parser.parse_kernel
         "kernel f(x: int) : int { var y: int = x * 1; return y + 0; }")
  in
  let applied = ref [] in
  let counting name rewrites =
    {
      Pass.name;
      doc = "";
      kind = Pass.Cleanup;
      run =
        (fun _ ->
          applied := name :: !applied;
          match !rewrites with
          | [] -> 0
          | c :: rest ->
            rewrites := rest;
            c);
    }
  in
  let sched =
    {
      Pass_manager.sname = "test";
      passes =
        [
          counting "a" (ref [ 0; 0 ]);
          counting "b" (ref [ 2; 0 ]);
          counting "c" (ref [ 0; 0 ]);
        ];
    }
  in
  let r = Pass_manager.run sched f in
  Alcotest.(check (list string))
    "applications" [ "a"; "b"; "c"; "a"; "b" ] (List.rev !applied);
  check_int "rounds started" 2 r.Pass_manager.iterations;
  Alcotest.(check (list (pair int int)))
    "applications and rewrites per pass"
    [ (2, 0); (2, 2); (1, 0) ]
    (List.map
       (fun (s : Pass_manager.pass_stat) -> (s.runs, s.rewrites))
       r.Pass_manager.stats)

(* ---------------------- the verifier against its oracle -------------- *)

(* One fault of the given kind injected into [f] in place, at a place
   [rng] picks; [false] when [f] has no such place. *)
let inject rng (f : Ir.func) kind =
  let module Rng = Vmht_util.Rng in
  let pick l = Rng.pick rng (Array.of_list l) in
  let bad_reg () = if Rng.bool rng then f.Ir.next_reg else -1 in
  let instr_sites keep =
    List.concat_map
      (fun (b : Ir.block) ->
        List.mapi (fun k i -> (b, k, i)) b.instrs
        |> List.filter (fun (_, _, i) -> keep i))
      f.Ir.blocks
  in
  let replace (b : Ir.block) k instr =
    b.instrs <- List.mapi (fun j i -> if j = k then instr else i) b.instrs
  in
  match kind with
  | `None -> false
  | `Def -> (
    match instr_sites (fun i -> Ir.def_of i <> None) with
    | [] -> false
    | sites ->
      let b, k, i = pick sites in
      let d = bad_reg () in
      replace b k
        (match i with
         | Ir.Bin (op, _, x, y) -> Ir.Bin (op, d, x, y)
         | Ir.Un (op, _, x) -> Ir.Un (op, d, x)
         | Ir.Mov (_, x) -> Ir.Mov (d, x)
         | Ir.Load (_, x) -> Ir.Load (d, x)
         | Ir.Store _ -> i);
      true)
  | `Use -> (
    match instr_sites (fun _ -> true) with
    | [] -> false
    | sites ->
      let b, k, i = pick sites in
      let r = Ir.Reg (bad_reg ()) and first = Rng.bool rng in
      replace b k
        (match i with
         | Ir.Bin (op, d, x, y) ->
           if first then Ir.Bin (op, d, r, y) else Ir.Bin (op, d, x, r)
         | Ir.Store (x, y) -> if first then Ir.Store (r, y) else Ir.Store (x, r)
         | Ir.Un (op, d, _) -> Ir.Un (op, d, r)
         | Ir.Mov (d, _) -> Ir.Mov (d, r)
         | Ir.Load (d, _) -> Ir.Load (d, r));
      true)
  | `Every_operand -> (
    (* Each register of one instruction out of range, each by a
       different value, so the message names the one checked first. *)
    match instr_sites (fun _ -> true) with
    | [] -> false
    | sites ->
      let b, k, i = pick sites in
      let d = f.Ir.next_reg and x = Ir.Reg (-1)
      and y = Ir.Reg (f.Ir.next_reg + 1) in
      replace b k
        (match i with
         | Ir.Bin (op, _, _, _) -> Ir.Bin (op, d, x, y)
         | Ir.Store _ -> Ir.Store (x, y)
         | Ir.Un (op, _, _) -> Ir.Un (op, d, x)
         | Ir.Mov _ -> Ir.Mov (d, x)
         | Ir.Load _ -> Ir.Load (d, x));
      true)
  | `Term -> (
    match
      List.filter
        (fun (b : Ir.block) ->
          match b.term with
          | Ir.Br _ | Ir.Ret (Some _) -> true
          | Ir.Jmp _ | Ir.Ret None -> false)
        f.Ir.blocks
    with
    | [] -> false
    | blocks ->
      let b = pick blocks in
      let r = Ir.Reg (bad_reg ()) in
      b.term <-
        (match b.term with
         | Ir.Br (_, l1, l2) -> Ir.Br (r, l1, l2)
         | Ir.Ret _ | Ir.Jmp _ -> Ir.Ret (Some r));
      true)
  | `Target ->
    let present = List.map (fun (b : Ir.block) -> b.Ir.label) f.Ir.blocks in
    let missing =
      f.Ir.next_label :: -1
      :: List.filter
           (fun l -> not (List.mem l present))
           (List.init f.Ir.next_label Fun.id)
    in
    let b = pick f.Ir.blocks and l = pick missing in
    b.term <-
      (match b.term with
       | Ir.Br (c, l1, l2) ->
         if Rng.bool rng then Ir.Br (c, l, l2) else Ir.Br (c, l1, l)
       | Ir.Jmp _ | Ir.Ret _ -> Ir.Jmp l);
    true
  | `Use_before_def -> (
    (* A use of a register with one definition, moved from after that
       definition in its block to just before it. *)
    let defs = Hashtbl.create 64 in
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun i ->
            Ir.iter_def
              (fun d ->
                Hashtbl.replace defs d
                  (1 + Option.value ~default:0 (Hashtbl.find_opt defs d)))
              i)
          b.instrs)
      f.Ir.blocks;
    let reads r i =
      let hit = ref false in
      Ir.iter_uses (fun u -> if u = r then hit := true) i;
      !hit
    in
    let moves =
      List.concat_map
        (fun (b : Ir.block) ->
          let instrs = Array.of_list b.instrs in
          let n = Array.length instrs in
          List.concat
            (List.init n (fun k ->
                 match Ir.def_of instrs.(k) with
                 | Some d when Hashtbl.find_opt defs d = Some 1 ->
                   List.filter_map
                     (fun j ->
                       if j > k && reads d instrs.(j) then Some (b, k, j)
                       else None)
                     (List.init n Fun.id)
                 | Some _ | None -> [])))
        f.Ir.blocks
    in
    match moves with
    | [] -> false
    | moves ->
      let b, k, j = pick moves in
      let instrs = Array.of_list b.instrs in
      let moved = instrs.(j) in
      b.instrs <-
        List.concat
          (List.mapi
             (fun m i ->
               if m = k then [ moved; i ] else if m = j then [] else [ i ])
             b.instrs);
      true)
  | `Ret_arity -> (
    match
      List.filter
        (fun (b : Ir.block) ->
          match b.term with Ir.Ret _ -> true | Ir.Jmp _ | Ir.Br _ -> false)
        f.Ir.blocks
    with
    | [] -> false
    | blocks ->
      let b = pick blocks in
      b.term <-
        (match b.term with
         | Ir.Ret None -> Ir.Ret (Some (Ir.Imm 0))
         | Ir.Ret (Some _) | Ir.Jmp _ | Ir.Br _ -> Ir.Ret None);
      true)

let verdict check f =
  match check f with
  | Ok () -> "ok"
  | Error msg -> "error: " ^ msg
  | exception e -> "raised " ^ Printexc.to_string e

(* Each fault kind on each of a kernel's four IR forms: the verifier
   gives the oracle's answer, [Ok] or the same message. *)
let prop_verifier_matches_oracle =
  QCheck.Test.make ~count:200
    ~name:"verifier matches the three-scan oracle on injected faults"
    seed_arb (fun seed ->
      let rng = Vmht_util.Rng.create seed in
      List.for_all
        (fun f ->
          List.for_all
            (fun kind ->
              let g = copy_func f in
              ignore (inject rng g kind);
              let got = verdict Verify.check g
              and want = verdict Ir_oracle.Verify.check g in
              got = want
              || QCheck.Test.fail_reportf "verifier %S, oracle %S on\n%s" got
                   want (Ir.func_to_string g))
            [
              `None;
              `Def;
              `Use;
              `Every_operand;
              `Term;
              `Target;
              `Use_before_def;
              `Ret_arity;
            ])
        (pass_inputs seed))

let suite =
  [
    Alcotest.test_case "registry: builtins present" `Quick
      test_registry_populated;
    Alcotest.test_case "schedule: of_names round trip" `Quick
      test_of_names_round_trip;
    Alcotest.test_case "schedule: unknown pass error" `Quick
      test_of_names_unknown;
    Alcotest.test_case "schedule: in config fingerprint" `Quick
      test_fingerprint_tracks_schedule;
    QCheck_alcotest.to_alcotest prop_fingerprint_is_equality;
    QCheck_alcotest.to_alcotest prop_equal_keys_equal_hardware;
    Alcotest.test_case "synthesis key: reads only what synthesis reads"
      `Quick test_key_reads_synthesis_fields;
    Alcotest.test_case "synthesis key: kernels, not names" `Quick
      test_memo_keys_kernels_not_names;
    Alcotest.test_case "verify: accepts lowered IR" `Quick
      test_verify_accepts_lowered;
    Alcotest.test_case "verify: undefined register" `Quick
      test_verify_rejects_undefined_reg;
    Alcotest.test_case "verify: dangling branch target" `Quick
      test_verify_rejects_dangling_target;
    Alcotest.test_case "verify: ret arity" `Quick test_verify_rejects_ret_arity;
    Alcotest.test_case "verify: defined on one path" `Quick
      test_verify_one_path_def;
    Alcotest.test_case "verify: no blocks" `Quick test_verify_no_blocks;
    Alcotest.test_case "verify: duplicate label" `Quick
      test_verify_duplicate_label;
    Alcotest.test_case "verify: label out of range" `Quick
      test_verify_label_range;
    Alcotest.test_case "verify: register out of range" `Quick
      test_verify_register_range;
    Alcotest.test_case "verify: unreachable block exempt" `Quick
      test_verify_unreachable_exempt;
    Alcotest.test_case "cfg: unreachable self-loop" `Quick
      test_cfg_unreachable_self_loop;
    Alcotest.test_case "cfg: thread into merged block" `Quick
      test_cfg_thread_into_merged;
    Alcotest.test_case "cfg: forwarding cycle" `Quick test_cfg_forwarding_cycle;
    Alcotest.test_case "dce: deletes dead load" `Quick
      test_dce_deletes_dead_load;
    Alcotest.test_case "dce: keeps load feeding store" `Quick
      test_dce_keeps_load_feeding_store;
    Alcotest.test_case "store_forward: forwards" `Quick test_store_forward_hit;
    Alcotest.test_case "store_forward: aliasing store blocks" `Quick
      test_store_forward_blocked_by_store;
    Alcotest.test_case "strength_reduce: mul by 5" `Quick
      test_strength_reduce_mul;
    Alcotest.test_case "strength_reduce: offset chain" `Quick
      test_strength_reduce_offset_chain;
    Alcotest.test_case "coalesce: folds pair" `Quick test_coalesce_folds_pair;
    Alcotest.test_case "coalesce: keeps live temp" `Quick
      test_coalesce_keeps_live_temp;
    QCheck_alcotest.to_alcotest prop_each_pass_preserves_semantics;
    QCheck_alcotest.to_alcotest prop_each_preset_preserves_semantics;
    QCheck_alcotest.to_alcotest prop_verifier_accepts_all_pass_output;
    QCheck_alcotest.to_alcotest prop_verifier_matches_oracle;
    QCheck_alcotest.to_alcotest prop_quiet_pass_leaves_ir;
    Alcotest.test_case "fixpoint: stops when every pass is quiet" `Quick
      test_fixpoint_stops_when_quiet;
  ]
