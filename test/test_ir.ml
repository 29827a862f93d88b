open Vmht_ir
module Ast = Vmht_lang.Ast
module Parser = Vmht_lang.Parser
module Typecheck = Vmht_lang.Typecheck
module Ast_interp = Vmht_lang.Ast_interp

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let compile src =
  let k = Parser.parse_kernel src in
  Typecheck.check_kernel k;
  Lower.lower_kernel k

(* Run a lowered function against the same flat memory as the AST
   reference interpreter and compare results + final memory. *)
let ir_run f ~data ~args = Ir_interp.run (Ast_interp.array_memory data) f ~args

let agree_on kernel ~args ~words =
  let data1 = Array.init words (fun i -> (i * 37) mod 101) in
  let data2 = Array.copy data1 in
  let r1 =
    Ast_interp.run_kernel (Ast_interp.array_memory data1) kernel ~args
  in
  let f = Lower.lower_kernel kernel in
  let r2 = ir_run f ~data:data2 ~args in
  r1 = r2 && data1 = data2

(* ---------------------- lowering ---------------------------------- *)

let test_lower_vecadd_semantics () =
  let src =
    {|kernel vecadd(a: int*, b: int*, c: int*, n: int) {
        var i: int;
        for (i = 0; i < n; i = i + 1) { c[i] = a[i] + b[i]; }
      }|}
  in
  let f = compile src in
  Ir.validate f;
  let data = Array.make 24 0 in
  for i = 0 to 7 do
    data.(i) <- i;
    data.(8 + i) <- 100 + i
  done;
  ignore (ir_run f ~data ~args:[ 0; 64; 128; 8 ]);
  for i = 0 to 7 do
    check_int "c[i]" (100 + (2 * i)) data.(16 + i)
  done

let test_lower_return_value () =
  let f = compile "kernel f(x: int) : int { return x * 3 + 1; }" in
  let data = [| 0 |] in
  check_bool "returns 22" true (ir_run f ~data ~args:[ 7 ] = Some 22)

let test_lower_if_else () =
  let f =
    compile
      "kernel f(x: int) : int { if (x > 10) { return 1; } else { return 2; } }"
  in
  let data = [| 0 |] in
  check_bool "then" true (ir_run f ~data ~args:[ 11 ] = Some 1);
  check_bool "else" true (ir_run f ~data ~args:[ 10 ] = Some 2)

let test_lower_strict_logic () =
  let f =
    compile "kernel f(x: int, y: int) : int { return x > 0 && y > 0; }"
  in
  let data = [| 0 |] in
  check_bool "both" true (ir_run f ~data ~args:[ 1; 1 ] = Some 1);
  check_bool "one" true (ir_run f ~data ~args:[ 1; 0 ] = Some 0)

let test_runaway_detection () =
  let f = compile "kernel f() { while (1) { } }" in
  let data = [| 0 |] in
  check_bool "raises Runaway" true
    (match Ir_interp.run ~max_steps:1000 (Ast_interp.array_memory data) f ~args:[] with
     | _ -> false
     | exception Ir_interp.Runaway _ -> true)

(* A while(1){} loop lowers to a block with no instructions; the
   interpreter executes only terminators, so bound block entries too. *)

(* ---------------------- passes: unit ------------------------------ *)

let test_const_fold_binops () =
  let f = compile "kernel f() : int { return 2 + 3 * 4; }" in
  let n = Passes.const_fold f in
  check_bool "folded something" true (n > 0);
  let data = [| 0 |] in
  check_bool "still 14" true (ir_run f ~data ~args:[] = Some 14)

let test_const_fold_keeps_div_by_zero () =
  let f = compile "kernel f() : int { return 1 / 0; }" in
  ignore (Passes.const_fold f);
  let data = [| 0 |] in
  check_bool "trap preserved" true
    (match ir_run f ~data ~args:[] with
     | _ -> false
     | exception Ast_interp.Eval_error _ -> true)

let test_const_fold_branch () =
  let f = compile "kernel f() : int { if (1 < 2) { return 5; } return 6; }" in
  let r = Pass_manager.optimize f in
  check_bool "branch folded away" true (Pass_manager.rewrites r "const_fold" > 0);
  let data = [| 0 |] in
  check_bool "returns 5" true (ir_run f ~data ~args:[] = Some 5)

let test_cse_shares_loads () =
  let f =
    compile "kernel f(p: int*) : int { return p[3] + p[3]; }"
  in
  let before = Ir.instr_count f in
  ignore (Pass_manager.optimize f);
  let after = Ir.instr_count f in
  check_bool "fewer instructions" true (after < before);
  let data = Array.init 8 (fun i -> 10 * i) in
  check_bool "value" true (ir_run f ~data ~args:[ 0 ] = Some 60)

let test_cse_respects_stores () =
  let f =
    compile
      "kernel f(p: int*) : int { var x: int = p[0]; p[0] = x + 1; return x + p[0]; }"
  in
  ignore (Pass_manager.optimize f);
  let data = [| 5 |] in
  check_bool "load not shared across store" true
    (ir_run f ~data ~args:[ 0 ] = Some 11)

let test_dce_removes_dead () =
  let f =
    compile "kernel f(x: int) : int { var dead: int = x * 99; return x; }"
  in
  let n = Passes.dce f in
  check_bool "removed" true (n > 0)

let test_dce_keeps_stores () =
  let f = compile "kernel f(p: int*) { p[0] = 42; }" in
  ignore (Passes.dce f);
  let data = [| 0 |] in
  ignore (ir_run f ~data ~args:[ 0 ]);
  check_int "store kept" 42 data.(0)

let test_simplify_cfg_unreachable () =
  let f =
    compile "kernel f() : int { return 1; }"
  in
  (* Lowering creates an unreachable trailing block after the return. *)
  let before = Ir.block_count f in
  ignore (Passes.simplify_cfg f);
  check_bool "blocks removed" true (Ir.block_count f < before);
  Ir.validate f

let test_optimize_pipeline_report () =
  let f =
    compile
      {|kernel f(p: int*, n: int) : int {
          var s: int = 0;
          var i: int;
          for (i = 0; i < n; i = i + 1) { s = s + p[i] * 8 / 8 + 0; }
          return s;
        }|}
  in
  let r = Pass_manager.optimize f in
  check_bool "some folds" true (Pass_manager.rewrites r "const_fold" > 0);
  check_bool "instrs reduced" true
    (r.Pass_manager.instrs_after < r.Pass_manager.instrs_before);
  let data = Array.init 8 (fun i -> i + 1) in
  check_bool "sum preserved" true (ir_run f ~data ~args:[ 0; 8 ] = Some 36)

(* ---------------------- liveness ----------------------------------- *)

let test_liveness_args_live () =
  let f = compile "kernel f(x: int) : int { var y: int = x + 1; return y; }" in
  let info = Liveness.compute f in
  let entry = Ir.entry f in
  check_bool "x live into entry" true
    (Liveness.Regset.mem 0 (Liveness.live_in info entry.Ir.label))

let test_max_live_positive () =
  let f =
    compile
      "kernel f(a: int, b: int, c: int) : int { return a * b + b * c + a * c; }"
  in
  let info = Liveness.compute f in
  check_bool "pressure >= 3" true (Liveness.max_live f info >= 3)

(* Registers at or past [next_reg] (IR the verifier would reject) are
   still analysed: the vectors widen to the registers the blocks
   mention.  r70 also lands in a second bit-vector word. *)
let test_liveness_past_next_reg () =
  let f = Ir.create_func ~name:"f" ~arg_count:1 ~returns_value:true in
  let l0 = Ir.fresh_label f and l1 = Ir.fresh_label f in
  let b0 = Ir.add_block f l0 and b1 = Ir.add_block f l1 in
  b0.Ir.instrs <- [ Ir.Mov (5, Ir.Reg 0) ];
  b0.Ir.term <- Ir.Jmp l1;
  b1.Ir.instrs <- [ Ir.Bin (Vmht_lang.Ast.Add, 70, Ir.Reg 5, Ir.Reg 9) ];
  b1.Ir.term <- Ir.Ret (Some (Ir.Reg 70));
  let info = Liveness.compute f in
  let elements l = Liveness.Regset.elements (Liveness.live_in info l) in
  Alcotest.(check (list int)) "into L1" [ 5; 9 ] (elements l1);
  Alcotest.(check (list int)) "into L0" [ 0; 9 ] (elements l0);
  check_bool "r70 live out of L0" false (Liveness.mem_live_out info l0 70);
  Alcotest.(check int) "pressure" 2 (Liveness.max_live f info)

(* ---------------------- unrolling ---------------------------------- *)

let unrollable_src =
  {|kernel sumsq(p: int*, n: int) : int {
      var s: int = 0;
      var i: int;
      for (i = 0; i < n; i = i + 1) {
        var t: int = p[i];
        s = s + t * t;
      }
      return s;
    }|}

let test_unroll_applies () =
  let k = Parser.parse_kernel unrollable_src in
  Typecheck.check_kernel k;
  let _k4, count = Ast_unroll.unroll_kernel ~factor:4 k in
  check_int "one loop unrolled" 1 count

let test_unroll_preserves_semantics () =
  let k = Parser.parse_kernel unrollable_src in
  Typecheck.check_kernel k;
  List.iter
    (fun factor ->
      let k', _ = Ast_unroll.unroll_kernel ~factor k in
      List.iter
        (fun n ->
          let data = Array.init 32 (fun i -> i - 7) in
          let data' = Array.copy data in
          let r =
            Ast_interp.run_kernel (Ast_interp.array_memory data) k
              ~args:[ 0; n ]
          in
          let r' =
            Ast_interp.run_kernel (Ast_interp.array_memory data') k'
              ~args:[ 0; n ]
          in
          check_bool
            (Printf.sprintf "factor %d, n=%d" factor n)
            true
            (r = r' && data = data'))
        [ 0; 1; 3; 4; 5; 8; 17; 32 ])
    [ 2; 3; 4; 8 ]

let test_unroll_skips_pointer_chase () =
  let k =
    Parser.parse_kernel
      {|kernel walk(h: int*) : int {
          var s: int = 0;
          var p: int* = h;
          while (p != null) { s = s + p[0]; p = (int*) p[1]; }
          return s;
        }|}
  in
  let _, count = Ast_unroll.unroll_kernel ~factor:4 k in
  check_int "nothing unrolled" 0 count

(* ---------------------- qcheck: differential ----------------------- *)

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100000)

let prop_lowering_matches_reference =
  QCheck.Test.make ~count:200 ~name:"lowered IR matches AST semantics" seed_arb
    (fun seed ->
      let kernel = Gen_prog.gen_kernel seed in
      Typecheck.check_kernel kernel;
      agree_on kernel ~args:[ 0; seed mod 17; seed mod 13 ]
        ~words:Gen_prog.mem_words)

let prop_optimization_preserves_semantics =
  QCheck.Test.make ~count:200 ~name:"optimized IR matches unoptimized IR"
    seed_arb (fun seed ->
      let kernel = Gen_prog.gen_kernel seed in
      let a = seed mod 23 and b = seed mod 19 in
      let f_plain = Lower.lower_kernel kernel in
      let f_opt = Lower.lower_kernel kernel in
      ignore (Pass_manager.optimize f_opt);
      let data1 = Array.init Gen_prog.mem_words (fun i -> (i * 37) mod 101) in
      let data2 = Array.copy data1 in
      let r1 = ir_run f_plain ~data:data1 ~args:[ 0; a; b ] in
      let r2 = ir_run f_opt ~data:data2 ~args:[ 0; a; b ] in
      r1 = r2 && data1 = data2)

let prop_unroll_preserves_semantics =
  QCheck.Test.make ~count:200 ~name:"unrolling preserves semantics" seed_arb
    (fun seed ->
      let kernel = Gen_prog.gen_kernel seed in
      let k2, _ = Ast_unroll.unroll_kernel ~factor:4 kernel in
      let a = seed mod 29 and b = seed mod 31 in
      let d1, r1 = Gen_prog.reference_run kernel ~a ~b in
      let d2, r2 = Gen_prog.reference_run k2 ~a ~b in
      r1 = r2 && d1 = d2)

let prop_validate_after_optimize =
  QCheck.Test.make ~count:200 ~name:"IR remains valid through the pipeline"
    seed_arb (fun seed ->
      let kernel = Gen_prog.gen_kernel seed in
      let f = Lower.lower_kernel kernel in
      ignore (Pass_manager.optimize f);
      match Ir.validate f with () -> true | exception Failure _ -> false)

let suite =
  [
    Alcotest.test_case "lower: vecadd semantics" `Quick
      test_lower_vecadd_semantics;
    Alcotest.test_case "lower: return value" `Quick test_lower_return_value;
    Alcotest.test_case "lower: if/else" `Quick test_lower_if_else;
    Alcotest.test_case "lower: strict logic" `Quick test_lower_strict_logic;
    Alcotest.test_case "interp: runaway detection" `Quick test_runaway_detection;
    Alcotest.test_case "fold: binops" `Quick test_const_fold_binops;
    Alcotest.test_case "fold: keeps div by zero" `Quick
      test_const_fold_keeps_div_by_zero;
    Alcotest.test_case "fold: branch" `Quick test_const_fold_branch;
    Alcotest.test_case "cse: shares loads" `Quick test_cse_shares_loads;
    Alcotest.test_case "cse: respects stores" `Quick test_cse_respects_stores;
    Alcotest.test_case "dce: removes dead" `Quick test_dce_removes_dead;
    Alcotest.test_case "dce: keeps stores" `Quick test_dce_keeps_stores;
    Alcotest.test_case "cfg: unreachable" `Quick test_simplify_cfg_unreachable;
    Alcotest.test_case "pipeline: report" `Quick test_optimize_pipeline_report;
    Alcotest.test_case "liveness: args live" `Quick test_liveness_args_live;
    Alcotest.test_case "liveness: pressure" `Quick test_max_live_positive;
    Alcotest.test_case "liveness: registers past next_reg" `Quick
      test_liveness_past_next_reg;
    Alcotest.test_case "unroll: applies" `Quick test_unroll_applies;
    Alcotest.test_case "unroll: preserves semantics" `Quick
      test_unroll_preserves_semantics;
    Alcotest.test_case "unroll: skips pointer chase" `Quick
      test_unroll_skips_pointer_chase;
    QCheck_alcotest.to_alcotest prop_lowering_matches_reference;
    QCheck_alcotest.to_alcotest prop_optimization_preserves_semantics;
    QCheck_alcotest.to_alcotest prop_unroll_preserves_semantics;
    QCheck_alcotest.to_alcotest prop_validate_after_optimize;
  ]
