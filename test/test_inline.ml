(* Kernel calls and the inliner. *)

open Vmht_lang

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let program_src =
  {|
kernel clamp(x: int, lo: int, hi: int) : int {
  var r: int = x;
  if (x < lo) { r = lo; }
  if (x > hi) { r = hi; }
  return r;
}

kernel scale(x: int, k: int) : int {
  var t: int = clamp(x, 0, 100);
  return t * k;
}

kernel apply(src: int*, dst: int*, n: int, k: int) {
  var i: int;
  for (i = 0; i < n; i = i + 1) {
    var v: int = scale(src[i], k);
    dst[i] = v;
  }
}
|}

let parse_and_check src =
  let p = Parser.parse_program src in
  Typecheck.check_program p;
  p

(* ------------------------- parsing / typing ------------------------ *)

let test_parse_call () =
  let e = Parser.parse_expr "f(1, x + 2)" in
  check_bool "call node" true
    (e = Ast.Call ("f", [ Ast.Int 1; Ast.Bin (Ast.Add, Ast.Var "x", Ast.Int 2) ]))

let test_typecheck_accepts_calls () = ignore (parse_and_check program_src)

let rejects src =
  match parse_and_check src with
  | _ -> false
  | exception Loc.Error _ -> true

let test_rejects_unknown_callee () =
  check_bool "unknown kernel" true
    (rejects "kernel k() : int { var x: int = nope(1); return x; }")

let test_rejects_call_in_expression () =
  check_bool "call must be whole RHS" true
    (rejects
       {|kernel f(x: int) : int { return x; }
         kernel k() : int { var y: int = 1 + f(2); return y; }|})

let test_rejects_recursion () =
  check_bool "self recursion" true
    (rejects "kernel f(x: int) : int { var y: int = f(x); return y; }");
  check_bool "mutual recursion" true
    (rejects
       {|kernel a(x: int) : int { var y: int = b(x); return y; }
         kernel b(x: int) : int { var y: int = a(x); return y; }|})

let test_rejects_arity_and_void () =
  check_bool "arity" true
    (rejects
       {|kernel f(x: int) : int { return x; }
         kernel k() : int { var y: int = f(1, 2); return y; }|});
  check_bool "void callee" true
    (rejects
       {|kernel f(p: int*) { p[0] = 1; }
         kernel k(p: int*) : int { var y: int = f(p); return y; }|})

(* ------------------------- inlining -------------------------------- *)

let test_inline_removes_calls () =
  let p = Inline.program (parse_and_check program_src) in
  List.iter
    (fun (k : Ast.kernel) ->
      check_bool
        (k.Ast.kname ^ " is call-free")
        true
        (Typecheck.called_names [] k.Ast.body = []))
    p;
  (* The inlined program still typechecks as plain kernels. *)
  List.iter Typecheck.check_kernel p

let test_inline_preserves_semantics () =
  let p = parse_and_check program_src in
  let inlined = Inline.program p in
  let apply_inlined =
    match Ast.find_kernel inlined "apply" with
    | Some k -> k
    | None -> Alcotest.fail "apply missing"
  in
  let data = Array.init 16 (fun i -> (i * 17) - 40) in
  (* Reference: clamp+scale computed in OCaml. *)
  let expected =
    Array.map (fun v -> (max 0 (min 100 v)) * 3) (Array.sub data 0 8)
  in
  let mem = Ast_interp.array_memory data in
  ignore (Ast_interp.run_kernel mem apply_inlined ~args:[ 0; 64; 8; 3 ]);
  for i = 0 to 7 do
    check_int (Printf.sprintf "dst[%d]" i) expected.(i) data.(8 + i)
  done

let test_inline_rejects_multi_return_callee () =
  let p =
    parse_and_check
      {|kernel f(x: int) : int {
          if (x > 0) { return 1; } else { return 0; }
        }
        kernel k(x: int) : int { var y: int = f(x); return y; }|}
  in
  check_bool "multi-return callee rejected" true
    (match Inline.program p with
     | _ -> false
     | exception Inline.Inline_error _ -> true)

let test_inline_end_to_end_synthesis () =
  let apply =
    match Vmht.Flow.frontend_program program_src with
    | Ok program -> Option.get (Ast.find_kernel program "apply")
    | Error e -> Alcotest.fail (Vmht.Flow.error_to_string e)
  in
  let hw =
    Vmht.Flow.run_exn
      (Vmht.Flow.Request.of_kernel ~style:Vmht.Wrapper.Vm_iface apply)
  in
  (* Run the synthesized (inlined) accelerator and compare. *)
  let data = Array.init 16 (fun i -> (i * 29) - 60) in
  let expected =
    Array.map (fun v -> (max 0 (min 100 v)) * 5) (Array.sub data 0 8)
  in
  let eng = Vmht_sim.Engine.create () in
  Vmht_sim.Engine.spawn eng (fun () ->
      let port = Vmht_hls.Accel.untimed_port (Ast_interp.array_memory data) in
      ignore
        (Vmht_hls.Accel.run ~engine:eng hw.Vmht.Flow.fsm ~port
           ~args:[ 0; 64; 8; 5 ]));
  Vmht_sim.Engine.run eng;
  for i = 0 to 7 do
    check_int (Printf.sprintf "dst[%d]" i) expected.(i) data.(8 + i)
  done

let suite =
  [
    Alcotest.test_case "parse: call expression" `Quick test_parse_call;
    Alcotest.test_case "typecheck: accepts calls" `Quick
      test_typecheck_accepts_calls;
    Alcotest.test_case "typecheck: unknown callee" `Quick
      test_rejects_unknown_callee;
    Alcotest.test_case "typecheck: call in expression" `Quick
      test_rejects_call_in_expression;
    Alcotest.test_case "typecheck: recursion" `Quick test_rejects_recursion;
    Alcotest.test_case "typecheck: arity and void" `Quick
      test_rejects_arity_and_void;
    Alcotest.test_case "inline: removes calls" `Quick test_inline_removes_calls;
    Alcotest.test_case "inline: preserves semantics" `Quick
      test_inline_preserves_semantics;
    Alcotest.test_case "inline: multi-return rejected" `Quick
      test_inline_rejects_multi_return_callee;
    Alcotest.test_case "inline: end-to-end synthesis" `Quick
      test_inline_end_to_end_synthesis;
  ]
