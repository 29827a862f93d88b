(* The loop pipeliner: plan quality and, above all, that pipelined
   execution never changes results. *)

open Vmht_hls
module Parser = Vmht_lang.Parser
module Ast_interp = Vmht_lang.Ast_interp
module Engine = Vmht_sim.Engine

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let accel_run ?(pipeline = false) kernel ~data ~args =
  let hw = Fsm.synthesize ~pipeline kernel in
  let eng = Engine.create () in
  let result = ref None in
  Engine.spawn eng (fun () ->
      let port = Accel.untimed_port (Ast_interp.array_memory data) in
      let value = Accel.run ~engine:eng hw ~port ~args in
      result := Some (value, Engine.now eng));
  Engine.run eng;
  (Option.get !result, hw)

let vecadd =
  Parser.parse_kernel
    {|kernel vecadd(a: int*, b: int*, c: int*, n: int) {
        var i: int;
        for (i = 0; i < n; i = i + 1) { c[i] = a[i] + b[i]; }
      }|}

let dotprod =
  Parser.parse_kernel
    {|kernel dotprod(a: int*, b: int*, n: int) : int {
        var s: int = 0;
        var i: int;
        for (i = 0; i < n; i = i + 1) { s = s + a[i] * b[i]; }
        return s;
      }|}

let histogram =
  Parser.parse_kernel
    {|kernel histogram(a: int*, h: int*, n: int) {
        var i: int;
        for (i = 0; i < n; i = i + 1) {
          var v: int = a[i] & 7;
          h[v] = h[v] + 1;
        }
      }|}

let plans_of kernel =
  let hw = Fsm.synthesize ~pipeline:true kernel in
  hw.Fsm.plans

let test_plan_found_for_streaming () =
  match plans_of vecadd with
  | [ p ] ->
    check_bool "II below FSM iteration" true
      (p.Pipeliner.ii < p.Pipeliner.unpipelined_cycles);
    check_bool "depth >= II" true (p.Pipeliner.depth >= p.Pipeliner.ii)
  | plans -> Alcotest.fail (Printf.sprintf "expected 1 plan, got %d" (List.length plans))

let test_no_plans_without_flag () =
  let hw = Fsm.synthesize vecadd in
  check_int "no plans by default" 0 (List.length hw.Fsm.plans)

let test_reduction_recurrence_respected () =
  match plans_of dotprod with
  | [ p ] ->
    (* The s += chain is a distance-1 recurrence of latency >= 1. *)
    check_bool "II at least 1" true (p.Pipeliner.ii >= 1)
  | _ -> Alcotest.fail "expected one plan"

let test_memory_recurrence_raises_ii () =
  (* histogram's h[v] read-modify-write recurs through memory, so its
     II must exceed a pure streaming kernel's. *)
  match (plans_of histogram, plans_of vecadd) with
  | [ hist ], [ va ] ->
    check_bool "RMW loop has the larger II" true
      (hist.Pipeliner.ii > va.Pipeliner.ii)
  | _ -> Alcotest.fail "expected plans for both"

(* A hand-built loop-carried load/store chain with a known recurrence:
   each iteration loads the previous iteration's store.  The cycle is
   store -> (next iteration) load -> add -> store, so any schedule
   must satisfy II >= inter-edge delay (1) + load latency (1) + add
   latency (1) = 3. *)
let chain =
  Parser.parse_kernel
    {|kernel chain(m: int*, n: int) {
        var i: int;
        for (i = 1; i < n; i = i + 1) { m[i] = m[i - 1] + 1; }
      }|}

let test_recurrence_ii_oracle () =
  let f = Vmht_ir.Lower.lower_kernel chain in
  ignore (Vmht_ir.Pass_manager.optimize f);
  match Pipeliner.plan_loops f ~resources:Schedule.default_resources with
  | [ p ] ->
    check_int "rec_mii equals the hand-computed chain" 3 p.Pipeliner.rec_mii;
    check_bool "achieved II honors the recurrence" true
      (p.Pipeliner.ii >= p.Pipeliner.rec_mii);
    (* vecadd carries nothing through memory; its recurrence bound must
       sit strictly below the chained loop's. *)
    (match Pipeliner.plan_loops
             (let g = Vmht_ir.Lower.lower_kernel vecadd in
              ignore (Vmht_ir.Pass_manager.optimize g);
              g)
             ~resources:Schedule.default_resources
     with
     | [ v ] ->
       check_bool "streaming loop recurs less" true
         (v.Pipeliner.rec_mii < p.Pipeliner.rec_mii)
     | _ -> Alcotest.fail "expected one vecadd plan")
  | plans ->
    Alcotest.fail (Printf.sprintf "expected 1 plan, got %d" (List.length plans))

let test_pipelined_results_exact () =
  let data = Array.make 48 0 in
  for i = 0 to 15 do
    data.(i) <- i * 3;
    data.(16 + i) <- i + 100
  done;
  let reference = Array.copy data in
  let (_, _), _ = accel_run ~pipeline:false vecadd ~data:reference ~args:[ 0; 128; 256; 16 ] in
  let (_, _), _ = accel_run ~pipeline:true vecadd ~data ~args:[ 0; 128; 256; 16 ] in
  Alcotest.(check (array int)) "identical memory" reference data

let test_pipelined_faster () =
  let time pipeline =
    let data = Array.make 3072 1 in
    let (_, finished), _ =
      accel_run ~pipeline vecadd ~data ~args:[ 0; 8192; 16384; 1024 ]
    in
    finished
  in
  check_bool "pipelined run takes fewer cycles" true (time true < time false)

let test_histogram_pipelined_correct () =
  (* The riskiest case: loop-carried memory dependence. *)
  let data = Array.make 72 0 in
  for i = 0 to 63 do
    data.(i) <- i * 13
  done;
  let reference = Array.copy data in
  let (_, _), _ =
    accel_run ~pipeline:false histogram ~data:reference ~args:[ 0; 512; 64 ]
  in
  let (_, _), _ = accel_run ~pipeline:true histogram ~data ~args:[ 0; 512; 64 ] in
  Alcotest.(check (array int)) "bins identical" reference data

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100000)

let prop_pipelined_equivalence =
  QCheck.Test.make ~count:120
    ~name:"pipelined accelerator matches plain accelerator" seed_arb
    (fun seed ->
      let kernel = Gen_prog.gen_kernel seed in
      let a = seed mod 13 and b = seed mod 11 in
      let d1 = Array.init Gen_prog.mem_words (fun i -> (i * 37) mod 101) in
      let d2 = Array.copy d1 in
      let (r1, _), _ = accel_run ~pipeline:false kernel ~data:d1 ~args:[ 0; a; b ] in
      let (r2, _), _ = accel_run ~pipeline:true kernel ~data:d2 ~args:[ 0; a; b ] in
      r1 = r2 && d1 = d2)

let suite =
  [
    Alcotest.test_case "plan for streaming loop" `Quick
      test_plan_found_for_streaming;
    Alcotest.test_case "off by default" `Quick test_no_plans_without_flag;
    Alcotest.test_case "reduction recurrence" `Quick
      test_reduction_recurrence_respected;
    Alcotest.test_case "memory recurrence raises II" `Quick
      test_memory_recurrence_raises_ii;
    Alcotest.test_case "recurrence II oracle" `Quick test_recurrence_ii_oracle;
    Alcotest.test_case "results exact" `Quick test_pipelined_results_exact;
    Alcotest.test_case "pipelined faster" `Quick test_pipelined_faster;
    Alcotest.test_case "histogram RMW correct" `Quick
      test_histogram_pipelined_correct;
    QCheck_alcotest.to_alcotest prop_pipelined_equivalence;
  ]
