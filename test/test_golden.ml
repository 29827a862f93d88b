(* Output pins for the synthesis pipeline, and time bounds on inputs
   whose shape once made a pass super-linear.

   The goldens are MD5s of the concatenated output, so any change to
   what a pass rewrites, how the scheduler orders, or what the emitter
   prints shows up here even when the result still computes the same
   values — which the interpreter properties cannot see.  A change that
   moves output on purpose updates the digest and says why. *)

module Config = Vmht.Config
module Flow = Vmht.Flow
module Registry = Vmht_workloads.Registry
module Workload = Vmht_workloads.Workload
open Vmht_ir

let check_string = Alcotest.(check string)

let check_int = Alcotest.(check int)

let ( let* ) l f = List.concat_map f l

(* The benchmark's [synth] workload: every kernel x unroll {1,2,4,8} x
   banks {1,4} x opt {0,2} x pipelining {off,on}, nested in that order,
   each synthesized from source in the VM style without the memo. *)
let test_synth_golden () =
  let buf = Buffer.create (1 lsl 22) in
  List.iter
    (fun (name, config) ->
      let source = (Registry.find name).Workload.source in
      let hw =
        Flow.run_exn (Flow.Request.of_source ~config ~cache:false source)
      in
      Buffer.add_string buf hw.Flow.verilog)
    (let* name = Registry.names in
     let* unroll = [ 1; 2; 4; 8 ] in
     let* banks = [ 1; 4 ] in
     let* opt = [ 0; 2 ] in
     let* pipeline = [ false; true ] in
     let c = Config.with_banks (Config.with_unroll Config.default unroll) banks in
     [ (name, Config.with_pipelining (Config.with_opt_level c opt) pipeline) ]);
  let verilog = Buffer.contents buf in
  check_int "bytes" 2_561_880 (String.length verilog);
  check_string "md5" "a43721b5d004babd440d922659b38715"
    (Digest.to_hex (Digest.string verilog))

(* Random kernels 0-499 at unroll 1 and 4, lowered and optimized at O2:
   the pass report (rewrite counts per pass) followed by the IR. *)
let test_random_golden () =
  let buf = Buffer.create (1 lsl 21) in
  for seed = 0 to 499 do
    List.iter
      (fun factor ->
        let kernel, _ =
          Ast_unroll.unroll_kernel ~factor (Gen_prog.gen_kernel seed)
        in
        let f = Lower.lower_kernel kernel in
        let report = Pass_manager.optimize f in
        Buffer.add_string buf (Pass_manager.report_to_string report);
        Buffer.add_string buf (Ir.func_to_string f))
      [ 1; 4 ]
  done;
  let out = Buffer.contents buf in
  check_int "bytes" 1_151_597 (String.length out);
  check_string "md5" "9196b07d3b1a91a09822f8e35d67aa90"
    (Digest.to_hex (Digest.string out))

(* Random kernels 0-99 at unroll 1 and 4, synthesized at the default O2
   in both wrapper styles: the emitter's Verilog.  The registry kernels
   of the synth grid never print [%], [^], [|], [>>>], [>]/[>=], unary
   [-], [~] or [{63'b0, x == 0}]; these kernels print each of them, so
   every operator branch of the emitter has its bytes pinned. *)
let test_emitter_golden () =
  let buf = Buffer.create (1 lsl 22) in
  for seed = 0 to 99 do
    let kernel = Gen_prog.gen_kernel seed in
    List.iter
      (fun (unroll, style) ->
        let config = Config.with_unroll Config.default unroll in
        let hw =
          Flow.run_exn
            (Flow.Request.of_kernel ~config ~style ~cache:false kernel)
        in
        Buffer.add_string buf hw.Flow.verilog)
      (let* unroll = [ 1; 4 ] in
       let* style = [ Vmht.Wrapper.Vm_iface; Vmht.Wrapper.Dma_iface ] in
       [ (unroll, style) ])
  done;
  let verilog = Buffer.contents buf in
  check_int "bytes" 4_227_490 (String.length verilog);
  check_string "md5" "dad55c099c8fe2ee0cdc6524aa9fed9c"
    (Digest.to_hex (Digest.string verilog))

(* --- time bounds ----------------------------------------------------- *)

(* [if (x > i) { r = r + i; ...] nested [depth] deep. *)
let deep_if depth =
  let b = Buffer.create (depth * 32) in
  Buffer.add_string b "kernel deep(x: int) : int {\n  var r: int = 0;\n";
  for i = 0 to depth - 1 do
    Buffer.add_string b (Printf.sprintf "  if (x > %d) { r = r + %d;\n" i i)
  done;
  for _ = 1 to depth do
    Buffer.add_string b "  }\n"
  done;
  Buffer.add_string b "  return r;\n}\n";
  Buffer.contents b

(* [return x + x + ... ;] with [terms] terms. *)
let long_sum terms =
  let b = Buffer.create (terms * 4) in
  Buffer.add_string b "kernel sum(x: int) : int {\n  return x";
  for _ = 2 to terms do
    Buffer.add_string b " + x"
  done;
  Buffer.add_string b ";\n}\n";
  Buffer.contents b

let kernel source =
  let k = Vmht_lang.Parser.parse_kernel source in
  Vmht_lang.Typecheck.check_kernel k;
  k

(* CPU seconds, so a busy host does not fail the bound. *)
let within name bound f =
  let t0 = Sys.time () in
  let v = f () in
  let dt = Sys.time () -. t0 in
  if dt > bound then Alcotest.failf "%s took %.2f s (bound %.2f s)" name dt bound;
  v

let test_deep_if_o2 () =
  let k = kernel (deep_if 2000) in
  within "lower + O2 of a 2000-deep if nest" 3.0 (fun () ->
      ignore (Pass_manager.optimize (Lower.lower_kernel k)))

let test_deep_if_licm () =
  let f = Lower.lower_kernel (kernel (deep_if 4000)) in
  within "LICM on a 4000-deep if nest" 0.5 (fun () -> ignore (Licm.run f))

let test_deep_if_lower () =
  let k = kernel (deep_if 8000) in
  let f =
    within "lowering an 8000-deep if nest" 0.5 (fun () -> Lower.lower_kernel k)
  in
  (* entry, a then-block and a join per level, and the block the
     lowerer opens after the [return] *)
  check_int "blocks" (2 + (2 * 8000)) (Ir.block_count f)

let test_long_sum_o2 () =
  let k = kernel (long_sum 8000) in
  within "lower + O2 of an 8000-term sum" 1.0 (fun () ->
      ignore (Pass_manager.optimize (Lower.lower_kernel k)))

let suite =
  [
    Alcotest.test_case "synth grid Verilog (320 points)" `Quick
      test_synth_golden;
    Alcotest.test_case "random programs: O2 report and IR" `Quick
      test_random_golden;
    Alcotest.test_case "time: 2000-deep if, lower + O2 < 3 s" `Quick
      test_deep_if_o2;
    Alcotest.test_case "time: 8000-deep if, lower < 0.5 s" `Quick
      test_deep_if_lower;
    Alcotest.test_case "time: 8000-term sum, lower + O2 < 1 s" `Quick
      test_long_sum_o2;
    Alcotest.test_case "random programs: Verilog (400 modules)" `Quick
      test_emitter_golden;
    Alcotest.test_case "time: 4000-deep if, LICM < 0.5 s" `Quick
      test_deep_if_licm;
  ]
