(* The RTL loop, closed: the emitted Verilog text is parsed back and
   executed, and the emitted bytes must agree with the model-level
   executor — results, cycle counts, and memory traffic.  Each emitter
   bug this library was built to catch has a directed regression here
   that fails against the pre-fix emitter: the request-hold bug, the
   missing resets, the mis-signed [>>>], the [-64'sd5] negative
   immediates, the undersized state register, and stale terminator
   operands. *)

module Parse = Vmht_rtl.Parse
module Eval = Vmht_rtl.Eval
module Engine = Vmht_sim.Engine
module Accel = Vmht_hls.Accel
module Fsm = Vmht_hls.Fsm
module Parser = Vmht_lang.Parser
module Ast_interp = Vmht_lang.Ast_interp
module Common = Vmht_eval.Common
module Flow = Vmht.Flow

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Replace the first occurrence of [sub] in [text] with [by]. *)
let replace ~sub ~by text =
  let nt = String.length text and ns = String.length sub in
  let rec find i =
    if i + ns > nt then None
    else if String.sub text i ns = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> invalid_arg "replace: substring absent"
  | Some i ->
    String.sub text 0 i ^ by ^ String.sub text (i + ns) (nt - i - ns)

(* Run a compiled module inside a private engine, like the
   model-executor tests do for [Accel.run]. *)
let run_program ?max_edges prog ~port ~args =
  let eng = Engine.create () in
  let out = ref None in
  let stats = Accel.fresh_stats () in
  Engine.spawn eng (fun () ->
      out := Some (Eval.run ~stats ?max_edges ~engine:eng prog ~port ~args));
  Engine.run eng;
  (Option.get !out, stats)

let compile text = Eval.compile (Parse.parse_module text)

let eval_run text ~port ~args = run_program (compile text) ~port ~args

(* The same kernel through both executors, untimed memory: returns
   ((ret, data, fsm_cycles) per backend). *)
let both_backends ?(unroll = 1) kernel ~data ~args =
  let hw = Fsm.synthesize ~unroll kernel in
  let model_data = Array.copy data in
  let model_ret = ref None in
  let model_stats = Accel.fresh_stats () in
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      let port = Accel.untimed_port (Ast_interp.array_memory model_data) in
      model_ret :=
        Some (Accel.run ~stats:model_stats ~engine:eng hw ~port ~args));
  Engine.run eng;
  let text = Vmht_hls.Verilog.emit hw in
  let rtl_data = Array.copy data in
  let out, rtl_stats =
    eval_run text
      ~port:(Accel.untimed_port (Ast_interp.array_memory rtl_data))
      ~args
  in
  ( (!model_ret, model_data, model_stats),
    (out, rtl_data, rtl_stats) )

(* ------------------- emitted text round-trips ---------------------- *)

(* Every workload's emitted module, both wrapper styles, must parse —
   including kernels with enough states that the pre-fix emitter's
   undersized state register made S_IDLE overflow its literal width
   (a hard Parse_error here, not silent truncation). *)
let test_parse_all_workloads () =
  List.iter
    (fun (w : Vmht_workloads.Workload.t) ->
      List.iter
        (fun style ->
          let hw = Common.synthesize style w in
          let m = Parse.parse_module hw.Flow.verilog in
          check_bool
            (w.Vmht_workloads.Workload.name ^ ": has idle/done params")
            true
            (List.mem_assoc "S_IDLE" m.Vmht_rtl.Ast.params
            && List.mem_assoc "S_DONE" m.Vmht_rtl.Ast.params);
          (* The memo must hand back the same compiled program. *)
          check_bool "memoized program" true
            (Eval.load hw.Flow.verilog == Eval.load hw.Flow.verilog))
        [ Vmht.Wrapper.Vm_iface; Vmht.Wrapper.Dma_iface ])
    Vmht_workloads.Registry.all

let vecadd_kernel =
  Parser.parse_kernel
    {|kernel vecadd(a: int*, b: int*, c: int*, n: int) {
        var i: int;
        for (i = 0; i < n; i = i + 1) { c[i] = a[i] + b[i]; }
      }|}

(* Reset clause regression: the pre-fix emitter reset only state/done,
   leaving result and every channel output X after reset. *)
let test_emitted_reset_clause () =
  let hw = Fsm.synthesize vecadd_kernel in
  let text = Vmht_hls.Verilog.emit hw in
  List.iter
    (fun line ->
      check_bool ("reset clause has " ^ line) true (contains text line))
    [
      "result <= 64'd0;";
      "mem_req <= 1'b0;";
      "mem_we <= 1'b0;";
      "mem_addr <= 64'd0;";
      "mem_wdata <= 64'd0;";
    ]

(* Negative immediates must be sized two's-complement literals: the old
   [-64'sd5] spelling is self-determined inside concatenations and
   mis-parses there, so the strict parser rejects the form outright. *)
let test_negative_immediates () =
  let k =
    Parser.parse_kernel
      {|kernel negk(a: int*, n: int) {
          var i: int;
          for (i = 0; i < n; i = i + 1) { a[i] = a[i] * (-3) + (-7); }
        }|}
  in
  let hw = Fsm.synthesize k in
  let text = Vmht_hls.Verilog.emit hw in
  check_bool "no -64'sd spelling" false (contains text "-64'sd");
  check_bool "two's-complement hex immediates present" true
    (contains text "64'hf");
  (* And the emitted bytes still compute the right thing. *)
  let data = Array.init 8 (fun i -> i - 3) in
  let (mret, mdata, _), (out, rdata, _) =
    both_backends k ~data ~args:[ 0; 8 ]
  in
  check_bool "model ran" true (mret <> None);
  ignore out;
  Array.iteri
    (fun i v ->
      check_int (Printf.sprintf "negk data[%d]" i) v rdata.(i);
      check_int (Printf.sprintf "negk expected[%d]" i)
        (((i - 3) * -3) - 7)
        mdata.(i))
    mdata

(* --------------------- handwritten harness ------------------------ *)

(* A two-load adder in exactly the emitted module shape.  [deassert]
   selects whether the FSM drops [mem_req] on the acked advance — the
   emitter's request-hold bug, isolated. *)
let two_loads ~deassert =
  let d = if deassert then "mem_req <= 1'b0;\n            " else "" in
  Printf.sprintf
    {|module ht_two_loads(
  input wire clk,
  input wire rst,
  input wire start,
  input wire [63:0] arg0,
  output reg done,
  output reg [63:0] result,
  output reg mem_req,
  output reg mem_we,
  output reg [63:0] mem_addr,
  output reg [63:0] mem_wdata,
  input wire [63:0] mem_rdata,
  input wire mem_ack
);
  localparam S_IDLE = 3'd3;
  localparam S_DONE = 3'd4;
  reg [2:0] state;
  reg [63:0] r1;
  reg [63:0] r2;
  always @(posedge clk) begin
    if (rst) begin
      state <= S_IDLE;
      done <= 1'b0;
      result <= 64'd0;
      mem_req <= 1'b0;
      mem_we <= 1'b0;
      mem_addr <= 64'd0;
      mem_wdata <= 64'd0;
    end else begin
      case (state)
        S_IDLE: begin
          if (start) begin
            done <= 1'b0;
            state <= 3'd0;
          end
        end
        3'd0: begin
          mem_req <= 1'b1;
          mem_we <= 1'b0;
          mem_addr <= arg0;
          if (mem_ack) begin
            r1 <= mem_rdata;
            %sstate <= 3'd1;
          end
        end
        3'd1: begin
          mem_req <= 1'b1;
          mem_we <= 1'b0;
          mem_addr <= arg0 + 64'd8;
          if (mem_ack) begin
            r2 <= mem_rdata;
            %sstate <= 3'd2;
          end
        end
        3'd2: begin
          result <= r1 + r2;
          done <= 1'b1;
          state <= S_DONE;
        end
        S_DONE: begin
          done <= 1'b1;
        end
      endcase
    end
  end
endmodule
|}
    d d

(* A pure single-state module computing [result <= <expr of arg0>]. *)
let pure_module expr =
  Printf.sprintf
    {|module ht_mini(
  input wire clk,
  input wire rst,
  input wire start,
  input wire [63:0] arg0,
  output reg done,
  output reg [63:0] result
);
  localparam S_IDLE = 2'd1;
  localparam S_DONE = 2'd2;
  reg [1:0] state;
  always @(posedge clk) begin
    if (rst) begin
      state <= S_IDLE;
      done <= 1'b0;
      result <= 64'd0;
    end else begin
      case (state)
        S_IDLE: begin
          if (start) begin
            done <= 1'b0;
            state <= 2'd0;
          end
        end
        2'd0: begin
          result <= %s;
          done <= 1'b1;
          state <= S_DONE;
        end
        S_DONE: begin
          done <= 1'b1;
        end
      endcase
    end
  end
endmodule
|}
    expr

let untimed_of data = Accel.untimed_port (Ast_interp.array_memory data)

(* The request-hold regression: without the deassert, the adapter's
   held ack satisfies the next state's gate instantly, so the second
   load never goes out — one request, stale data.  With it, two
   requests and the right sum.  Counting accepted requests is what
   makes the bug observable rather than just "wrong answer". *)
let test_request_hold_bug () =
  let data = [| 5; 9 |] in
  let fixed, fstats =
    eval_run (two_loads ~deassert:true) ~port:(untimed_of data) ~args:[ 0 ]
  in
  check_int "fixed: result" 14 (Option.get fixed.Eval.result);
  check_int "fixed: requests" 2 fixed.Eval.requests;
  check_int "fixed: loads" 2 fstats.Accel.loads;
  let buggy, bstats =
    eval_run (two_loads ~deassert:false) ~port:(untimed_of data) ~args:[ 0 ]
  in
  check_int "hold bug: only one request ever issues" 1 buggy.Eval.requests;
  check_int "hold bug: one load" 1 bstats.Accel.loads;
  check_int "hold bug: stale data doubles the first word" 10
    (Option.get buggy.Eval.result)

(* A memory state that raises its request and moves on without waiting
   for the ack has no counterpart in the model, whose memory cycle
   completes before the FSM advances: the run stops at that edge with
   an error naming it, both states and the channel, instead of
   servicing the access behind the FSM's back. *)
let test_advance_with_request_out () =
  let eager =
    replace (two_loads ~deassert:true)
      ~sub:
        "          mem_addr <= arg0;\n\
        \          if (mem_ack) begin\n\
        \            r1 <= mem_rdata;\n\
        \            mem_req <= 1'b0;\n\
        \            state <= 3'd1;\n\
        \          end\n"
      ~by:"          mem_addr <= arg0;\n          state <= 3'd1;\n"
  in
  match eval_run eager ~port:(untimed_of [| 5; 9 |]) ~args:[ 0 ] with
  | exception Eval.Rtl_error msg ->
    Alcotest.(check string)
      "the first divergent edge" "edge 2: state 0 advanced to 1 with \
                                  mem_req outstanding" msg
  | _ -> Alcotest.fail "a state left with its request out ran to done"

(* The missing-reset regression: with the reset clause gutted, the
   first sampled request line is X — a hard error, not a quiet zero. *)
let test_missing_reset_is_x () =
  let gutted =
    (* Strip every reset assignment except state's, mimicking the
       pre-fix emitter (which reset only state and done). *)
    let lines = String.split_on_char '\n' (two_loads ~deassert:true) in
    let in_reset = ref false in
    let keep line =
      if contains line "if (rst) begin" then begin
        in_reset := true;
        true
      end
      else if !in_reset && contains line "end else begin" then begin
        in_reset := false;
        true
      end
      else not (!in_reset && (contains line "mem_" || contains line "result"))
    in
    String.concat "\n" (List.filter keep lines)
  in
  let data = [| 5; 9 |] in
  match eval_run gutted ~port:(untimed_of data) ~args:[ 0 ] with
  | exception Eval.Rtl_error msg ->
    check_bool "error names the X'd request" true (contains msg "X")
  | _ -> Alcotest.fail "unreset request line executed without an error"

(* The [>>>] signedness bug, pinned semantically: on an unsigned reg,
   [>>>] is a *logical* shift, so the pre-fix emitter's spelling
   diverges from the interpreter's arithmetic [asr] on any negative
   value.  The fixed emitter casts with [$signed]. *)
let test_shr_signedness () =
  let run expr =
    let out, _ =
      eval_run (pure_module expr) ~port:(untimed_of [||]) ~args:[ -8 ]
    in
    Option.get out.Eval.result
  in
  check_int "$signed(x) >>> 1 is an arithmetic shift" (-4)
    (run "$signed(arg0) >>> 1");
  check_int "bare x >>> 1 is a logical shift (the bug)"
    (Int64.to_int (Int64.shift_right_logical (Int64.of_int (-8)) 1))
    (run "arg0 >>> 1");
  (* And the emitter now always writes the signed form. *)
  let k =
    Parser.parse_kernel
      {|kernel shrk(a: int*, n: int) {
          var i: int;
          for (i = 0; i < n; i = i + 1) { a[i] = a[i] >> 1; }
        }|}
  in
  let text = Vmht_hls.Verilog.emit (Fsm.synthesize k) in
  let rec scan from =
    match String.index_from_opt text from '>' with
    | Some i
      when i + 2 < String.length text
           && text.[i + 1] = '>' && text.[i + 2] = '>' ->
      (* Every [>>>] must shift a [$signed(...)] operand. *)
      check_bool ">>> operand is $signed" true
        (i >= 2 && String.sub text (i - 2) 2 = ") ");
      scan (i + 3)
    | Some i -> scan (i + 1)
    | None -> ()
  in
  scan 0;
  check_bool "shift kernel uses >>>" true (contains text ">>>");
  (* Behavioral: negative values survive the round trip. *)
  let data = [| -8; -3; 17; min_int / 2 |] in
  let (_, mdata, mstats), (_, rdata, rstats) =
    both_backends k ~data ~args:[ 0; 4 ]
  in
  Array.iteri
    (fun i v ->
      check_int (Printf.sprintf "shrk data[%d]" i) v rdata.(i);
      check_int (Printf.sprintf "shrk expected[%d]" i) (data.(i) asr 1)
        mdata.(i))
    mdata;
  check_int "shrk fsm cycles" mstats.Accel.fsm_cycles rstats.Accel.fsm_cycles

(* Terminator forwarding: a loop branch whose condition is computed in
   the block's final cycle must read the *forwarded* value, not the
   stale register — the emitter inlines the defining expression into
   the state-select ternary. *)
let test_terminator_forwarding () =
  let hw = Fsm.synthesize vecadd_kernel in
  let text = Vmht_hls.Verilog.emit hw in
  check_bool "branch condition is forwarded inline" true
    (contains text "state <= ((");
  let data = Array.init 24 (fun i -> i) in
  let (_, mdata, mstats), (_, rdata, rstats) =
    both_backends vecadd_kernel ~data ~args:[ 0; 8 * 8; 16 * 8; 8 ]
  in
  check_bool "vecadd data matches model" true (mdata = rdata);
  check_int "vecadd fsm cycles" mstats.Accel.fsm_cycles
    rstats.Accel.fsm_cycles

(* ---------------------- parser strictness ------------------------- *)

let expect_parse_error name text =
  match Parse.parse_module text with
  | exception Parse.Parse_error _ -> ()
  | _ -> Alcotest.fail (name ^ ": accepted by the strict parser")

let test_parser_strictness () =
  (* The pre-fix spelling of negative immediates. *)
  expect_parse_error "unary minus on a sized literal"
    (pure_module "arg0 + -64'sd7");
  (* The undersized state register: 3'd8 does not fit. *)
  expect_parse_error "overflowing literal" (pure_module "arg0 + 3'd8");
  expect_parse_error "x digits" (pure_module "arg0 + 4'dx");
  expect_parse_error "underscore digits" (pure_module "arg0 + 16'd1_0");
  (* No else branches in the emitted subset. *)
  expect_parse_error "else branch"
    (replace (pure_module "arg0")
       ~sub:"result <= arg0;"
       ~by:"if (start) result <= arg0; else result <= 64'd1;")

(* ---------------------- compiled evaluator ------------------------- *)

let expect_compile_error name ~needle text =
  match compile text with
  | exception Eval.Rtl_error msg ->
    check_bool (name ^ ": error names the cause") true (contains msg needle)
  | _ -> Alcotest.fail (name ^ ": compiled without an error")

(* [pure_module] with one more arm, for state 3 — which the FSM never
   enters, so only compilation can see what is wrong with it. *)
let with_dead_arm body =
  replace (pure_module "arg0 + 64'd1")
    ~sub:"        S_DONE: begin"
    ~by:(Printf.sprintf "        2'd3: begin %s end\n        S_DONE: begin" body)

let test_dead_arm_errors () =
  let data = [||] in
  let out, _ =
    eval_run (with_dead_arm "result <= arg0;") ~port:(untimed_of data)
      ~args:[ 4 ]
  in
  check_int "a well-formed dead arm is harmless" 5 (Option.get out.Eval.result);
  expect_compile_error "assignment to an input" ~needle:"non-register"
    (with_dead_arm "start <= 1'b1;");
  expect_compile_error "unknown identifier" ~needle:"bogus"
    (with_dead_arm "result <= bogus + 64'd1;");
  expect_compile_error "unknown identifier in a branch" ~needle:"bogus"
    (with_dead_arm "if (bogus) result <= 64'd1;")

(* A channel prefix shorter than "mem" used to slice out of bounds and
   escape as [Invalid_argument] instead of the evaluator's own error. *)
let test_short_channel_prefix () =
  let text =
    replace (two_loads ~deassert:true) ~sub:"  input wire mem_ack\n"
      ~by:"  input wire mem_ack,\n  output reg ab_req,\n  input wire ab_ack\n"
  in
  expect_compile_error "two-letter channel prefix" ~needle:"\"ab\"" text

(* One memoized program executed twice on one engine, alone on two
   more, and twice at once on a shared engine (the runs' pure edges
   interleave): every run must report the same outcome, statistics and
   memory — no run state lives in the shared program. *)
let test_shared_program () =
  let text = Vmht_hls.Verilog.emit (Fsm.synthesize vecadd_kernel) in
  let prog = Eval.load text in
  let data () = Array.init 24 (fun i -> i * 3) in
  let args = [ 0; 8 * 8; 16 * 8; 8 ] in
  let observe (out, (s : Accel.run_stats), mem) =
    ( out,
      (s.Accel.fsm_cycles, s.Accel.loads, s.Accel.stores, s.Accel.block_visits),
      mem )
  in
  let run_once eng =
    let mem = data () in
    let stats = Accel.fresh_stats () in
    let out = Eval.run ~stats ~engine:eng prog ~port:(untimed_of mem) ~args in
    observe (out, stats, mem)
  in
  (* [procs] processes on a fresh engine, each running [runs] times. *)
  let on_engine ~procs ~runs =
    let eng = Engine.create () in
    let results = ref [] in
    for _ = 1 to procs do
      Engine.spawn eng (fun () ->
          for _ = 1 to runs do
            let r = run_once eng in
            results := r :: !results
          done)
    done;
    Engine.run eng;
    !results
  in
  let runs =
    on_engine ~procs:1 ~runs:2
    @ on_engine ~procs:1 ~runs:1
    @ on_engine ~procs:1 ~runs:1
    @ on_engine ~procs:2 ~runs:1
  in
  let first = List.hd runs in
  let _, _, mem = first in
  check_int "vecadd computed c[0] = a[0] + b[0]" (0 + (8 * 3)) mem.(16);
  List.iteri
    (fun i r -> check_bool (Printf.sprintf "run %d = run 0" i) true (r = first))
    runs;
  check_int "six runs" 6 (List.length runs);
  (* Resetting the memo, directly or through the flow's cache reset,
     makes the next load parse and compile afresh. *)
  check_bool "memo hit" true (prog == Eval.load text);
  Eval.reset_memo ();
  let fresh = Eval.load text in
  check_bool "reset_memo compiles afresh" true (prog != fresh);
  Flow.reset_cache ();
  check_bool "Flow.reset_cache empties the memo" true
    (fresh != Eval.load text)

(* A request raised only inside an [if] body of its arm: the evaluator
   must still see the arm drive the channel.  A missed request would
   spin the FSM in its load state, so the small budget fails it fast. *)
let test_request_inside_if () =
  let text =
    replace (two_loads ~deassert:true) ~sub:"          mem_req <= 1'b1;\n"
      ~by:"          if (start) mem_req <= 1'b1;\n"
  in
  let out, stats =
    run_program ~max_edges:20 (compile text) ~port:(untimed_of [| 5; 9 |])
      ~args:[ 0 ]
  in
  check_int "result" 14 (Option.get out.Eval.result);
  check_int "requests" 2 out.Eval.requests;
  check_int "loads" 2 stats.Accel.loads;
  check_int "edges" 6 out.Eval.edges

(* [pure_module]'s state 0 running [body] instead, over a register [r1]
   that holds arg0 on entry. *)
let with_r1 body =
  pure_module "arg0"
  |> replace ~sub:"  reg [1:0] state;\n"
       ~by:"  reg [1:0] state;\n  reg [63:0] r1;\n"
  |> replace ~sub:"            done <= 1'b0;\n"
       ~by:"            done <= 1'b0;\n            r1 <= arg0;\n"
  |> replace ~sub:"          result <= arg0;\n" ~by:("          " ^ body ^ "\n")

(* Assignments are nonblocking: a statement reading a register an
   earlier statement of its arm assigns sees the edge's entry value,
   whichever order the two are written in. *)
let test_read_after_write () =
  let run body =
    let out, _ =
      eval_run (with_r1 body) ~port:(untimed_of [||]) ~args:[ 41 ]
    in
    Option.get out.Eval.result
  in
  check_int "write, then read" 41 (run "r1 <= r1 + 64'd1; result <= r1;");
  check_int "read, then write" 41 (run "result <= r1; r1 <= r1 + 64'd1;");
  check_int "write, then a sum that reads it" 82
    (run "r1 <= r1 + 64'd1; result <= r1 + r1;");
  check_int "write, then a condition that reads it" 41
    (run "r1 <= r1 + 64'd1; if (r1 == 64'd41) result <= r1;")

(* An in-place arm runs its leaf assignments first, as groups, and only
   a leaf whose target no earlier statement reads or assigns may join
   them.  [r1 <= 64'd7] read by an earlier [result <= r1] stays behind
   it; an assignment inside an [if] still wins over a top-level one
   before it, and loses to one after it. *)
let test_grouped_leaves_keep_order () =
  let run body =
    let out, _ =
      eval_run (with_r1 body) ~port:(untimed_of [||]) ~args:[ 41 ]
    in
    Option.get out.Eval.result
  in
  check_int "a target read earlier is not moved" 41
    (run "result <= r1; r1 <= 64'd7;");
  check_int "an if overrides a top-level assignment before it" 2
    (run "result <= 64'd1; if (r1) result <= 64'd2;");
  check_int "a top-level assignment after an if overrides it" 1
    (run "if (r1) result <= 64'd2; result <= 64'd1;")

(* ------------- arms against a tree-walking reading ----------------- *)

module A = Vmht_rtl.Ast

let lit v = A.Lit { A.width = 64; value = v; signed = false }

(* The registers a random arm assigns, besides [result]. *)
let arm_regs = [ "r0"; "r1"; "r2"; "r3" ]

(* A module whose state 0 runs [body] on one edge, after a reset that
   gives each register of [inits] its value and leaves the others X;
   state 1 then copies register [probe] to [result], so a run shows
   what the edge left in it. *)
let arm_module ~inits ~probe body =
  let port ?(is_reg = false) dir width pname =
    { A.dir; is_reg; width; pname }
  in
  let state v = { A.width = 2; value = v; signed = false } in
  {
    A.mname = "ht_arm";
    ports =
      [
        port A.Input 1 "clk";
        port A.Input 1 "rst";
        port A.Input 1 "start";
        port A.Input 64 "arg0";
        port A.Input 64 "arg1";
        port ~is_reg:true A.Output 1 "done";
        port ~is_reg:true A.Output 64 "result";
      ];
    params = [ ("S_IDLE", state 2); ("S_DONE", state 3) ];
    regs = ("state", 2) :: List.map (fun r -> (r, 64)) arm_regs;
    reset =
      [
        A.Assign ("state", A.Var "S_IDLE");
        A.Assign ("done", lit 0);
        A.Assign ("result", lit 0);
      ]
      @ List.map (fun (r, v) -> A.Assign (r, lit v)) inits;
    arms =
      [
        ( A.Kid "S_IDLE",
          [
            A.If
              ( A.Var "start",
                [ A.Assign ("done", lit 0); A.Assign ("state", lit 0) ] );
          ] );
        (A.Knum 0, body @ [ A.Assign ("state", lit 1) ]);
        ( A.Knum 1,
          [
            A.Assign ("result", A.Var probe);
            A.Assign ("done", lit 1);
            A.Assign ("state", A.Var "S_DONE");
          ] );
        (A.Kid "S_DONE", [ A.Assign ("done", lit 1) ]);
      ];
  }

(* The reference reading of [body]: every right-hand side and condition
   of an edge sees the edge's entry values, the edge's writes land at
   its end in statement order, and [None] is X.  X flows through [+],
   [-] and [<<]; an X condition stops the run. *)
let rec ref_expr env = function
  | A.Lit l -> Some l.A.value
  | A.Var n -> List.assoc n env
  | A.Binop (op, l, r) -> (
    match (ref_expr env l, ref_expr env r) with
    | Some a, Some b -> (
      match op with
      | "+" -> Some (a + b)
      | "-" -> Some (a - b)
      | "<<" -> Some (a lsl (b land 63))
      | _ -> invalid_arg op)
    | _ -> None)
  | _ -> invalid_arg "ref_expr"

let rec ref_writes env writes stmts =
  List.fold_left
    (fun writes -> function
      | A.Assign (n, e) -> (n, ref_expr env e) :: writes
      | A.If (c, body) -> (
        match ref_expr env c with
        | None ->
          raise
            (Eval.Rtl_error "X in a branch condition (uninitialized control)")
        | Some 0 -> writes
        | Some _ -> ref_writes env writes body))
    writes stmts

let ref_probe ~inits ~args ~probe body =
  let env =
    [ ("arg0", Some (List.nth args 0)); ("arg1", Some (List.nth args 1));
      ("result", Some 0) ]
    @ List.map (fun r -> (r, List.assoc_opt r inits)) arm_regs
  in
  let writes = List.rev (ref_writes env [] body) in
  List.assoc probe
    (List.fold_left
       (fun env (n, v) -> (n, v) :: List.remove_assoc n env)
       env writes)

let rec show_expr = function
  | A.Lit l -> string_of_int l.A.value
  | A.Var n -> n
  | A.Binop (op, l, r) ->
    Printf.sprintf "(%s %s %s)" (show_expr l) op (show_expr r)
  | _ -> "?"

let rec show_stmt = function
  | A.Assign (n, e) -> Printf.sprintf "%s <= %s;" n (show_expr e)
  | A.If (c, body) ->
    Printf.sprintf "if (%s) begin %s end" (show_expr c)
      (String.concat " " (List.map show_stmt body))

(* Bodies over four registers and [result]: literals, copies, the three
   leaf binops, a [-] that stays a closure, and [if]s, nested, on
   registers the reset may leave X.  With five targets, a target
   assigned twice and a name read before a later statement assigns it
   are common, and so are bodies that read a name after assigning it,
   which buffer their writes. *)
let arb_arm =
  let open QCheck.Gen in
  let reg = oneofl arm_regs in
  let name = oneofl ("arg0" :: "arg1" :: "result" :: arm_regs) in
  let expr =
    frequency
      [
        (2, map lit (0 -- 1000));
        (2, map (fun n -> A.Var n) name);
        (2, map2 (fun a b -> A.Binop ("+", A.Var a, A.Var b)) name name);
        (1, map2 (fun a k -> A.Binop ("+", A.Var a, lit k)) name (0 -- 100));
        (1, map2 (fun k a -> A.Binop ("+", lit k, A.Var a)) (0 -- 100) name);
        (2, map2 (fun a k -> A.Binop ("<<", A.Var a, lit k)) name (0 -- 70));
        (1, map2 (fun a b -> A.Binop ("-", A.Var a, A.Var b)) name name);
      ]
  in
  let assign =
    map2 (fun n e -> A.Assign (n, e)) (oneofl ("result" :: arm_regs)) expr
  in
  let rec stmt depth =
    if depth = 0 then assign
    else
      frequency
        [
          (4, assign);
          ( 1,
            map2
              (fun c body -> A.If (A.Var c, body))
              reg
              (list_size (1 -- 3) (stmt (depth - 1))) );
        ]
  in
  let inits =
    map
      (List.filter_map (fun (r, v) -> Option.map (fun v -> (r, v)) v))
      (flatten_l
         (List.map
            (fun r -> map (fun v -> (r, v)) (opt ~ratio:0.75 (0 -- 50)))
            arm_regs))
  in
  QCheck.make
    ~print:(fun ((inits, args), probe, body) ->
      Printf.sprintf "inits [%s], args [%s], probe %s, body: %s"
        (String.concat "; "
           (List.map (fun (r, v) -> Printf.sprintf "%s=%d" r v) inits))
        (String.concat "; " (List.map string_of_int args))
        probe
        (String.concat " " (List.map show_stmt body)))
    (triple
       (pair inits (list_repeat 2 (0 -- 1000)))
       (oneofl ("result" :: arm_regs))
       (list_size (1 -- 8) (stmt 2)))

let prop_arms_match_reference =
  QCheck.Test.make ~count:1000
    ~name:"eval: arms = nonblocking reading (results, X, errors)" arb_arm
    (fun ((inits, args), probe, body) ->
      let outcome f =
        match f () with v -> Ok v | exception Eval.Rtl_error m -> Error m
      in
      let evaluated () =
        let prog = Eval.compile (arm_module ~inits ~probe body) in
        (fst (run_program prog ~port:(untimed_of [||]) ~args)).Eval.result
      in
      outcome evaluated
      = outcome (fun () -> ref_probe ~inits ~args ~probe body))

(* A run allocates its per-run state and nothing per clock edge: the
   same program over 64 and 4,096 elements allocates the same minor
   words. *)
let test_eval_allocates_nothing_per_edge () =
  let prog =
    Eval.load (Vmht_hls.Verilog.emit (Fsm.synthesize vecadd_kernel))
  in
  let minor_words n =
    let data = Array.init (3 * n) (fun i -> i) in
    let eng = Engine.create () in
    let words = ref 0. and edges = ref 0 in
    Engine.spawn eng (fun () ->
        let before = Gc.minor_words () in
        let out =
          Eval.run ~engine:eng prog ~port:(untimed_of data)
            ~args:[ 0; n * 8; 2 * n * 8; n ]
        in
        words := Gc.minor_words () -. before;
        edges := out.Eval.edges);
    Engine.run eng;
    check_int
      (Printf.sprintf "c[%d]" (n - 1))
      ((2 * (n - 1)) + n)
      data.((3 * n) - 1);
    (!words, !edges)
  in
  let small, small_edges = minor_words 64 in
  let large, large_edges = minor_words 4096 in
  check_bool "the larger run has more edges" true
    (large_edges > 32 * small_edges);
  Alcotest.(check (float 0.)) "minor words at 64 and 4096 elements" small large

(* The edge budget is its own exception, not an emitter bug's
   [Rtl_error], and the command line and the server word it, as they do
   the software thread's step budget. *)
let test_budgets () =
  let spin =
    replace (pure_module "arg0")
      ~sub:"          done <= 1'b1;\n          state <= S_DONE;\n" ~by:""
  in
  let eng = Engine.create () in
  let stopped = ref None in
  Engine.spawn eng (fun () ->
      match
        Eval.run ~max_edges:100 ~engine:eng (compile spin)
          ~port:(untimed_of [||]) ~args:[ 1 ]
      with
      | _ -> ()
      | exception Eval.Edge_budget n -> stopped := Some (n, Engine.now eng));
  Engine.run eng;
  (match !stopped with
  | Some (n, cycle) ->
    check_int "the budget" 100 n;
    check_int "cycle at the budget (one per pure edge)" 99 cycle
  | None -> Alcotest.fail "a run that never finishes finished");
  let worded e needles =
    match Common.rejection e with
    | Some msg ->
      List.iter
        (fun needle ->
          check_bool (msg ^ " names " ^ needle) true (contains msg needle))
        needles;
      check_bool (msg ^ ": not a runaway FSM") false (contains msg "runaway")
    | None -> Alcotest.fail "a budget is not worded"
  in
  worded (Eval.Edge_budget 50_000_000) [ "edge budget"; "50000000" ];
  worded (Vmht_ir.Ir_interp.Runaway 100_000_002) [ "step budget"; "100000002" ]

(* ---------------- randomized backend differential ------------------ *)

(* The full-stack differential and the per-edge reference for the
   model's fused accelerator path: any generated kernel, TLB geometry,
   bank count, data seed and fault rate must give identical cycles,
   return value and final memory on the model executor (memory-free
   states fused into one wait) and on the emitted bytes run edge by
   edge.  It runs 100 cases, fault injection included.  Fault injection
   is the sharp edge: both backends draw from the same injector stream
   through the same port, so a fault lands in the same access either
   way.  Both backends run the one synthesized thread: the backend is a
   property of the SoC that launches it, not of the hardware. *)
let fuzz_config ~banks ~tlb_entries ~rate ~seed =
  let config =
    Vmht.Config.with_tlb_entries Vmht.Config.default tlb_entries
  in
  let config = Vmht.Config.with_banks config banks in
  let config = Vmht.Config.with_seed config seed in
  if rate > 0. then
    Vmht.Config.with_fault config (Vmht_fault.Plan.uniform ~rate)
  else config

let fuzz_vm_observe ~backend ~seed config hw =
  let soc = Vmht.Soc.create (Vmht.Config.with_backend config backend) in
  let aspace = Vmht.Soc.aspace soc in
  let base =
    Vmht_vm.Addr_space.alloc aspace ~bytes:(Gen_prog.mem_words * 8)
  in
  for i = 0 to Gen_prog.mem_words - 1 do
    Vmht_vm.Addr_space.store_word aspace (base + (i * 8)) ((i * 37) mod 101)
  done;
  let result =
    Vmht.Launch.run_to_completion soc (fun () ->
        Vmht.Launch.run_hw soc hw
          {
            Vmht.Launch.args = [ base; seed mod 11; seed mod 7 ];
            buffers = [];
          })
  in
  let mem =
    List.init Gen_prog.mem_words (fun i ->
        Vmht_vm.Addr_space.load_word aspace (base + (i * 8)))
  in
  (result.Vmht.Launch.total_cycles, result.Vmht.Launch.ret, mem)

let arb_rtl_case =
  QCheck.make
    ~print:(fun (seed, tlb_entries, rate, banks) ->
      Printf.sprintf "(kernel seed %d, tlb=%d, fault rate %.3f, banks=%d)"
        seed tlb_entries rate banks)
    QCheck.Gen.(
      quad (0 -- 20000)
        (oneofl [ 4; 8; 16 ])
        (oneofl [ 0.; 0.005; 0.02 ])
        (oneofl [ 1; 2; 4 ]))

let prop_rtl_differential =
  QCheck.Test.make ~count:100
    ~name:"emitted RTL = model executor (cycles, ret, memory; incl. faults)"
    arb_rtl_case
    (fun (seed, tlb_entries, rate, banks) ->
      let config = fuzz_config ~banks ~tlb_entries ~rate ~seed:1 in
      let hw =
        Flow.run_exn
          (Flow.Request.of_kernel ~config ~style:Vmht.Wrapper.Vm_iface
             (Gen_prog.gen_kernel seed))
      in
      let observe backend = fuzz_vm_observe ~backend ~seed:1 config hw in
      observe Vmht.Config.Model = observe Vmht.Config.Rtl)

(* ---------------- concurrent hardware threads ---------------------- *)

module W = Vmht_workloads.Workload
module Registry = Vmht_workloads.Registry

(* Fig. 6's set-up — VM threads on one SoC, each over its own data — on
   one backend, scheduled for [banks] memory banks of [ports] ports
   each.  [threads] gives each thread's kernel and size.  Returns the
   span from the first spawn to the last join, and whether every
   thread returned its expected value and left correct outputs. *)
let concurrent_run ~backend ~banks ~ports threads =
  let module S = Vmht_hls.Schedule in
  let base = Vmht.Config.with_banks Vmht.Config.default banks in
  let r = base.Vmht.Config.resources in
  let mem = { r.S.mem with S.ports_per_bank = ports } in
  let config =
    Vmht.Config.with_backend
      { base with Vmht.Config.resources = { r with S.mem } }
      backend
  in
  let soc = Vmht.Soc.create config in
  let aspace = Vmht.Soc.aspace soc in
  let threads =
    List.mapi
      (fun i ((w : W.t), size) ->
        let inst = w.W.setup aspace ~size ~seed:(i + 1) in
        let hw =
          Flow.run_exn
            (Flow.Request.of_kernel ~config ~style:Vmht.Wrapper.Vm_iface
               (W.kernel w))
        in
        (inst, hw))
      threads
  in
  let span, rets =
    Vmht.Launch.run_to_completion soc (fun () ->
        let t0 = Vmht.Soc.now soc in
        let running =
          List.map
            (fun ((inst : W.instance), hw) ->
              Vmht_rt.Hthreads.spawn ~engine:(Vmht.Soc.engine soc) (fun () ->
                  Vmht.Launch.run_hw soc hw
                    { Vmht.Launch.args = inst.W.args; buffers = [] }))
            threads
        in
        let rets =
          List.map
            (fun t -> (Vmht_rt.Hthreads.join t).Vmht.Launch.ret)
            running
        in
        (Vmht.Soc.now soc - t0, rets))
  in
  let load = Vmht_vm.Addr_space.load_word aspace in
  let correct =
    List.for_all2
      (fun ((inst : W.instance), _) ret ->
        ret = inst.W.expected_ret && inst.W.check load)
      threads rets
  in
  (span, correct)

(* Each registry kernel at a size that keeps eight threads quick. *)
let small_size (w : W.t) =
  match w.W.name with
  | "mmul" -> 8
  | "spmv" | "bfs" -> 64
  | "list_sum" -> 128
  | _ -> 256

(* The points, named as {!Concurrent_spans} pins them: fig6's mmul 16
   at its thread counts, every registry kernel alone at 1 to 8 threads
   on 1 or 4 banks of 1 or 2 ports, and mixed sets of 2, 4 and 8
   threads taken in registry order from offsets 0, 3 and 6 ("mixed x4
   from stencil3" runs stencil3, mmul, histogram and spmv). *)
let concurrent_points =
  let point name ~banks ~ports threads =
    ( Printf.sprintf "%s, banks %d, ports %d" name banks ports,
      (banks, ports, threads) )
  in
  let alone (w : W.t) size ~banks ~ports counts =
    List.map
      (fun n ->
        point
          (Printf.sprintf "%s %d x%d" w.W.name size n)
          ~banks ~ports
          (List.init n (fun _ -> (w, size))))
      counts
  in
  let fig6 =
    List.concat_map
      (fun banks ->
        alone (Registry.find "mmul") 16 ~banks ~ports:2 [ 1; 2; 4; 8 ])
      [ 1; 4 ]
  in
  let grid =
    List.concat_map
      (fun w ->
        List.concat_map
          (fun ports ->
            List.concat_map
              (fun banks ->
                alone w (small_size w) ~banks ~ports [ 1; 2; 3; 4; 6; 8 ])
              [ 1; 4 ])
          [ 1; 2 ])
      Registry.all
  in
  let registry = Array.of_list Registry.all in
  let mixed =
    List.concat_map
      (fun offset ->
        List.map
          (fun n ->
            point
              (Printf.sprintf "mixed x%d from %s" n registry.(offset).W.name)
              ~banks:1 ~ports:2
              (List.init n (fun i ->
                   let w = registry.((offset + i) mod Array.length registry) in
                   (w, small_size w))))
          [ 2; 4; 8 ])
      [ 0; 3; 6 ]
  in
  fig6 @ grid @ mixed

(* Threads that share the bus race each other for it, so a memory-free
   run of one thread's FSM states can end in the very cycle another
   thread requests the bus, and two threads' accesses can fall in one
   cycle.  The model must break those ties as the emitted RTL, which
   waits state by state, does: equal spans and correct results on both
   backends at every point.  A tie change both backends share leaves
   them equal, so the model's spans are also pinned. *)
let test_concurrent_threads_match_rtl () =
  List.iter
    (fun (at, (banks, ports, threads)) ->
      let model_span, model_ok =
        concurrent_run ~backend:Vmht.Config.Model ~banks ~ports threads
      in
      let rtl_span, rtl_ok =
        concurrent_run ~backend:Vmht.Config.Rtl ~banks ~ports threads
      in
      check_bool (at ^ ": model correct") true model_ok;
      check_bool (at ^ ": rtl correct") true rtl_ok;
      check_int (at ^ ": cycles") rtl_span model_span;
      match List.assoc_opt at Concurrent_spans.spans with
      | Some pinned -> check_int (at ^ ": pinned span") pinned model_span
      | None -> Alcotest.failf "%s: no pinned span (model: %d)" at model_span)
    concurrent_points;
  check_int "every pinned span is a point"
    (List.length concurrent_points)
    (List.length Concurrent_spans.spans)

let suite =
  [
    Alcotest.test_case "parse: every workload, both styles" `Quick
      test_parse_all_workloads;
    Alcotest.test_case "emitter: reset clause covers all outputs" `Quick
      test_emitted_reset_clause;
    Alcotest.test_case "emitter: negative immediates are sized hex" `Quick
      test_negative_immediates;
    Alcotest.test_case "adapter: request-hold bug counted" `Quick
      test_request_hold_bug;
    Alcotest.test_case "eval: missing reset is a hard X error" `Quick
      test_missing_reset_is_x;
    Alcotest.test_case "eval: advancing with a request out is an error"
      `Quick test_advance_with_request_out;
    Alcotest.test_case "emitter: >>> is signed" `Quick test_shr_signedness;
    Alcotest.test_case "emitter: terminator operands forwarded" `Quick
      test_terminator_forwarding;
    Alcotest.test_case "parser: strictness" `Quick test_parser_strictness;
    Alcotest.test_case "compile: errors in an arm that never runs" `Quick
      test_dead_arm_errors;
    Alcotest.test_case "compile: short channel prefix is an Rtl_error" `Quick
      test_short_channel_prefix;
    Alcotest.test_case "eval: one program, many runs and engines" `Quick
      test_shared_program;
    Alcotest.test_case "eval: a request raised inside an if body" `Quick
      test_request_inside_if;
    Alcotest.test_case "eval: a read after a write sees the old value" `Quick
      test_read_after_write;
    Alcotest.test_case "eval: grouped leaves keep statement order" `Quick
      test_grouped_leaves_keep_order;
    QCheck_alcotest.to_alcotest prop_arms_match_reference;
    Alcotest.test_case "eval: nothing allocated per edge" `Quick
      test_eval_allocates_nothing_per_edge;
    Alcotest.test_case "eval: the edge and step budgets" `Quick test_budgets;
    QCheck_alcotest.to_alcotest prop_rtl_differential;
    Alcotest.test_case "concurrent threads: model = rtl (fig6 set-up)" `Quick
      test_concurrent_threads_match_rtl;
  ]
