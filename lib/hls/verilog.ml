module Ir = Vmht_ir.Ir
module Ast = Vmht_lang.Ast

(* Every writer below appends to one buffer: literal fragments go in
   with [add_string]/[add_char] and numbers through [add_int], so a
   module costs no format string and no intermediate string per line,
   operand or number. *)

let str = Buffer.add_string

let chr = Buffer.add_char

(* Decimal digits of a non-negative int (everything the emitter
   numbers: states, widths, registers, labels, channels, immediates). *)
let rec add_int buf n =
  if n >= 10 then add_int buf (n / 10);
  chr buf (Char.unsafe_chr (48 + (n mod 10)))

let operand buf = function
  | Ir.Reg r ->
    chr buf 'r';
    add_int buf r
  | Ir.Imm n ->
    (* Negative immediates are emitted as sized two's-complement hex
       literals: [-64'sd5] binds the minus *outside* the sized literal,
       which is self-determined inside concatenations and silently
       changes meaning there.  [Int64.of_int] sign-extends OCaml's
       63-bit int, so the printed pattern reads back to the same
       value. *)
    if n >= 0 then begin
      str buf "64'd";
      add_int buf n
    end
    else str buf (Printf.sprintf "64'h%Lx" (Int64.of_int n))

let infix buf a sym b =
  operand buf a;
  str buf sym;
  operand buf b

let signed buf x =
  str buf "$signed(";
  operand buf x;
  chr buf ')'

(* [{63'b0, $signed(a) sym $signed(b)}]: a signed comparison widened
   back to a 64-bit register value. *)
let signed_cmp buf a sym b =
  str buf "{63'b0, ";
  signed buf a;
  str buf sym;
  signed buf b;
  chr buf '}'

let binop_expr buf op a b =
  (* Div/Rem/Shr act on *signed* values in the reference semantics
     ({!Vmht_lang.Ast_interp.eval_binop}: OCaml [/], [mod], [asr]); the
     registers are unsigned 64-bit regs, so without the [$signed]
     casts Verilog computes the unsigned variants ([>>>] in particular
     is only an arithmetic shift when its left operand is signed). *)
  match op with
  | Ast.Add -> infix buf a " + " b
  | Ast.Sub -> infix buf a " - " b
  | Ast.Mul -> infix buf a " * " b
  | Ast.Div ->
    signed buf a;
    str buf " / ";
    signed buf b
  | Ast.Rem ->
    signed buf a;
    str buf " % ";
    signed buf b
  | Ast.And -> infix buf a " & " b
  | Ast.Or -> infix buf a " | " b
  | Ast.Xor -> infix buf a " ^ " b
  | Ast.Shl -> infix buf a " << " b
  | Ast.Shr ->
    signed buf a;
    str buf " >>> ";
    operand buf b
  | Ast.Lt -> signed_cmp buf a " < " b
  | Ast.Le -> signed_cmp buf a " <= " b
  | Ast.Gt -> signed_cmp buf a " > " b
  | Ast.Ge -> signed_cmp buf a " >= " b
  | Ast.Eq ->
    str buf "{63'b0, ";
    infix buf a " == " b;
    chr buf '}'
  | Ast.Ne ->
    str buf "{63'b0, ";
    infix buf a " != " b;
    chr buf '}'
  | Ast.Land ->
    str buf "{63'b0, (";
    infix buf a " != 0) && (" b;
    str buf " != 0)}"
  | Ast.Lor ->
    str buf "{63'b0, (";
    infix buf a " != 0) || (" b;
    str buf " != 0)}"

let unop_expr buf op a =
  match op with
  | Ast.Neg ->
    chr buf '-';
    operand buf a
  | Ast.Not ->
    str buf "{63'b0, ";
    operand buf a;
    str buf " == 0}"
  | Ast.Bnot ->
    chr buf '~';
    operand buf a

(* Memory request channels: one per bound memory unit, so a schedule
   that co-issues N accesses drives N independent channels (the single
   shared channel used to be silently overwritten by the second access
   of a cycle).  Channel 0 keeps the historical [mem_*] names so
   single-issue modules are unchanged.  [ch_signal buf c suffix] writes
   channel [c]'s prefix, then [suffix]. *)
let ch_signal buf c suffix =
  str buf "mem";
  if c <> 0 then add_int buf c;
  str buf suffix

let mem_channel_count (hw : Fsm.t) = max 1 hw.Fsm.binding.Bind.mem_channels

(* A sized state literal, [<bits>'d<id>]. *)
let state_lit buf bits id =
  add_int buf bits;
  str buf "'d";
  add_int buf id

let emit_body buf (hw : Fsm.t) =
  let f = hw.Fsm.func in
  let blocks = hw.Fsm.schedule.Schedule.blocks in
  (* Global state numbering: the exec states of a block are numbered
     consecutively in block order, so block L's cycle c is state
     [base.(L) + c]. *)
  let base = Array.make (Ir.label_bound f) 0 in
  let n_states =
    List.fold_left
      (fun next (b : Schedule.block_schedule) ->
        base.(b.Schedule.label) <- next;
        next + b.Schedule.makespan)
      0 blocks
  in
  (* The register also holds S_IDLE = n_states and S_DONE = n_states+1,
     so the width must cover n_states + 2 values — sizing it for the
     exec states alone truncated S_IDLE to 0 whenever n_states was a
     power of two, aliasing idle with the first exec state. *)
  let state_bits = max 1 (Vmht_util.Bits.ceil_log2 (n_states + 2)) in
  let fu_of = hw.Fsm.binding.Bind.fu_of_instr in
  let n_channels = mem_channel_count hw in
  str buf "  // ";
  add_int buf n_states;
  str buf " FSM states, ";
  add_int buf f.Ir.next_reg;
  str buf " virtual registers\n  localparam S_IDLE = ";
  state_lit buf state_bits n_states;
  str buf ";\n  localparam S_DONE = ";
  state_lit buf state_bits (n_states + 1);
  str buf ";\n  reg [";
  add_int buf (state_bits - 1);
  str buf ":0] state;\n";
  for r = 0 to f.Ir.next_reg - 1 do
    str buf "  reg [63:0] r";
    add_int buf r;
    str buf ";\n"
  done;
  str buf "\n  always @(posedge clk) begin\n";
  str buf "    if (rst) begin\n      state <= S_IDLE;\n      done <= 1'b0;\n";
  (* Every output reg gets a reset value: without these, [result] and
     the channel outputs power up X, and an X-valued [*_req] is
     indistinguishable from a request to any honest memory
     controller. *)
  str buf "      result <= 64'd0;\n";
  for c = 0 to n_channels - 1 do
    str buf "      ";
    ch_signal buf c "_req <= 1'b0;\n      ";
    ch_signal buf c "_we <= 1'b0;\n      ";
    ch_signal buf c "_addr <= 64'd0;\n      ";
    ch_signal buf c "_wdata <= 64'd0;\n"
  done;
  str buf "    end else begin\n      case (state)\n        S_IDLE: begin\n";
  for c = 0 to n_channels - 1 do
    str buf "          ";
    ch_signal buf c "_req <= 1'b0;\n"
  done;
  str buf "          if (start) begin\n";
  List.iteri
    (fun i r ->
      str buf "            r";
      add_int buf r;
      str buf " <= arg";
      add_int buf i;
      str buf ";\n")
    f.Ir.arg_regs;
  (match f.Ir.blocks with
   | [] -> ()
   | entry :: _ ->
     str buf "            state <= ";
     state_lit buf state_bits base.(entry.Ir.label);
     str buf ";\n");
  str buf "          end\n        end\n";
  (* A state's register commits, written apart from its issue lines
     because they land after them, inside the ack gate. *)
  let commits = Buffer.create 256 in
  (* The schedule holds one block per CFG block, in CFG order. *)
  List.iter2
    (fun (b : Schedule.block_schedule) (ir_block : Ir.block) ->
      let label = b.Schedule.label in
      let instrs = b.Schedule.instrs in
      let starting = Schedule.instrs_by_cycle b in
      let channel i =
        Option.value ~default:0 (Hashtbl.find_opt fu_of (label, i))
      in
      for c = 0 to b.Schedule.makespan - 1 do
        str buf "        ";
        state_lit buf state_bits (base.(label) + c);
        str buf ": begin // L";
        add_int buf label;
        str buf " cycle ";
        add_int buf c;
        chr buf '\n';
        (* The state holds until every channel active this cycle acks:
           the acked edge applies the buffered commits, deasserts the
           requests (so a channel never keeps requesting into the next
           state) and advances.  Without channels every edge is an
           advancing edge and nothing needs the gate, so whether the
           state drives a channel fixes the indent of its commits. *)
        let gated =
          List.exists
            (fun i ->
              match instrs.(i) with
              | Ir.Load _ | Ir.Store _ -> true
              | Ir.Bin _ | Ir.Un _ | Ir.Mov _ -> false)
            starting.(c)
        in
        let indent = if gated then "            " else "          " in
        Buffer.clear commits;
        let commit d =
          str commits indent;
          chr commits 'r';
          add_int commits d;
          str commits " <= "
        in
        (* Issue assignments (req/we/addr/wdata) are idempotent under a
           stall and stay ungated; every register commit — pure ops,
           load-data captures — must only fire on the advancing edge,
           or a state held for L cycles would re-commit [r <= r + 1]
           L times where the model commits it once. *)
        let active = ref [] in
        List.iter
          (fun i ->
            match instrs.(i) with
            | Ir.Bin (op, d, x, y) ->
              commit d;
              binop_expr commits op x y;
              str commits ";\n"
            | Ir.Un (op, d, x) ->
              commit d;
              unop_expr commits op x;
              str commits ";\n"
            | Ir.Mov (d, x) ->
              commit d;
              operand commits x;
              str commits ";\n"
            | Ir.Load (d, addr) ->
              let u = channel i in
              active := u :: !active;
              str buf "          ";
              ch_signal buf u "_req <= 1'b1; ";
              ch_signal buf u "_we <= 1'b0;\n          ";
              ch_signal buf u "_addr <= ";
              operand buf addr;
              str buf ";\n";
              commit d;
              ch_signal commits u "_rdata;\n"
            | Ir.Store (addr, v) ->
              let u = channel i in
              active := u :: !active;
              str buf "          ";
              ch_signal buf u "_req <= 1'b1; ";
              ch_signal buf u "_we <= 1'b1;\n          ";
              ch_signal buf u "_addr <= ";
              operand buf addr;
              str buf "; ";
              ch_signal buf u "_wdata <= ";
              operand buf v;
              str buf ";\n")
          starting.(c);
        let chans = List.sort_uniq Int.compare !active in
        if gated then begin
          str buf "          if (";
          List.iteri
            (fun k u ->
              if k > 0 then str buf " && ";
              ch_signal buf u "_ack")
            chans;
          str buf ") begin\n"
        end;
        Buffer.add_buffer buf commits;
        List.iter
          (fun u ->
            str buf "            ";
            ch_signal buf u "_req <= 1'b0;\n")
          chans;
        let goto label cycle =
          str buf indent;
          str buf "state <= ";
          state_lit buf state_bits (base.(label) + cycle);
          str buf ";\n"
        in
        (* Nonblocking commits of this state land *after* the edge that
           leaves it, but the terminator is emitted in this same state
           and must observe them (the model evaluates terminators after
           the final cycle's commits).  Any value committed at the
           final edge comes from a latency-1 op started in this very
           cycle — its operands read the same register snapshot this
           edge sees — so forwarding the defining expression (or the
           channel's rdata for a load), that of the last op of the
           cycle to define the register, is exact. *)
        let t_operand op =
          let def =
            match op with
            | Ir.Imm _ -> -1
            | Ir.Reg r ->
              List.fold_left
                (fun def i ->
                  match instrs.(i) with
                  | Ir.Bin (_, d, _, _)
                  | Ir.Un (_, d, _)
                  | Ir.Mov (d, _)
                  | Ir.Load (d, _)
                    when d = r ->
                    i
                  | Ir.Bin _ | Ir.Un _ | Ir.Mov _ | Ir.Load _ | Ir.Store _ ->
                    def)
                (-1) starting.(c)
          in
          if def < 0 then operand buf op
          else begin
            chr buf '(';
            (match instrs.(def) with
             | Ir.Bin (op, _, x, y) -> binop_expr buf op x y
             | Ir.Un (op, _, x) -> unop_expr buf op x
             | Ir.Mov (_, x) -> operand buf x
             | Ir.Load _ -> ch_signal buf (channel def) "_rdata"
             | Ir.Store _ -> assert false);
            chr buf ')'
          end
        in
        if c < b.Schedule.makespan - 1 then goto label (c + 1)
        else begin
          match ir_block.Ir.term with
          | Ir.Jmp l -> goto l 0
          | Ir.Br (cond, l1, l2) ->
            str buf indent;
            str buf "state <= (";
            t_operand cond;
            str buf " != 0) ? ";
            state_lit buf state_bits base.(l1);
            str buf " : ";
            state_lit buf state_bits base.(l2);
            str buf ";\n"
          | Ir.Ret v ->
            (* result and done ride inside the acked advance: asserting
               done while the final access is still in flight would
               signal completion early. *)
            (match v with
             | Some op ->
               str buf indent;
               str buf "result <= ";
               t_operand op;
               str buf ";\n"
             | None -> ());
            str buf indent;
            str buf "done <= 1'b1;\n";
            str buf indent;
            str buf "state <= S_DONE;\n"
        end;
        if gated then str buf "          end\n";
        str buf "        end\n"
      done)
    blocks f.Ir.blocks;
  str buf "        S_DONE: begin\n";
  for c = 0 to n_channels - 1 do
    str buf "          ";
    ch_signal buf c "_req <= 1'b0;\n"
  done;
  str buf "          if (!start) begin\n";
  str buf "            state <= S_IDLE;\n            done <= 1'b0;\n";
  str buf "          end\n        end\n        default: state <= S_IDLE;\n";
  str buf "      endcase\n    end\n  end\n"

(* The port list, [  p1,\n  p2,\n ...  pn\n);\n]: the fixed control and
   result ports, six per memory channel, the arguments, then the
   wrapper's. *)
let module_ports buf (hw : Fsm.t) extra =
  str buf
    "  input wire clk,\n  input wire rst,\n  input wire start,\n\
    \  output reg done,\n  output reg [63:0] result";
  for c = 0 to mem_channel_count hw - 1 do
    str buf ",\n  output reg ";
    ch_signal buf c "_req,\n  output reg ";
    ch_signal buf c "_we,\n  output reg [63:0] ";
    ch_signal buf c "_addr,\n  output reg [63:0] ";
    ch_signal buf c "_wdata,\n  input wire [63:0] ";
    ch_signal buf c "_rdata,\n  input wire ";
    ch_signal buf c "_ack"
  done;
  List.iteri
    (fun i _ ->
      str buf ",\n  input wire [63:0] arg";
      add_int buf i)
    hw.Fsm.func.Ir.arg_regs;
  List.iter
    (fun port ->
      str buf ",\n  ";
      str buf port)
    extra;
  str buf "\n);\n"

let emit_with_wrapper (hw : Fsm.t) ~wrapper_ports =
  let buf = Buffer.create 8192 in
  str buf "// Generated by vmht HLS — hardware thread '";
  str buf hw.Fsm.name;
  str buf "'\n// ";
  str buf (Fsm.stats_to_string hw.Fsm.stats);
  chr buf '\n';
  (let m = hw.Fsm.schedule.Schedule.resources.Schedule.mem in
   if m.Schedule.banks > 1 then begin
     str buf "// memory: ";
     add_int buf m.Schedule.banks;
     str buf " word-interleaved bank(s) x ";
     add_int buf m.Schedule.ports_per_bank;
     str buf " port(s), ";
     add_int buf (mem_channel_count hw);
     str buf " channel(s)\n"
   end);
  List.iter
    (fun plan ->
      str buf "// pipelined ";
      str buf (Pipeliner.to_string plan);
      chr buf '\n')
    hw.Fsm.plans;
  str buf "module ht_";
  str buf hw.Fsm.name;
  str buf " (\n";
  module_ports buf hw wrapper_ports;
  emit_body buf hw;
  str buf "endmodule\n";
  Buffer.contents buf

let emit hw = emit_with_wrapper hw ~wrapper_ports:[]
