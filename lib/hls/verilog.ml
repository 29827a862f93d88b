module Ir = Vmht_ir.Ir
module Ast = Vmht_lang.Ast

let operand = function
  | Ir.Reg r -> Printf.sprintf "r%d" r
  | Ir.Imm n ->
    (* Negative immediates are emitted as sized two's-complement hex
       literals: [-64'sd5] binds the minus *outside* the sized literal,
       which is self-determined inside concatenations and silently
       changes meaning there.  [Int64.of_int] sign-extends OCaml's
       63-bit int, so the printed pattern reads back to the same
       value. *)
    if n >= 0 then Printf.sprintf "64'd%d" n
    else Printf.sprintf "64'h%Lx" (Int64.of_int n)

let binop_expr op a b =
  let infix sym = Printf.sprintf "%s %s %s" a sym b in
  (* Div/Rem/Shr act on *signed* values in the reference semantics
     ({!Vmht_lang.Ast_interp.eval_binop}: OCaml [/], [mod], [asr]); the
     registers are unsigned 64-bit regs, so without the [$signed]
     casts Verilog computes the unsigned variants ([>>>] in particular
     is only an arithmetic shift when its left operand is signed). *)
  match op with
  | Ast.Add -> infix "+"
  | Ast.Sub -> infix "-"
  | Ast.Mul -> infix "*"
  | Ast.Div -> Printf.sprintf "$signed(%s) / $signed(%s)" a b
  | Ast.Rem -> Printf.sprintf "$signed(%s) %% $signed(%s)" a b
  | Ast.And -> infix "&"
  | Ast.Or -> infix "|"
  | Ast.Xor -> infix "^"
  | Ast.Shl -> infix "<<"
  | Ast.Shr -> Printf.sprintf "$signed(%s) >>> %s" a b
  | Ast.Lt -> Printf.sprintf "{63'b0, $signed(%s) < $signed(%s)}" a b
  | Ast.Le -> Printf.sprintf "{63'b0, $signed(%s) <= $signed(%s)}" a b
  | Ast.Gt -> Printf.sprintf "{63'b0, $signed(%s) > $signed(%s)}" a b
  | Ast.Ge -> Printf.sprintf "{63'b0, $signed(%s) >= $signed(%s)}" a b
  | Ast.Eq -> Printf.sprintf "{63'b0, %s == %s}" a b
  | Ast.Ne -> Printf.sprintf "{63'b0, %s != %s}" a b
  | Ast.Land -> Printf.sprintf "{63'b0, (%s != 0) && (%s != 0)}" a b
  | Ast.Lor -> Printf.sprintf "{63'b0, (%s != 0) || (%s != 0)}" a b

let unop_expr op a =
  match op with
  | Ast.Neg -> Printf.sprintf "-%s" a
  | Ast.Not -> Printf.sprintf "{63'b0, %s == 0}" a
  | Ast.Bnot -> Printf.sprintf "~%s" a

(* Memory request channels: one per bound memory unit, so a schedule
   that co-issues N accesses drives N independent channels (the single
   shared channel used to be silently overwritten by the second access
   of a cycle).  Channel 0 keeps the historical [mem_*] names so
   single-issue modules are unchanged. *)
let ch_prefix c = if c = 0 then "mem" else Printf.sprintf "mem%d" c

let mem_channel_count (hw : Fsm.t) = max 1 hw.Fsm.binding.Bind.mem_channels

(* Global state numbering: block label L, cycle c -> state id. *)
let state_table (hw : Fsm.t) =
  let table = Hashtbl.create 32 in
  let next = ref 0 in
  List.iter
    (fun (b : Schedule.block_schedule) ->
      for c = 0 to b.Schedule.makespan - 1 do
        Hashtbl.replace table (b.Schedule.label, c) !next;
        incr next
      done)
    hw.Fsm.schedule.Schedule.blocks;
  (table, !next)

let emit_body buf (hw : Fsm.t) =
  let f = hw.Fsm.func in
  let states, n_states = state_table hw in
  let state_of label cycle = Hashtbl.find states (label, cycle) in
  let bp fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* The register also holds S_IDLE = n_states and S_DONE = n_states+1,
     so the width must cover n_states + 2 values — sizing it for the
     exec states alone truncated S_IDLE to 0 whenever n_states was a
     power of two, aliasing idle with the first exec state. *)
  let state_bits = max 1 (Vmht_util.Bits.ceil_log2 (n_states + 2)) in
  let fu_of = hw.Fsm.binding.Bind.fu_of_instr in
  let n_channels = mem_channel_count hw in
  bp "  // %d FSM states, %d virtual registers\n" n_states f.Ir.next_reg;
  bp "  localparam S_IDLE = %d'd%d;\n" state_bits n_states;
  bp "  localparam S_DONE = %d'd%d;\n" state_bits (n_states + 1);
  bp "  reg [%d:0] state;\n" (state_bits - 1);
  for r = 0 to f.Ir.next_reg - 1 do
    bp "  reg [63:0] r%d;\n" r
  done;
  bp "\n  always @(posedge clk) begin\n";
  bp "    if (rst) begin\n      state <= S_IDLE;\n      done <= 1'b0;\n";
  (* Every output reg gets a reset value: without these, [result] and
     the channel outputs power up X, and an X-valued [*_req] is
     indistinguishable from a request to any honest memory
     controller. *)
  bp "      result <= 64'd0;\n";
  for c = 0 to n_channels - 1 do
    let p = ch_prefix c in
    bp "      %s_req <= 1'b0;\n      %s_we <= 1'b0;\n" p p;
    bp "      %s_addr <= 64'd0;\n      %s_wdata <= 64'd0;\n" p p
  done;
  bp "    end else begin\n";
  bp "      case (state)\n";
  bp "        S_IDLE: begin\n";
  for c = 0 to n_channels - 1 do
    bp "          %s_req <= 1'b0;\n" (ch_prefix c)
  done;
  bp "          if (start) begin\n";
  List.iteri (fun i r -> bp "            r%d <= arg%d;\n" r i) f.Ir.arg_regs;
  (match f.Ir.blocks with
   | [] -> ()
   | entry :: _ -> bp "            state <= %d'd%d;\n" state_bits
                     (state_of entry.Ir.label 0));
  bp "          end\n";
  bp "        end\n";
  List.iter
    (fun (b : Schedule.block_schedule) ->
      let ir_block = Ir.find_block f b.Schedule.label in
      let starting = Schedule.instrs_by_cycle b in
      for c = 0 to b.Schedule.makespan - 1 do
        let sid = state_of b.Schedule.label c in
        bp "        %d'd%d: begin // L%d cycle %d\n" state_bits sid
          b.Schedule.label c;
        let active_channels = ref [] in
        let channel i =
          let u =
            Option.value ~default:0
              (Hashtbl.find_opt fu_of (b.Schedule.label, i))
          in
          active_channels := u :: !active_channels;
          ch_prefix u
        in
        (* Nonblocking commits of this state land *after* the edge that
           leaves it, but the terminator is emitted in this same state
           and must observe them (the model evaluates terminators after
           the final cycle's commits).  Any value committed at the
           final edge comes from a latency-1 op started in this very
           cycle — its operands read the same register snapshot this
           edge sees — so forwarding the defining expression (or the
           channel's rdata for a load) is exact. *)
        let fwd = Hashtbl.create 4 in
        let final = c = b.Schedule.makespan - 1 in
        (* Issue assignments (req/we/addr/wdata) are idempotent under a
           stall and stay ungated; every register commit — pure ops,
           load-data captures — must only fire on the advancing edge,
           or a state held for L cycles would re-commit [r <= r + 1]
           L times where the model commits it once. *)
        let committed = ref [] in
        let commit line = committed := line :: !committed in
        List.iter
          (fun i ->
            match b.Schedule.instrs.(i) with
            | Ir.Bin (op, d, x, y) ->
              let e = binop_expr op (operand x) (operand y) in
              if final then Hashtbl.replace fwd d e;
              commit (Printf.sprintf "r%d <= %s;" d e)
            | Ir.Un (op, d, x) ->
              let e = unop_expr op (operand x) in
              if final then Hashtbl.replace fwd d e;
              commit (Printf.sprintf "r%d <= %s;" d e)
            | Ir.Mov (d, x) ->
              let e = operand x in
              if final then Hashtbl.replace fwd d e;
              commit (Printf.sprintf "r%d <= %s;" d e)
            | Ir.Load (d, addr) ->
              let ch = channel i in
              if final then Hashtbl.replace fwd d (ch ^ "_rdata");
              bp "          %s_req <= 1'b1; %s_we <= 1'b0;\n" ch ch;
              bp "          %s_addr <= %s;\n" ch (operand addr);
              commit (Printf.sprintf "r%d <= %s_rdata;" d ch)
            | Ir.Store (addr, v) ->
              let ch = channel i in
              bp "          %s_req <= 1'b1; %s_we <= 1'b1;\n" ch ch;
              bp "          %s_addr <= %s; %s_wdata <= %s;\n" ch
                (operand addr) ch (operand v))
          starting.(c);
        let t_operand op =
          match op with
          | Ir.Reg r -> (
            match Hashtbl.find_opt fwd r with
            | Some e -> "(" ^ e ^ ")"
            | None -> operand op)
          | Ir.Imm _ -> operand op
        in
        (* The state holds until every channel active this cycle acks:
           the acked edge applies the buffered commits, deasserts the
           requests (so a channel never keeps requesting into the next
           state) and advances.  Without channels every edge is an
           advancing edge and nothing needs the gate. *)
        let advance stmts =
          let chans = List.sort_uniq compare !active_channels in
          if chans <> [] then begin
            let acks =
              List.map (fun u -> ch_prefix u ^ "_ack") chans
              |> String.concat " && "
            in
            bp "          if (%s) begin\n" acks;
            List.iter (bp "            %s\n") (List.rev !committed);
            List.iter
              (fun u -> bp "            %s_req <= 1'b0;\n" (ch_prefix u))
              chans;
            List.iter (bp "            %s\n") stmts;
            bp "          end\n"
          end
          else begin
            List.iter (bp "          %s\n") (List.rev !committed);
            List.iter (bp "          %s\n") stmts
          end
        in
        let goto label cycle =
          Printf.sprintf "state <= %d'd%d;" state_bits (state_of label cycle)
        in
        if c < b.Schedule.makespan - 1 then
          advance [ goto b.Schedule.label (c + 1) ]
        else begin
          match ir_block.Ir.term with
          | Ir.Jmp l -> advance [ goto l 0 ]
          | Ir.Br (cond, l1, l2) ->
            advance
              [
                Printf.sprintf "state <= (%s != 0) ? %d'd%d : %d'd%d;"
                  (t_operand cond) state_bits (state_of l1 0) state_bits
                  (state_of l2 0);
              ]
          | Ir.Ret v ->
            (* result and done ride inside the acked advance: asserting
               done while the final access is still in flight would
               signal completion early. *)
            advance
              ((match v with
                | Some op ->
                  [ Printf.sprintf "result <= %s;" (t_operand op) ]
                | None -> [])
              @ [ "done <= 1'b1;"; "state <= S_DONE;" ])
        end;
        bp "        end\n"
      done)
    hw.Fsm.schedule.Schedule.blocks;
  bp "        S_DONE: begin\n";
  for c = 0 to n_channels - 1 do
    bp "          %s_req <= 1'b0;\n" (ch_prefix c)
  done;
  bp "          if (!start) begin\n";
  bp "            state <= S_IDLE;\n            done <= 1'b0;\n";
  bp "          end\n";
  bp "        end\n";
  bp "        default: state <= S_IDLE;\n";
  bp "      endcase\n    end\n  end\n"

let module_ports (hw : Fsm.t) extra =
  let f = hw.Fsm.func in
  let args =
    List.mapi (fun i _ -> Printf.sprintf "input wire [63:0] arg%d" i)
      f.Ir.arg_regs
  in
  let mem_ports =
    List.concat_map
      (fun c ->
        let p = ch_prefix c in
        [
          Printf.sprintf "output reg %s_req" p;
          Printf.sprintf "output reg %s_we" p;
          Printf.sprintf "output reg [63:0] %s_addr" p;
          Printf.sprintf "output reg [63:0] %s_wdata" p;
          Printf.sprintf "input wire [63:0] %s_rdata" p;
          Printf.sprintf "input wire %s_ack" p;
        ])
      (List.init (mem_channel_count hw) Fun.id)
  in
  [
    "input wire clk";
    "input wire rst";
    "input wire start";
    "output reg done";
    "output reg [63:0] result";
  ]
  @ mem_ports @ args @ extra

let emit_with_wrapper (hw : Fsm.t) ~wrapper_ports =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "// Generated by vmht HLS — hardware thread '%s'\n"
       hw.Fsm.name);
  Buffer.add_string buf
    (Printf.sprintf "// %s\n" (Fsm.stats_to_string hw.Fsm.stats));
  (let m = hw.Fsm.schedule.Schedule.resources.Schedule.mem in
   if m.Schedule.banks > 1 then
     Buffer.add_string buf
       (Printf.sprintf
          "// memory: %d word-interleaved bank(s) x %d port(s), %d \
           channel(s)\n"
          m.Schedule.banks m.Schedule.ports_per_bank (mem_channel_count hw)));
  List.iter
    (fun plan ->
      Buffer.add_string buf
        (Printf.sprintf "// pipelined %s\n" (Pipeliner.to_string plan)))
    hw.Fsm.plans;
  Buffer.add_string buf (Printf.sprintf "module ht_%s (\n" hw.Fsm.name);
  Buffer.add_string buf
    ("  " ^ String.concat ",\n  " (module_ports hw wrapper_ports) ^ "\n);\n");
  emit_body buf hw;
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf

let emit hw = emit_with_wrapper hw ~wrapper_ports:[]
