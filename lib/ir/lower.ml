module Ast = Vmht_lang.Ast

type ctx = {
  func : Ir.func;
  env : (string, Ir.reg) Hashtbl.t;
  mutable current : Ir.block;
  mutable acc : Ir.instr list; (* current block's instructions, reversed *)
  mutable blocks : Ir.block list;
      (* every block so far, latest first; [func.blocks] is set once at
         the end, since appending each block would be quadratic *)
}

let seal ctx =
  ctx.current.instrs <- List.rev ctx.acc;
  ctx.acc <- []

let new_block label = { Ir.label; instrs = []; term = Ir.Ret None }

let start_block ctx label =
  seal ctx;
  let b = new_block label in
  ctx.blocks <- b :: ctx.blocks;
  ctx.current <- b

let emit ctx instr = ctx.acc <- instr :: ctx.acc

let terminate ctx term = ctx.current.term <- term

let word_shift = 3 (* log2 of Ast.word_bytes *)

let rec lower_expr ctx expr : Ir.operand =
  match expr with
  | Ast.Int n -> Ir.Imm n
  | Ast.Var x -> Ir.Reg (Hashtbl.find ctx.env x)
  | Ast.Cast (_, e) -> lower_expr ctx e
  | Ast.Un (op, e) ->
    let v = lower_expr ctx e in
    let d = Ir.fresh_reg ctx.func in
    emit ctx (Ir.Un (op, d, v));
    Ir.Reg d
  | Ast.Bin ((Ast.Land | Ast.Lor) as op, a, b) ->
    (* Strict logical operators: normalize both sides to 0/1 and
       combine bitwise. *)
    let va = lower_expr ctx a in
    let vb = lower_expr ctx b in
    let na = Ir.fresh_reg ctx.func in
    let nb = Ir.fresh_reg ctx.func in
    emit ctx (Ir.Bin (Ast.Ne, na, va, Ir.Imm 0));
    emit ctx (Ir.Bin (Ast.Ne, nb, vb, Ir.Imm 0));
    let d = Ir.fresh_reg ctx.func in
    let bitop = match op with Ast.Land -> Ast.And | _ -> Ast.Or in
    emit ctx (Ir.Bin (bitop, d, Ir.Reg na, Ir.Reg nb));
    Ir.Reg d
  | Ast.Bin (op, a, b) ->
    let va = lower_expr ctx a in
    let vb = lower_expr ctx b in
    let d = Ir.fresh_reg ctx.func in
    emit ctx (Ir.Bin (op, d, va, vb));
    Ir.Reg d
  | Ast.Load (base, index) ->
    let addr = lower_address ctx base index in
    let d = Ir.fresh_reg ctx.func in
    emit ctx (Ir.Load (d, addr));
    Ir.Reg d
  | Ast.Call (name, _) ->
    invalid_arg ("Lower: call to '" ^ name ^ "' was not inlined")

and lower_address ctx base index : Ir.operand =
  let vb = lower_expr ctx base in
  match lower_expr ctx index with
  | Ir.Imm 0 -> vb
  | Ir.Imm n -> (
    match vb with
    | Ir.Imm b -> Ir.Imm (b + (n * Ast.word_bytes))
    | Ir.Reg _ ->
      let d = Ir.fresh_reg ctx.func in
      emit ctx (Ir.Bin (Ast.Add, d, vb, Ir.Imm (n * Ast.word_bytes)));
      Ir.Reg d)
  | vi ->
    let off = Ir.fresh_reg ctx.func in
    emit ctx (Ir.Bin (Ast.Shl, off, vi, Ir.Imm word_shift));
    let d = Ir.fresh_reg ctx.func in
    emit ctx (Ir.Bin (Ast.Add, d, vb, Ir.Reg off));
    Ir.Reg d

let rec lower_stmt ctx stmt =
  match stmt with
  | Ast.Decl (x, _, init) ->
    let v =
      match init with None -> Ir.Imm 0 | Some e -> lower_expr ctx e
    in
    let r = Ir.fresh_reg ctx.func in
    Hashtbl.replace ctx.env x r;
    emit ctx (Ir.Mov (r, v))
  | Ast.Assign (x, e) ->
    let v = lower_expr ctx e in
    emit ctx (Ir.Mov (Hashtbl.find ctx.env x, v))
  | Ast.Store (base, index, value) ->
    let addr = lower_address ctx base index in
    let v = lower_expr ctx value in
    emit ctx (Ir.Store (addr, v))
  | Ast.If (cond, then_b, else_b) ->
    let c = lower_expr ctx cond in
    let l_then = Ir.fresh_label ctx.func in
    let l_join = Ir.fresh_label ctx.func in
    let l_else =
      if else_b = [] then l_join else Ir.fresh_label ctx.func
    in
    terminate ctx (Ir.Br (c, l_then, l_else));
    start_block ctx l_then;
    lower_body ctx then_b;
    terminate ctx (Ir.Jmp l_join);
    if else_b <> [] then begin
      start_block ctx l_else;
      lower_body ctx else_b;
      terminate ctx (Ir.Jmp l_join)
    end;
    start_block ctx l_join
  | Ast.While (cond, body) ->
    let l_header = Ir.fresh_label ctx.func in
    let l_body = Ir.fresh_label ctx.func in
    let l_exit = Ir.fresh_label ctx.func in
    terminate ctx (Ir.Jmp l_header);
    start_block ctx l_header;
    let c = lower_expr ctx cond in
    terminate ctx (Ir.Br (c, l_body, l_exit));
    start_block ctx l_body;
    lower_body ctx body;
    terminate ctx (Ir.Jmp l_header);
    start_block ctx l_exit
  | Ast.Return value ->
    let v = Option.map (fun e -> lower_expr ctx e) value in
    terminate ctx (Ir.Ret v);
    (* Anything after an explicit return is unreachable; give it a
       fresh block that CFG simplification deletes. *)
    start_block ctx (Ir.fresh_label ctx.func)

and lower_body ctx stmts = List.iter (lower_stmt ctx) stmts

let lower_kernel (k : Ast.kernel) =
  let func =
    Ir.create_func ~name:k.kname
      ~arg_count:(List.length k.params)
      ~returns_value:(k.ret <> None)
  in
  let env = Hashtbl.create 16 in
  List.iteri
    (fun i { Ast.pname; _ } -> Hashtbl.replace env pname i)
    k.params;
  let entry_label = Ir.fresh_label func in
  let entry = new_block entry_label in
  let ctx = { func; env; current = entry; acc = []; blocks = [ entry ] } in
  lower_body ctx k.body;
  (* A fall-through end of a void kernel keeps the default [Ret None]. *)
  seal ctx;
  func.blocks <- List.rev ctx.blocks;
  Ir.validate func;
  func
