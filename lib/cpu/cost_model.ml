module Ir = Vmht_ir.Ir
module Ast = Vmht_lang.Ast

let alu = 1

let cmp = 1

let mul = 3

let div = 20

let shift = 1

let mov = 1

let branch = 2

let mem_issue = 1

let fault_penalty = 3000

let binop_cycles = function
  | Ast.Add | Ast.Sub | Ast.And | Ast.Or | Ast.Xor | Ast.Land | Ast.Lor -> alu
  | Ast.Mul -> mul
  | Ast.Div | Ast.Rem -> div
  | Ast.Shl | Ast.Shr -> shift
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne -> cmp

let instr_cycles = function
  | Ir.Bin (op, _, _, _) -> binop_cycles op
  | Ir.Un _ -> alu
  | Ir.Mov _ -> mov
  | Ir.Load _ | Ir.Store _ -> mem_issue
