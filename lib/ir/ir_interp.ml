module Ast_interp = Vmht_lang.Ast_interp

type hooks = { on_instr : Ir.instr -> unit; on_branch : taken:bool -> unit }

let no_hooks = { on_instr = (fun _ -> ()); on_branch = (fun ~taken:_ -> ()) }

exception Runaway of int

let run ?(hooks = no_hooks) ?(max_steps = 100_000_000)
    (mem : Ast_interp.memory) (f : Ir.func) ~args =
  if List.length args <> List.length f.arg_regs then
    invalid_arg
      (Printf.sprintf "Ir_interp.run: %s expects %d arguments, got %d"
         f.fname
         (List.length f.arg_regs)
         (List.length args));
  let regs = Array.make (max f.next_reg 1) 0 in
  List.iter2 (fun r v -> regs.(r) <- v) f.arg_regs args;
  let value = function Ir.Reg r -> regs.(r) | Ir.Imm n -> n in
  let blocks = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace blocks b.Ir.label b) f.blocks;
  let steps = ref 0 in
  let step instr =
    incr steps;
    if !steps > max_steps then raise (Runaway !steps);
    hooks.on_instr instr;
    match instr with
    | Ir.Bin (op, d, a, b) ->
      regs.(d) <- Ast_interp.eval_binop op (value a) (value b)
    | Ir.Un (op, d, a) -> regs.(d) <- Ast_interp.eval_unop op (value a)
    | Ir.Mov (d, a) -> regs.(d) <- value a
    | Ir.Load (d, addr) -> regs.(d) <- mem.Ast_interp.load (value addr)
    | Ir.Store (addr, v) -> mem.Ast_interp.store (value addr) (value v)
  in
  let rec exec_block label =
    (* Block entries count toward the step bound too, so that loops of
       empty blocks cannot run away. *)
    incr steps;
    if !steps > max_steps then raise (Runaway !steps);
    let b = Hashtbl.find blocks label in
    List.iter step b.Ir.instrs;
    match b.Ir.term with
    | Ir.Jmp l -> exec_block l
    | Ir.Br (c, l1, l2) ->
      let taken = value c <> 0 in
      hooks.on_branch ~taken;
      exec_block (if taken then l1 else l2)
    | Ir.Ret v -> Option.map value v
  in
  exec_block (Ir.entry f).Ir.label

let compile_op regs ~into ~slot : Ir.instr -> unit -> unit = function
  | Ir.Bin (op, _, Ir.Reg a, Ir.Reg b) ->
    fun () -> into.(slot) <- Ast_interp.eval_binop op regs.(a) regs.(b)
  | Ir.Bin (op, _, Ir.Reg a, Ir.Imm n) ->
    fun () -> into.(slot) <- Ast_interp.eval_binop op regs.(a) n
  | Ir.Bin (op, _, Ir.Imm n, Ir.Reg b) ->
    fun () -> into.(slot) <- Ast_interp.eval_binop op n regs.(b)
  | Ir.Bin (op, _, Ir.Imm m, Ir.Imm n) ->
    fun () -> into.(slot) <- Ast_interp.eval_binop op m n
  | Ir.Un (op, _, Ir.Reg a) ->
    fun () -> into.(slot) <- Ast_interp.eval_unop op regs.(a)
  | Ir.Un (op, _, Ir.Imm n) ->
    fun () -> into.(slot) <- Ast_interp.eval_unop op n
  | Ir.Mov (_, Ir.Reg a) -> fun () -> into.(slot) <- regs.(a)
  | Ir.Mov (_, Ir.Imm n) -> fun () -> into.(slot) <- n
  | Ir.Load _ | Ir.Store _ -> invalid_arg "Ir_interp.compile_op: memory access"
