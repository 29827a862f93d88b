type reg = int

type label = int

type operand = Reg of reg | Imm of int

type instr =
  | Bin of Vmht_lang.Ast.binop * reg * operand * operand
  | Un of Vmht_lang.Ast.unop * reg * operand
  | Mov of reg * operand
  | Load of reg * operand
  | Store of operand * operand

type terminator =
  | Jmp of label
  | Br of operand * label * label
  | Ret of operand option

type block = {
  label : label;
  mutable instrs : instr list;
  mutable term : terminator;
}

type func = {
  fname : string;
  arg_regs : reg list;
  returns_value : bool;
  mutable blocks : block list;
  mutable next_reg : reg;
  mutable next_label : label;
}

let create_func ~name ~arg_count ~returns_value =
  {
    fname = name;
    arg_regs = List.init arg_count (fun i -> i);
    returns_value;
    blocks = [];
    next_reg = arg_count;
    next_label = 0;
  }

let fresh_reg f =
  let r = f.next_reg in
  f.next_reg <- r + 1;
  r

let fresh_label f =
  let l = f.next_label in
  f.next_label <- l + 1;
  l

let add_block f label =
  let b = { label; instrs = []; term = Ret None } in
  f.blocks <- f.blocks @ [ b ];
  b

let find_block f label = List.find (fun b -> b.label = label) f.blocks

let block_index f =
  let index = Hashtbl.create (2 * List.length f.blocks) in
  List.iter
    (fun b -> if not (Hashtbl.mem index b.label) then Hashtbl.add index b.label b)
    f.blocks;
  index

let entry f =
  match f.blocks with
  | [] -> invalid_arg "Ir.entry: empty function"
  | b :: _ -> b

let def_of = function
  | Bin (_, d, _, _) | Un (_, d, _) | Mov (d, _) | Load (d, _) -> Some d
  | Store _ -> None

let def_reg = function
  | Bin (_, d, _, _) | Un (_, d, _) | Mov (d, _) | Load (d, _) -> d
  | Store _ -> -1

let iter_def k = function
  | Bin (_, d, _, _) | Un (_, d, _) | Mov (d, _) | Load (d, _) -> k d
  | Store _ -> ()

let iter_operand k = function Reg r -> k r | Imm _ -> ()

let iter_uses k = function
  | Bin (_, _, a, b) | Store (a, b) ->
    iter_operand k a;
    iter_operand k b
  | Un (_, _, a) | Mov (_, a) | Load (_, a) -> iter_operand k a

let iter_term_uses k = function
  | Jmp _ | Ret None -> ()
  | Br (c, _, _) | Ret (Some c) -> iter_operand k c

let successors = function
  | Jmp l -> [ l ]
  | Br (_, l1, l2) -> if l1 = l2 then [ l1 ] else [ l1; l2 ]
  | Ret _ -> []

let label_bound f =
  List.fold_left
    (fun n b ->
      List.fold_left (fun n l -> max n (l + 1)) (max n (b.label + 1))
        (successors b.term))
    0 f.blocks

let predecessors f =
  let preds = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace preds b.label []) f.blocks;
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          let cur = try Hashtbl.find preds s with Not_found -> [] in
          Hashtbl.replace preds s (b.label :: cur))
        (successors b.term))
    f.blocks;
  preds

let instr_count f =
  List.fold_left (fun acc b -> acc + List.length b.instrs) 0 f.blocks

let block_count f = List.length f.blocks

let is_pure = function
  | Bin _ | Un _ | Mov _ | Load _ -> true
  | Store _ -> false

let operand_to_string = function
  | Reg r -> Printf.sprintf "r%d" r
  | Imm n -> string_of_int n

let instr_to_string = function
  | Bin (op, d, a, b) ->
    Printf.sprintf "r%d = %s %s %s" d (operand_to_string a)
      (Vmht_lang.Ast.binop_to_string op)
      (operand_to_string b)
  | Un (op, d, a) ->
    Printf.sprintf "r%d = %s%s" d
      (Vmht_lang.Ast.unop_to_string op)
      (operand_to_string a)
  | Mov (d, a) -> Printf.sprintf "r%d = %s" d (operand_to_string a)
  | Load (d, addr) -> Printf.sprintf "r%d = mem[%s]" d (operand_to_string addr)
  | Store (addr, v) ->
    Printf.sprintf "mem[%s] = %s" (operand_to_string addr)
      (operand_to_string v)

let term_to_string = function
  | Jmp l -> Printf.sprintf "jmp L%d" l
  | Br (c, l1, l2) ->
    Printf.sprintf "br %s ? L%d : L%d" (operand_to_string c) l1 l2
  | Ret None -> "ret"
  | Ret (Some v) -> Printf.sprintf "ret %s" (operand_to_string v)

let func_to_string f =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "func %s(%s)%s\n" f.fname
       (String.concat ", " (List.map (Printf.sprintf "r%d") f.arg_regs))
       (if f.returns_value then " : value" else ""));
  List.iter
    (fun b ->
      Buffer.add_string buf (Printf.sprintf "L%d:\n" b.label);
      List.iter
        (fun i -> Buffer.add_string buf ("  " ^ instr_to_string i ^ "\n"))
        b.instrs;
      Buffer.add_string buf ("  " ^ term_to_string b.term ^ "\n"))
    f.blocks;
  Buffer.contents buf

let validate f =
  let fail fmt = Printf.ksprintf failwith fmt in
  if f.blocks = [] then fail "function %s has no blocks" f.fname;
  let labels = Hashtbl.create 16 in
  List.iter
    (fun b ->
      if Hashtbl.mem labels b.label then
        fail "duplicate block label L%d" b.label;
      Hashtbl.replace labels b.label ())
    f.blocks;
  let defined = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace defined r ()) f.arg_regs;
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          match def_of i with
          | Some d -> Hashtbl.replace defined d ()
          | None -> ())
        b.instrs)
    f.blocks;
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          iter_uses
            (fun r ->
              if not (Hashtbl.mem defined r) then
                fail "instruction '%s' reads undefined register r%d"
                  (instr_to_string i) r)
            i)
        b.instrs;
      iter_term_uses
        (fun r ->
          if not (Hashtbl.mem defined r) then
            fail "terminator '%s' reads undefined register r%d"
              (term_to_string b.term) r)
        b.term;
      List.iter
        (fun l ->
          if not (Hashtbl.mem labels l) then
            fail "terminator '%s' targets missing block L%d"
              (term_to_string b.term) l)
        (successors b.term))
    f.blocks
