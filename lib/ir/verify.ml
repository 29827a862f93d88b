exception Error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

let reachable_labels (f : Ir.func) =
  let seen = Hashtbl.create 16 in
  let rec visit l =
    if not (Hashtbl.mem seen l) then begin
      Hashtbl.replace seen l ();
      List.iter visit (Ir.successors (Ir.find_block f l).term)
    end
  in
  visit (Ir.entry f).label;
  seen

(* [ctx] formats the error context only when a check fails: building
   it for every instruction would dominate the verifier's cost. *)
let check_operand f ctx = function
  | Ir.Imm _ -> ()
  | Ir.Reg r ->
    if r < 0 || r >= f.Ir.next_reg then
      fail "%s: register r%d outside allocator range [0, %d)" (ctx ()) r
        f.Ir.next_reg

let check_instr f (b : Ir.block) instr =
  let ctx () =
    Printf.sprintf "%s: block L%d: %s" f.Ir.fname b.label
      (Ir.instr_to_string instr)
  in
  (match Ir.def_of instr with
   | Some d ->
     if d < 0 || d >= f.Ir.next_reg then
       fail "%s: defined register r%d outside allocator range [0, %d)" (ctx ()) d
         f.Ir.next_reg
   | None -> ());
  match instr with
  | Ir.Bin (_, _, a, c) -> check_operand f ctx a; check_operand f ctx c
  | Ir.Un (_, _, a) | Ir.Mov (_, a) | Ir.Load (_, a) -> check_operand f ctx a
  | Ir.Store (a, v) -> check_operand f ctx a; check_operand f ctx v

let check_term f (b : Ir.block) =
  let ctx () =
    Printf.sprintf "%s: block L%d: %s" f.Ir.fname b.label
      (Ir.term_to_string b.term)
  in
  List.iter
    (fun r ->
      if r < 0 || r >= f.Ir.next_reg then
        fail "%s: register r%d outside allocator range [0, %d)" (ctx ()) r
          f.Ir.next_reg)
    (Ir.term_uses b.term);
  List.iter
    (fun l ->
      if l < 0 || l >= f.Ir.next_label then
        fail "%s: target L%d outside allocator range [0, %d)" (ctx ()) l
          f.Ir.next_label;
      match Ir.find_block f l with
      | _ -> ()
      | exception Not_found -> fail "%s: target L%d has no block" (ctx ()) l)
    (Ir.successors b.term)

let run (f : Ir.func) =
  (* CFG shape: non-empty, unique labels, in-range counters. *)
  if f.Ir.blocks = [] then fail "%s: function has no blocks" f.Ir.fname;
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.block) ->
      if Hashtbl.mem seen b.Ir.label then
        fail "%s: duplicate block label L%d" f.Ir.fname b.Ir.label;
      Hashtbl.replace seen b.Ir.label ();
      if b.Ir.label < 0 || b.Ir.label >= f.Ir.next_label then
        fail "%s: block label L%d outside allocator range [0, %d)" f.Ir.fname
          b.Ir.label f.Ir.next_label)
    f.blocks;
  List.iter
    (fun (b : Ir.block) ->
      List.iter (check_instr f b) b.instrs;
      check_term f b)
    f.blocks;
  (* Def-before-use on every path: a register live into the entry block
     is one some execution can read before any instruction defines it,
     so only argument registers may appear there. *)
  let info = Liveness.compute f in
  let entry = Ir.entry f in
  let undefined =
    Liveness.Regset.diff
      (Liveness.live_in info entry.Ir.label)
      (Liveness.Regset.of_list f.Ir.arg_regs)
  in
  (match Liveness.Regset.choose_opt undefined with
   | Some r ->
     fail "%s: register r%d may be read before it is defined" f.Ir.fname r
   | None -> ());
  (* Terminators on reachable blocks agree with the function's return
     arity.  Unreachable blocks are exempt: they keep the [Ret None]
     placeholder terminator until [simplify_cfg] deletes them, which
     never happens under an empty (-O0) schedule.  (The entry dominates
     every block reachable from it by definition, so no dominator
     computation is needed here.) *)
  let reach = reachable_labels f in
  List.iter
    (fun (b : Ir.block) ->
      if Hashtbl.mem reach b.Ir.label then begin
        match (b.Ir.term, f.Ir.returns_value) with
        | Ir.Ret (Some _), false ->
          fail "%s: block L%d returns a value from a void function"
            f.Ir.fname b.Ir.label
        | Ir.Ret None, true ->
          fail "%s: block L%d returns no value from a value function"
            f.Ir.fname b.Ir.label
        | (Ir.Ret _ | Ir.Jmp _ | Ir.Br _), _ -> ()
      end)
    f.blocks

let check f = match run f with () -> Ok () | exception Error msg -> Error msg
