exception Error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

(* [block_at]: every block by label, [no_block] where there is none;
   built once by {!run}, and read for reachability only after the
   labels and branch targets are checked. *)
let no_block = { Ir.label = -1; instrs = []; term = Ir.Ret None }

let reachable_labels (f : Ir.func) block_at =
  let seen = Array.make (Array.length block_at) false in
  let rec visit l =
    if not seen.(l) then begin
      seen.(l) <- true;
      match block_at.(l).Ir.term with
      | Ir.Jmp s -> visit s
      | Ir.Br (_, s1, s2) ->
        visit s1;
        visit s2
      | Ir.Ret _ -> ()
    end
  in
  visit (Ir.entry f).label;
  seen

let out_of_range f r = r < 0 || r >= f.Ir.next_reg

(* The error context is formatted only when a check fails: building it
   for every instruction would dominate the verifier's cost. *)
let instr_ctx f (b : Ir.block) instr =
  Printf.sprintf "%s: block L%d: %s" f.Ir.fname b.label
    (Ir.instr_to_string instr)

let term_ctx f (b : Ir.block) =
  Printf.sprintf "%s: block L%d: %s" f.Ir.fname b.label
    (Ir.term_to_string b.term)

let check_def f b instr d =
  if out_of_range f d then
    fail "%s: defined register r%d outside allocator range [0, %d)"
      (instr_ctx f b instr) d f.Ir.next_reg

let check_use f b instr = function
  | Ir.Reg r when out_of_range f r ->
    fail "%s: register r%d outside allocator range [0, %d)"
      (instr_ctx f b instr) r f.Ir.next_reg
  | Ir.Reg _ | Ir.Imm _ -> ()

(* Operands are matched directly, the definition before the uses, so
   the first offending operand is the one [Ir.iter_def] and then
   [Ir.iter_uses] would reach first. *)
let rec check_instrs f b = function
  | [] -> ()
  | instr :: rest ->
    (match instr with
     | Ir.Bin (_, d, x, y) ->
       check_def f b instr d;
       check_use f b instr x;
       check_use f b instr y
     | Ir.Un (_, d, x) | Ir.Mov (d, x) | Ir.Load (d, x) ->
       check_def f b instr d;
       check_use f b instr x
     | Ir.Store (x, y) ->
       check_use f b instr x;
       check_use f b instr y);
    check_instrs f b rest

let check_target f block_at b l =
  if l < 0 || l >= f.Ir.next_label then
    fail "%s: target L%d outside allocator range [0, %d)" (term_ctx f b) l
      f.Ir.next_label;
  if block_at.(l) == no_block then
    fail "%s: target L%d has no block" (term_ctx f b) l

let check_term_use f b = function
  | Ir.Reg r when out_of_range f r ->
    fail "%s: register r%d outside allocator range [0, %d)" (term_ctx f b) r
      f.Ir.next_reg
  | Ir.Reg _ | Ir.Imm _ -> ()

(* The operand before the targets, each target once. *)
let check_term f block_at (b : Ir.block) =
  match b.term with
  | Ir.Jmp l -> check_target f block_at b l
  | Ir.Br (c, l1, l2) ->
    check_term_use f b c;
    check_target f block_at b l1;
    if l2 <> l1 then check_target f block_at b l2
  | Ir.Ret (Some c) -> check_term_use f b c
  | Ir.Ret None -> ()

let run (f : Ir.func) =
  (* CFG shape: non-empty, unique labels, in-range counters. *)
  if f.Ir.blocks = [] then fail "%s: function has no blocks" f.Ir.fname;
  let block_at = Array.make (max 0 f.Ir.next_label) no_block in
  List.iter
    (fun (b : Ir.block) ->
      let in_range = b.Ir.label >= 0 && b.Ir.label < f.Ir.next_label in
      if in_range && block_at.(b.Ir.label) != no_block then
        fail "%s: duplicate block label L%d" f.Ir.fname b.Ir.label;
      if not in_range then
        fail "%s: block label L%d outside allocator range [0, %d)" f.Ir.fname
          b.Ir.label f.Ir.next_label;
      block_at.(b.Ir.label) <- b)
    f.blocks;
  List.iter
    (fun (b : Ir.block) ->
      check_instrs f b b.instrs;
      check_term f block_at b)
    f.blocks;
  (* Def-before-use on every path: a register live into the entry block
     is one some execution can read before any instruction defines it,
     so only argument registers may appear there. *)
  let info = Liveness.compute f in
  let entry = Ir.entry f in
  (match
     Liveness.min_live_in info entry.Ir.label ~except:(fun r ->
         List.mem r f.Ir.arg_regs)
   with
   | Some r ->
     fail "%s: register r%d may be read before it is defined" f.Ir.fname r
   | None -> ());
  (* Terminators on reachable blocks agree with the function's return
     arity.  Unreachable blocks are exempt: they keep the [Ret None]
     placeholder terminator until [simplify_cfg] deletes them, which
     never happens under an empty (-O0) schedule.  (The entry dominates
     every block reachable from it by definition, so no dominator
     computation is needed here.) *)
  let reach = reachable_labels f block_at in
  List.iter
    (fun (b : Ir.block) ->
      if reach.(b.Ir.label) then begin
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
