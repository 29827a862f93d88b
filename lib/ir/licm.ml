module Ast = Vmht_lang.Ast

let hoistable_op = function
  | Ir.Bin ((Ast.Div | Ast.Rem), _, _, _) -> false (* may trap *)
  | Ir.Bin _ | Ir.Un _ | Ir.Mov _ -> true
  | Ir.Load _ | Ir.Store _ -> false (* memory state / faults *)

(* Create (or reuse) a preheader for [header]: a block that all
   non-loop predecessors enter instead of the header.  Returns it. *)
let make_preheader (f : Ir.func) ~header ~in_loop =
  let pre_label = Ir.fresh_label f in
  let pre = { Ir.label = pre_label; instrs = []; term = Ir.Jmp header } in
  (* Redirect entering edges. *)
  List.iter
    (fun (b : Ir.block) ->
      if not (in_loop b.label) && b.label <> pre_label then
        b.term <-
          (match b.term with
           | Ir.Jmp l when l = header -> Ir.Jmp pre_label
           | Ir.Br (c, l1, l2) ->
             let r l = if l = header then pre_label else l in
             Ir.Br (c, r l1, r l2)
           | (Ir.Jmp _ | Ir.Ret _) as t -> t))
    f.blocks;
  (* Keep the entry block first: if the header was the entry, the
     preheader becomes the new entry. *)
  if (Ir.entry f).Ir.label = header then f.blocks <- pre :: f.blocks
  else begin
    (* Insert just before the header for readable dumps. *)
    let rec insert = function
      | [] -> [ pre ]
      | b :: rest when b.Ir.label = header -> pre :: b :: rest
      | b :: rest -> b :: insert rest
    in
    f.blocks <- insert f.blocks
  end;
  pre

(* Loop membership, definition counts and the invariant and emitted
   marks are arrays: labels index one, registers the others. *)
let process_loop (f : Ir.func) ~live ~header ~loop_labels =
  let labels =
    List.fold_left
      (fun n l -> max n (l + 1))
      (max 0 f.Ir.next_label) loop_labels
  in
  let member = Array.make labels false in
  List.iter (fun l -> if l >= 0 then member.(l) <- true) loop_labels;
  let in_loop l = l >= 0 && l < labels && member.(l) in
  let loop_blocks =
    List.filter (fun (b : Ir.block) -> in_loop b.label) f.blocks
  in
  (* Definition counts inside the loop, by register: the allocator's
     range and any register a loop instruction defines past it. *)
  let regs =
    List.fold_left
      (fun n (b : Ir.block) ->
        List.fold_left (fun n i -> max n (Ir.def_reg i + 1)) n b.Ir.instrs)
      (max 0 f.Ir.next_reg) loop_blocks
  in
  let def_count = Array.make regs 0 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun i ->
          let d = Ir.def_reg i in
          if d >= 0 then def_count.(d) <- def_count.(d) + 1)
        b.Ir.instrs)
    loop_blocks;
  let defined_in_loop r = r >= 0 && r < regs && def_count.(r) > 0 in
  (* Liveness constraints. *)
  let exit_targets =
    List.concat_map
      (fun (b : Ir.block) ->
        List.filter (fun s -> not (in_loop s)) (Ir.successors b.Ir.term))
      loop_blocks
    |> List.sort_uniq compare
  in
  let live_in l d = Liveness.mem_live_in (Lazy.force live) l d in
  (* Fixpoint: grow the set of invariant definitions.  Only registers
     defined in the loop are ever marked. *)
  let invariant = Array.make regs false in
  let operand_invariant = function
    | Ir.Reg r -> (not (defined_in_loop r)) || invariant.(r)
    | Ir.Imm _ -> true
  in
  let operands_invariant = function
    | Ir.Bin (_, _, a, b) | Ir.Store (a, b) ->
      operand_invariant a && operand_invariant b
    | Ir.Un (_, _, a) | Ir.Mov (_, a) | Ir.Load (_, a) -> operand_invariant a
  in
  (* Per loop block, which of its instructions are marked. *)
  let marks =
    List.map
      (fun (b : Ir.block) -> (b, Array.make (List.length b.Ir.instrs) false))
      loop_blocks
  in
  let n_marked = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun ((b : Ir.block), marked) ->
        List.iteri
          (fun idx instr ->
            if not marked.(idx) then begin
              let d = Ir.def_reg instr in
              if
                d >= 0 && hoistable_op instr
                && def_count.(d) = 1
                && (not (live_in header d))
                && (not (List.exists (fun l -> live_in l d) exit_targets))
                && operands_invariant instr
              then begin
                marked.(idx) <- true;
                incr n_marked;
                invariant.(d) <- true;
                changed := true
              end
            end)
          b.Ir.instrs)
      marks
  done;
  if !n_marked = 0 then 0
  else begin
    let pre = make_preheader f ~header ~in_loop in
    (* Emit hoisted instructions in dependency order: repeatedly take
       marked instructions whose invariant operands are already
       emitted. *)
    let emitted = Array.make regs false in
    let pending = ref [] in
    List.iter
      (fun ((b : Ir.block), marked) ->
        List.iteri
          (fun idx instr -> if marked.(idx) then pending := instr :: !pending)
          b.Ir.instrs;
        (* Drop the hoisted instructions from the body. *)
        b.Ir.instrs <- List.filteri (fun idx _ -> not marked.(idx)) b.Ir.instrs)
      marks;
    let pending = ref (List.rev !pending) in
    let hoisted = ref [] in
    let operand_ready = function
      | Ir.Reg r ->
        (not (defined_in_loop r)) || (not invariant.(r)) || emitted.(r)
      | Ir.Imm _ -> true
    in
    let ready = function
      | Ir.Bin (_, _, a, b) | Ir.Store (a, b) ->
        operand_ready a && operand_ready b
      | Ir.Un (_, _, a) | Ir.Mov (_, a) | Ir.Load (_, a) -> operand_ready a
    in
    while !pending <> [] do
      let now, later = List.partition ready !pending in
      assert (now <> []);
      List.iter
        (fun instr ->
          hoisted := instr :: !hoisted;
          emitted.(Ir.def_reg instr) <- true)
        now;
      pending := later
    done;
    pre.Ir.instrs <- List.rev !hoisted;
    List.length pre.Ir.instrs
  end

(* Dominators (with the back edges they give) and liveness describe
   the CFG as it stands; only a hoist changes it, so both are computed
   again only after one. *)
let run (f : Ir.func) =
  let analyses () =
    lazy
      (let doms = Dominators.compute f in
       (Dominators.back_edges f doms, lazy (Liveness.compute f)))
  in
  let current = ref (analyses ()) in
  let edges, _ = Lazy.force !current in
  (* Merge latches per header so each loop is processed once. *)
  let headers = List.sort_uniq compare (List.map snd edges) in
  let total = ref 0 in
  List.iter
    (fun header ->
      let edges, live = Lazy.force !current in
      let latches =
        List.filter_map
          (fun (u, h) -> if h = header then Some u else None)
          edges
      in
      if latches <> [] then begin
        let loop_labels =
          List.concat_map
            (fun latch -> Dominators.natural_loop f ~header ~latch)
            latches
          |> List.sort_uniq compare
        in
        let hoisted = process_loop f ~live ~header ~loop_labels in
        if hoisted > 0 then begin
          total := !total + hoisted;
          current := analyses ()
        end
      end)
    headers;
  if !total > 0 then Ir.validate f;
  !total
