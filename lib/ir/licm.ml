module Ast = Vmht_lang.Ast

let hoistable_op = function
  | Ir.Bin ((Ast.Div | Ast.Rem), _, _, _) -> false (* may trap *)
  | Ir.Bin _ | Ir.Un _ | Ir.Mov _ -> true
  | Ir.Load _ | Ir.Store _ -> false (* memory state / faults *)

(* Create (or reuse) a preheader for [header]: a block that all
   non-loop predecessors enter instead of the header.  Returns it. *)
let make_preheader (f : Ir.func) ~header ~loop_labels =
  let in_loop l = List.mem l loop_labels in
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

let process_loop (f : Ir.func) ~live ~header ~loop_labels =
  let in_loop l = List.mem l loop_labels in
  let loop_blocks =
    List.filter (fun (b : Ir.block) -> in_loop b.label) f.blocks
  in
  (* Definition counts inside the loop. *)
  let def_count : (Ir.reg, int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun i ->
          match Ir.def_of i with
          | Some d ->
            Hashtbl.replace def_count d
              (1 + Option.value ~default:0 (Hashtbl.find_opt def_count d))
          | None -> ())
        b.Ir.instrs)
    loop_blocks;
  let defined_in_loop r = Hashtbl.mem def_count r in
  (* Liveness constraints. *)
  let exit_targets =
    List.concat_map
      (fun (b : Ir.block) ->
        List.filter (fun s -> not (in_loop s)) (Ir.successors b.Ir.term))
      loop_blocks
    |> List.sort_uniq compare
  in
  let live_in l d = Liveness.mem_live_in (Lazy.force live) l d in
  (* Fixpoint: grow the set of invariant definitions. *)
  let invariant : (Ir.reg, unit) Hashtbl.t = Hashtbl.create 8 in
  let operands_invariant instr =
    let ok = ref true in
    Ir.iter_uses
      (fun r ->
        if defined_in_loop r && not (Hashtbl.mem invariant r) then ok := false)
      instr;
    !ok
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
            if not marked.(idx) then
              match Ir.def_of instr with
              | Some d
                when hoistable_op instr
                     && Hashtbl.find_opt def_count d = Some 1
                     && (not (live_in header d))
                     && not (List.exists (fun l -> live_in l d) exit_targets)
                     && operands_invariant instr ->
                marked.(idx) <- true;
                incr n_marked;
                Hashtbl.replace invariant d ();
                changed := true
              | Some _ | None -> ())
          b.Ir.instrs)
      marks
  done;
  if !n_marked = 0 then 0
  else begin
    let pre = make_preheader f ~header ~loop_labels in
    (* Emit hoisted instructions in dependency order: repeatedly take
       marked instructions whose invariant operands are already
       emitted. *)
    let emitted : (Ir.reg, unit) Hashtbl.t = Hashtbl.create 8 in
    let pending = ref [] in
    List.iter
      (fun ((b : Ir.block), marked) ->
        List.iteri
          (fun idx instr ->
            if marked.(idx) then
              pending := (instr, Ir.def_of instr) :: !pending)
          b.Ir.instrs;
        (* Drop the hoisted instructions from the body. *)
        b.Ir.instrs <- List.filteri (fun idx _ -> not marked.(idx)) b.Ir.instrs)
      marks;
    let pending = ref (List.rev !pending) in
    let hoisted = ref [] in
    let ready (instr, _) =
      let ok = ref true in
      Ir.iter_uses
        (fun r ->
          if Hashtbl.mem invariant r && not (Hashtbl.mem emitted r) then
            ok := false)
        instr;
      !ok
    in
    while !pending <> [] do
      let now, later = List.partition ready !pending in
      assert (now <> []);
      List.iter
        (fun (instr, def) ->
          hoisted := instr :: !hoisted;
          match def with
          | Some d -> Hashtbl.replace emitted d ()
          | None -> ())
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
