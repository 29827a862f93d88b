module Labelset = Set.Make (Int)

type t = { doms : (Ir.label, Labelset.t) Hashtbl.t }

let compute (f : Ir.func) =
  (* The dataflow runs over the reachable subgraph only: an edge from
     an unreachable block must not take part in a meet, or it would
     empty the dominator set of its (reachable) target.  Unreachable
     blocks get the singleton {b} — nothing dominates code no path
     executes, and no spurious back edge appears from them. *)
  let entry_label = (Ir.entry f).Ir.label in
  let index = Ir.block_index f in
  let reach = Hashtbl.create 16 in
  let rec visit l =
    if not (Hashtbl.mem reach l) then begin
      Hashtbl.replace reach l ();
      List.iter visit (Ir.successors (Hashtbl.find index l).Ir.term)
    end
  in
  visit entry_label;
  let all =
    List.fold_left
      (fun acc (b : Ir.block) ->
        if Hashtbl.mem reach b.label then Labelset.add b.label acc else acc)
      Labelset.empty f.blocks
  in
  let doms = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.block) ->
      Hashtbl.replace doms b.label
        (if b.label = entry_label then Labelset.singleton entry_label
         else if not (Hashtbl.mem reach b.label) then
           Labelset.singleton b.label
         else all))
    f.blocks;
  let preds = Ir.predecessors f in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (b : Ir.block) ->
        if b.label <> entry_label && Hashtbl.mem reach b.label then begin
          let pred_labels =
            List.filter (Hashtbl.mem reach)
              (Option.value ~default:[] (Hashtbl.find_opt preds b.label))
          in
          let meet =
            match pred_labels with
            | [] -> Labelset.empty (* cannot happen: b is reachable *)
            | p :: rest ->
              List.fold_left
                (fun acc q -> Labelset.inter acc (Hashtbl.find doms q))
                (Hashtbl.find doms p) rest
          in
          let updated = Labelset.add b.label meet in
          if not (Labelset.equal updated (Hashtbl.find doms b.label)) then begin
            Hashtbl.replace doms b.label updated;
            changed := true
          end
        end)
      f.blocks
  done;
  { doms }

let dominates t a b =
  match Hashtbl.find_opt t.doms b with
  | Some set -> Labelset.mem a set
  | None -> false

let back_edges (f : Ir.func) t =
  List.concat_map
    (fun (b : Ir.block) ->
      List.filter_map
        (fun succ ->
          if dominates t succ b.label then Some (b.label, succ) else None)
        (Ir.successors b.term))
    f.blocks

let natural_loop (f : Ir.func) ~header ~latch =
  let preds = Ir.predecessors f in
  let in_loop = Hashtbl.create 8 in
  Hashtbl.replace in_loop header ();
  let rec visit l =
    if not (Hashtbl.mem in_loop l) then begin
      Hashtbl.replace in_loop l ();
      List.iter visit (Option.value ~default:[] (Hashtbl.find_opt preds l))
    end
  in
  visit latch;
  Hashtbl.fold (fun l () acc -> l :: acc) in_loop []
