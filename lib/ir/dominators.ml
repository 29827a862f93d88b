(* Immediate dominators by Cooper, Harvey and Kennedy, "A Simple, Fast
   Dominance Algorithm" (2001): number the reachable blocks in reverse
   postorder, then iterate [idom(b) = intersect of idom over b's
   processed predecessors] to a fixpoint, where [intersect] walks two
   fingers up the current tree until they meet.  The dominator tree
   then gets pre/post numbers from one walk, so [a] dominates [b]
   exactly when [b]'s interval nests in [a]'s.  Every array is indexed
   by label or by reverse-postorder position: memory is linear in the
   blocks, and no walk recurses, so a deep nest costs neither a
   quadratic set nor a deep native stack. *)

type t = {
  present : bool array; (* label -> carries a block *)
  pre : int array; (* label -> dominator-tree preorder, -1 if unreachable *)
  post : int array; (* label -> dominator-tree postorder *)
}

(* Depth-first over [children] from [root] without recursion, calling
   [enter] when a node is reached (it answers whether to descend into
   it) and [leave] once its subtree is done.  [children] is
   consumed. *)
let walk children root ~enter ~leave =
  let stack = Stack.create () in
  ignore (enter root);
  Stack.push root stack;
  while not (Stack.is_empty stack) do
    let n = Stack.top stack in
    match children.(n) with
    | c :: rest ->
      children.(n) <- rest;
      if enter c then Stack.push c stack
    | [] ->
      ignore (Stack.pop stack);
      leave n
  done

let compute (f : Ir.func) =
  let entry = (Ir.entry f).Ir.label in
  let bound = Ir.label_bound f in
  let present = Array.make bound false in
  let succs = Array.make bound [] in
  List.iter
    (fun (b : Ir.block) ->
      if not present.(b.label) then begin
        present.(b.label) <- true;
        succs.(b.label) <- Ir.successors b.term
      end)
    f.blocks;
  (* Reverse postorder of the blocks reachable from the entry.  Only
     they take part in the meet: an edge from an unreachable block
     would otherwise pull its (reachable) target's dominators down.
     Unreachable blocks keep pre = -1 and are dominated by themselves
     alone — nothing dominates code no path executes, and no spurious
     back edge appears from them. *)
  let seen = Array.make bound false in
  let postorder = ref [] in
  let pending = Array.map (List.filter (fun s -> present.(s))) succs in
  walk pending entry
    ~enter:(fun l ->
      let fresh = not seen.(l) in
      seen.(l) <- true;
      fresh)
    ~leave:(fun l -> postorder := l :: !postorder);
  let rpo = Array.of_list !postorder in
  let n = Array.length rpo in
  let index = Array.make bound (-1) in
  Array.iteri (fun i l -> index.(l) <- i) rpo;
  let preds = Array.make n [] in
  Array.iteri
    (fun i l ->
      List.iter
        (fun s ->
          if present.(s) then preds.(index.(s)) <- i :: preds.(index.(s)))
        succs.(l))
    rpo;
  (* In reverse postorder a dominator precedes what it dominates, so
     the finger further down the order is the one to move up. *)
  let idom = Array.make n (-1) in
  idom.(0) <- 0;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while !a > !b do
        a := idom.(!a)
      done;
      while !b > !a do
        b := idom.(!b)
      done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      let meet =
        List.fold_left
          (fun acc p ->
            if idom.(p) < 0 then acc else if acc < 0 then p else intersect p acc)
          (-1) preds.(i)
      in
      if meet <> idom.(i) then begin
        idom.(i) <- meet;
        changed := true
      end
    done
  done;
  let children = Array.make n [] in
  for i = n - 1 downto 1 do
    children.(idom.(i)) <- i :: children.(idom.(i))
  done;
  let pre = Array.make bound (-1) and post = Array.make bound (-1) in
  let next_pre = ref 0 and next_post = ref 0 in
  walk children 0
    ~enter:(fun i ->
      pre.(rpo.(i)) <- !next_pre;
      incr next_pre;
      true)
    ~leave:(fun i ->
      post.(rpo.(i)) <- !next_post;
      incr next_post);
  { present; pre; post }

let dominates t a b =
  let bound = Array.length t.present in
  if b < 0 || b >= bound || not t.present.(b) then false
  else if t.pre.(b) < 0 then a = b
  else
    a >= 0 && a < bound
    && t.pre.(a) >= 0
    && t.pre.(a) <= t.pre.(b)
    && t.post.(b) <= t.post.(a)

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
  let stack = Stack.create () in
  Stack.push latch stack;
  while not (Stack.is_empty stack) do
    let l = Stack.pop stack in
    if not (Hashtbl.mem in_loop l) then begin
      Hashtbl.replace in_loop l ();
      List.iter
        (fun p -> Stack.push p stack)
        (Option.value ~default:[] (Hashtbl.find_opt preds l))
    end
  done;
  Hashtbl.fold (fun l () acc -> l :: acc) in_loop []
