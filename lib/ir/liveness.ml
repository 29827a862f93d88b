module Regset = Set.Make (Int)

(* Registers are small dense integers, so the fixpoint runs over bit
   vectors — one int per [Sys.int_size] registers — indexed by block
   position, and a set is built only when a caller asks for one.  The
   least fixpoint does not depend on the representation. *)
type t = {
  index : (Ir.label, int) Hashtbl.t;
  live_in_bits : int array array;
  live_out_bits : int array array;
}

let bit_words regs = (regs + Sys.int_size - 1) / Sys.int_size

let add_bit bits r =
  if r < 0 then invalid_arg "Liveness.compute: negative register";
  let w = r / Sys.int_size in
  bits.(w) <- bits.(w) lor (1 lsl (r mod Sys.int_size))

let mem_bit bits r = bits.(r / Sys.int_size) land (1 lsl (r mod Sys.int_size)) <> 0

let to_set bits =
  let set = ref Regset.empty in
  Array.iteri
    (fun w word ->
      let word = ref word and r = ref (w * Sys.int_size) in
      while !word <> 0 do
        if !word land 1 <> 0 then set := Regset.add !r !set;
        word := !word lsr 1;
        incr r
      done)
    bits;
  !set

(* [use] = registers read before any write in the block; [def] = every
   register the block writes. *)
let block_use_def words (b : Ir.block) =
  let use = Array.make words 0 and def = Array.make words 0 in
  let read r = if not (mem_bit def r) then add_bit use r in
  List.iter
    (fun instr ->
      List.iter read (Ir.uses_of instr);
      match Ir.def_of instr with Some d -> add_bit def d | None -> ())
    b.instrs;
  List.iter read (Ir.term_uses b.term);
  (use, def)

let compute (f : Ir.func) =
  (* Reverse block order converges fast for the reducible CFGs the
     lowerer produces. *)
  let blocks = Array.of_list (List.rev f.Ir.blocks) in
  let n = Array.length blocks in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i (b : Ir.block) -> Hashtbl.replace index b.label i) blocks;
  let succs =
    Array.map
      (fun (b : Ir.block) ->
        Array.of_list (List.map (Hashtbl.find index) (Ir.successors b.term)))
      blocks
  in
  let regs = ref f.Ir.next_reg in
  let see r = if r >= !regs then regs := r + 1 in
  Array.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun instr ->
          List.iter see (Ir.uses_of instr);
          Option.iter see (Ir.def_of instr))
        b.instrs;
      List.iter see (Ir.term_uses b.term))
    blocks;
  let words = bit_words !regs in
  let use_def = Array.map (block_use_def words) blocks in
  let use = Array.map fst use_def and def = Array.map snd use_def in
  let live_in = Array.init n (fun _ -> Array.make words 0) in
  let live_out = Array.init n (fun _ -> Array.make words 0) in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      let out = live_out.(i) and inn = live_in.(i) in
      let use = use.(i) and def = def.(i) and succs = succs.(i) in
      for w = 0 to words - 1 do
        let o = ref 0 in
        for k = 0 to Array.length succs - 1 do
          o := !o lor live_in.(succs.(k)).(w)
        done;
        let x = use.(w) lor (!o land lnot def.(w)) in
        if !o <> out.(w) then begin
          out.(w) <- !o;
          changed := true
        end;
        if x <> inn.(w) then begin
          inn.(w) <- x;
          changed := true
        end
      done
    done
  done;
  { index; live_in_bits = live_in; live_out_bits = live_out }

let live_in t label = to_set t.live_in_bits.(Hashtbl.find t.index label)

let live_out t label = to_set t.live_out_bits.(Hashtbl.find t.index label)

let live_after_each t (b : Ir.block) =
  let n = List.length b.instrs in
  let result = Array.make (max n 1) Regset.empty in
  let live = ref (live_out t b.label) in
  (* Terminator reads happen "after" the last instruction. *)
  List.iter (fun r -> live := Regset.add r !live) (Ir.term_uses b.term);
  let instrs = Array.of_list b.instrs in
  for i = n - 1 downto 0 do
    result.(i) <- !live;
    (match Ir.def_of instrs.(i) with
     | Some d -> live := Regset.remove d !live
     | None -> ());
    List.iter (fun r -> live := Regset.add r !live) (Ir.uses_of instrs.(i))
  done;
  result

let max_live (f : Ir.func) t =
  List.fold_left
    (fun acc b ->
      let after = live_after_each t b in
      Array.fold_left (fun acc s -> max acc (Regset.cardinal s)) acc after)
    0 f.blocks
