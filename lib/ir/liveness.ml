module Regset = Set.Make (Int)

(* Registers are small dense integers, so the fixpoint runs over bit
   vectors — one int per [Sys.int_size] registers — and a set is built
   only when a caller asks for one.  Each analysis keeps all blocks'
   vectors in one flat array, [words] ints per block position, so a run
   allocates a handful of arrays however many blocks there are.  The
   least fixpoint does not depend on the representation. *)
type t = {
  pos : int array;  (** block position by label; -1 for no block *)
  words : int;
  live_in_bits : int array;
  live_out_bits : int array;
}

let lookup pos label =
  if label < 0 || label >= Array.length pos || pos.(label) < 0 then
    raise Not_found;
  pos.(label)

let bit_words regs = (regs + Sys.int_size - 1) / Sys.int_size

(* [bits.(base ..)] holds one vector. *)
let add_bit bits base r =
  let w = base + (r / Sys.int_size) in
  bits.(w) <- bits.(w) lor (1 lsl (r mod Sys.int_size))

let remove_bit bits base r =
  let w = base + (r / Sys.int_size) in
  bits.(w) <- bits.(w) land lnot (1 lsl (r mod Sys.int_size))

let mem_bit bits base r =
  bits.(base + (r / Sys.int_size)) land (1 lsl (r mod Sys.int_size)) <> 0

let rec popcount w acc = if w = 0 then acc else popcount (w land (w - 1)) (acc + 1)

(* [use] = registers read before any write in the block; [def] = every
   register the block writes. *)
let block_use_def use def base (b : Ir.block) =
  let read r = if not (mem_bit def base r) then add_bit use base r in
  let write d = add_bit def base d in
  List.iter
    (fun instr ->
      Ir.iter_uses read instr;
      Ir.iter_def write instr)
    b.instrs;
  Ir.iter_term_uses read b.term

let compute (f : Ir.func) =
  (* Reverse block order converges fast for the reducible CFGs the
     lowerer produces. *)
  let blocks = Array.of_list (List.rev f.Ir.blocks) in
  let n = Array.length blocks in
  (* Labels come from [Ir.fresh_label], so they index an array. *)
  let labels =
    Array.fold_left
      (fun acc (b : Ir.block) ->
        if b.label < 0 then invalid_arg "Liveness.compute: negative label";
        if b.label >= acc then b.label + 1 else acc)
      (max 0 f.Ir.next_label) blocks
  in
  let pos = Array.make labels (-1) in
  Array.iteri (fun i (b : Ir.block) -> pos.(b.label) <- i) blocks;
  let succs =
    Array.map
      (fun (b : Ir.block) ->
        match b.term with
        | Ir.Jmp l -> [| lookup pos l |]
        | Ir.Br (_, l1, l2) ->
          if l1 = l2 then [| lookup pos l1 |]
          else [| lookup pos l1; lookup pos l2 |]
        | Ir.Ret _ -> [||])
      blocks
  in
  (* The vectors cover the allocator's range and every register the
     blocks mention past it. *)
  let regs = ref f.Ir.next_reg in
  let see r =
    if r < 0 then invalid_arg "Liveness.compute: negative register";
    if r >= !regs then regs := r + 1
  in
  Array.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun instr ->
          Ir.iter_uses see instr;
          Ir.iter_def see instr)
        b.instrs;
      Ir.iter_term_uses see b.term)
    blocks;
  let words = bit_words !regs in
  let use = Array.make (n * words) 0 and def = Array.make (n * words) 0 in
  Array.iteri (fun i b -> block_use_def use def (i * words) b) blocks;
  let live_in = Array.make (n * words) 0 in
  let live_out = Array.make (n * words) 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      let base = i * words and succs = succs.(i) in
      for w = 0 to words - 1 do
        let o = ref 0 in
        for k = 0 to Array.length succs - 1 do
          o := !o lor live_in.((succs.(k) * words) + w)
        done;
        let at = base + w in
        let x = use.(at) lor (!o land lnot def.(at)) in
        if !o <> live_out.(at) then begin
          live_out.(at) <- !o;
          changed := true
        end;
        if x <> live_in.(at) then begin
          live_in.(at) <- x;
          changed := true
        end
      done
    done
  done;
  { pos; words; live_in_bits = live_in; live_out_bits = live_out }

(* One block's vector, copied out of the flat array. *)
let vector t bits label = Array.sub bits (lookup t.pos label * t.words) t.words

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

let live_in t label = to_set (vector t t.live_in_bits label)

let live_out t label = to_set (vector t t.live_out_bits label)

(* A register no block mentions is live nowhere. *)
let mem t bits label r =
  let base = lookup t.pos label * t.words in
  r >= 0 && r / Sys.int_size < t.words && mem_bit bits base r

let mem_live_in t label r = mem t t.live_in_bits label r

let mem_live_out t label r = mem t t.live_out_bits label r

let min_live_in t label ~except =
  let base = lookup t.pos label * t.words and bits = t.live_in_bits in
  let rec scan w b =
    if w >= t.words then None
    else if b = Sys.int_size || bits.(base + w) lsr b = 0 then scan (w + 1) 0
    else
      let r = (w * Sys.int_size) + b in
      if bits.(base + w) land (1 lsl b) <> 0 && not (except r) then Some r
      else scan w (b + 1)
  in
  scan 0 0

(* Walk [b] backward from its live-out set plus its terminator's
   reads, calling [k instr live count] with the set live just after
   [instr] and its size.  Every instruction's reads are added, so a
   caller deleting instructions as it goes still sees the sets of the
   block as it was. *)
let scan_back t (b : Ir.block) k =
  let live = vector t t.live_out_bits b.label in
  let count = ref (Array.fold_left (fun acc w -> popcount w acc) 0 live) in
  let add r =
    if not (mem_bit live 0 r) then begin
      add_bit live 0 r;
      incr count
    end
  in
  let remove r =
    if mem_bit live 0 r then begin
      remove_bit live 0 r;
      decr count
    end
  in
  let mem r = r >= 0 && r / Sys.int_size < t.words && mem_bit live 0 r in
  Ir.iter_term_uses add b.term;
  List.iter
    (fun instr ->
      k instr mem !count;
      Ir.iter_def remove instr;
      Ir.iter_uses add instr)
    (List.rev b.instrs)

let iter_live_after t b k = scan_back t b (fun instr live _ -> k instr live)

let max_live (f : Ir.func) t =
  let best = ref 0 in
  List.iter
    (fun b -> scan_back t b (fun _ _ count -> if count > !best then best := count))
    f.Ir.blocks;
  !best
