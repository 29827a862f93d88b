(* References for the IR analyses the library computes in one scan.

   [Liveness] sizes its bit vectors by a first scan of every register
   the blocks mention and builds use/def sets in a second, visiting
   operands through [Ir.iter_uses]/[Ir.iter_def]; [Verify] checks each
   instruction's registers through the same visitors before running
   that liveness.  Both are the library's implementations before it
   fused the scans, kept so the properties in test_ir.ml and
   test_passes.ml can hold the fused ones to the same answers and the
   same error messages. *)

open Vmht_ir

module Liveness = struct
  module Regset = Set.Make (Int)

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

  let add_bit bits base r =
    let w = base + (r / Sys.int_size) in
    bits.(w) <- bits.(w) lor (1 lsl (r mod Sys.int_size))

  let mem_bit bits base r =
    bits.(base + (r / Sys.int_size)) land (1 lsl (r mod Sys.int_size)) <> 0

  (* [use] = registers read before any write in the block; [def] =
     every register the block writes. *)
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
    let blocks = Array.of_list (List.rev f.Ir.blocks) in
    let n = Array.length blocks in
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

  let vector t bits label =
    Array.sub bits (lookup t.pos label * t.words) t.words

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
end

module Verify = struct
  exception Error of string

  let fail fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

  let reachable_labels (f : Ir.func) block_at =
    let seen = Array.make (Array.length block_at) false in
    let rec visit l =
      if not seen.(l) then begin
        seen.(l) <- true;
        match block_at.(l) with
        | Some (b : Ir.block) -> List.iter visit (Ir.successors b.term)
        | None -> ()
      end
    in
    visit (Ir.entry f).label;
    seen

  let out_of_range f r = r < 0 || r >= f.Ir.next_reg

  let instr_ctx f (b : Ir.block) instr =
    Printf.sprintf "%s: block L%d: %s" f.Ir.fname b.label
      (Ir.instr_to_string instr)

  let check_instr f (b : Ir.block) instr =
    Ir.iter_def
      (fun d ->
        if out_of_range f d then
          fail "%s: defined register r%d outside allocator range [0, %d)"
            (instr_ctx f b instr) d f.Ir.next_reg)
      instr;
    Ir.iter_uses
      (fun r ->
        if out_of_range f r then
          fail "%s: register r%d outside allocator range [0, %d)"
            (instr_ctx f b instr) r f.Ir.next_reg)
      instr

  let check_term f block_at (b : Ir.block) =
    let ctx () =
      Printf.sprintf "%s: block L%d: %s" f.Ir.fname b.label
        (Ir.term_to_string b.term)
    in
    Ir.iter_term_uses
      (fun r ->
        if out_of_range f r then
          fail "%s: register r%d outside allocator range [0, %d)" (ctx ()) r
            f.Ir.next_reg)
      b.term;
    List.iter
      (fun l ->
        if l < 0 || l >= f.Ir.next_label then
          fail "%s: target L%d outside allocator range [0, %d)" (ctx ()) l
            f.Ir.next_label;
        if Option.is_none block_at.(l) then
          fail "%s: target L%d has no block" (ctx ()) l)
      (Ir.successors b.term)

  let run (f : Ir.func) =
    if f.Ir.blocks = [] then fail "%s: function has no blocks" f.Ir.fname;
    let block_at = Array.make (max 0 f.Ir.next_label) None in
    List.iter
      (fun (b : Ir.block) ->
        let in_range = b.Ir.label >= 0 && b.Ir.label < f.Ir.next_label in
        if in_range && Option.is_some block_at.(b.Ir.label) then
          fail "%s: duplicate block label L%d" f.Ir.fname b.Ir.label;
        if not in_range then
          fail "%s: block label L%d outside allocator range [0, %d)"
            f.Ir.fname b.Ir.label f.Ir.next_label;
        block_at.(b.Ir.label) <- Some b)
      f.blocks;
    List.iter
      (fun (b : Ir.block) ->
        List.iter (check_instr f b) b.instrs;
        check_term f block_at b)
      f.blocks;
    let info = Liveness.compute f in
    let entry = Ir.entry f in
    (match
       Liveness.min_live_in info entry.Ir.label ~except:(fun r ->
           List.mem r f.Ir.arg_regs)
     with
     | Some r ->
       fail "%s: register r%d may be read before it is defined" f.Ir.fname r
     | None -> ());
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

  let check f =
    match run f with () -> Ok () | exception Error msg -> Error msg
end
