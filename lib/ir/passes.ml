module Ast = Vmht_lang.Ast
module Ast_interp = Vmht_lang.Ast_interp

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)
(* ------------------------------------------------------------------ *)

let fold_instr instr =
  match instr with
  | Ir.Bin (op, d, Ir.Imm a, Ir.Imm b) -> (
    match Ast_interp.eval_binop op a b with
    | v -> Some (Ir.Mov (d, Ir.Imm v))
    | exception Ast_interp.Eval_error _ -> None)
  | Ir.Un (op, d, Ir.Imm a) -> Some (Ir.Mov (d, Ir.Imm (Ast_interp.eval_unop op a)))
  (* Algebraic identities.  Only rewrites that are valid for all word
     values are applied. *)
  | Ir.Bin (Ast.Add, d, x, Ir.Imm 0) | Ir.Bin (Ast.Add, d, Ir.Imm 0, x) ->
    Some (Ir.Mov (d, x))
  | Ir.Bin (Ast.Sub, d, x, Ir.Imm 0) -> Some (Ir.Mov (d, x))
  | Ir.Bin (Ast.Mul, d, x, Ir.Imm 1) | Ir.Bin (Ast.Mul, d, Ir.Imm 1, x) ->
    Some (Ir.Mov (d, x))
  | Ir.Bin (Ast.Mul, d, _, Ir.Imm 0) | Ir.Bin (Ast.Mul, d, Ir.Imm 0, _) ->
    Some (Ir.Mov (d, Ir.Imm 0))
  | Ir.Bin (Ast.Mul, d, x, Ir.Imm n) when Vmht_util.Bits.is_pow2 n ->
    Some (Ir.Bin (Ast.Shl, d, x, Ir.Imm (Vmht_util.Bits.log2 n)))
  | Ir.Bin (Ast.Mul, d, Ir.Imm n, x) when Vmht_util.Bits.is_pow2 n ->
    Some (Ir.Bin (Ast.Shl, d, x, Ir.Imm (Vmht_util.Bits.log2 n)))
  | Ir.Bin (Ast.Div, d, x, Ir.Imm 1) -> Some (Ir.Mov (d, x))
  | Ir.Bin (Ast.And, d, _, Ir.Imm 0) | Ir.Bin (Ast.And, d, Ir.Imm 0, _) ->
    Some (Ir.Mov (d, Ir.Imm 0))
  | Ir.Bin (Ast.Or, d, x, Ir.Imm 0) | Ir.Bin (Ast.Or, d, Ir.Imm 0, x) ->
    Some (Ir.Mov (d, x))
  | Ir.Bin (Ast.Xor, d, x, Ir.Imm 0) | Ir.Bin (Ast.Xor, d, Ir.Imm 0, x) ->
    Some (Ir.Mov (d, x))
  | Ir.Bin ((Ast.Shl | Ast.Shr), d, x, Ir.Imm 0) -> Some (Ir.Mov (d, x))
  | Ir.Bin _ | Ir.Un _ | Ir.Mov _ | Ir.Load _ | Ir.Store _ -> None

let const_fold (f : Ir.func) =
  let changed = ref 0 in
  List.iter
    (fun (b : Ir.block) ->
      b.instrs <-
        List.map
          (fun i ->
            match fold_instr i with
            | Some i' when i' <> i ->
              incr changed;
              i'
            | Some _ | None -> i)
          b.instrs;
      match b.term with
      | Ir.Br (Ir.Imm c, l1, l2) ->
        incr changed;
        b.term <- Ir.Jmp (if c <> 0 then l1 else l2)
      | Ir.Br (_, l1, l2) when l1 = l2 ->
        incr changed;
        b.term <- Ir.Jmp l1
      | Ir.Br _ | Ir.Jmp _ | Ir.Ret _ -> ())
    f.blocks;
  !changed

(* ------------------------------------------------------------------ *)
(* Block-local copy/constant propagation                               *)
(* ------------------------------------------------------------------ *)

(* The block-local passes below keep a table of facts and, per
   register, a reverse index of the entries that mentioned it when they
   were recorded.  Redefining a register visits only its own index
   list: an entry removed or overwritten since stays listed, so each
   listed entry goes only if it is still in the table and still
   mentions the register — exactly the entries that mention it.

   Each application builds its tables once and clears them per block.
   They are keyed through [Hashtbl.Make] with hash and equality written
   out for registers, operands and [cse_key], so no key goes through the
   polymorphic hash or compare.  No pass iterates a table, so the hash
   decides no rewrite. *)

(* Immediates and keys are spread over the buckets; a register, dense
   and small, is its own hash. *)
let mix h =
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

module Reg_tbl = Hashtbl.Make (struct
  type t = Ir.reg

  let equal = Int.equal

  let hash r = r land max_int
end)

let operand_equal a b =
  match (a, b) with
  | Ir.Reg x, Ir.Reg y | Ir.Imm x, Ir.Imm y -> x = y
  | Ir.Reg _, Ir.Imm _ | Ir.Imm _, Ir.Reg _ -> false

let operand_hash = function
  | Ir.Reg r -> r land max_int
  | Ir.Imm n -> mix n

let mentions d = function Ir.Reg r -> r = d | Ir.Imm _ -> false

module Operand_tbl = Hashtbl.Make (struct
  type t = Ir.operand

  let equal = operand_equal

  let hash = operand_hash
end)

let push index r x =
  Reg_tbl.replace index r
    (x :: Option.value ~default:[] (Reg_tbl.find_opt index r))

let copy_prop (f : Ir.func) =
  let changed = ref 0 in
  let map : Ir.operand Reg_tbl.t = Reg_tbl.create 16 in
  (* [copies_of s]: the registers recorded as copies of [s].  A
     register whose mapping has changed since stays listed and is
     skipped when [s] is redefined. *)
  let copies_of : Ir.reg list Reg_tbl.t = Reg_tbl.create 16 in
  let subst op =
    match op with
    | Ir.Reg r -> (
      match Reg_tbl.find_opt map r with
      | Some replacement ->
        incr changed;
        replacement
      | None -> op)
    | Ir.Imm _ -> op
  in
  (* Drop any mapping that mentions a redefined register. *)
  let invalidate d =
    Reg_tbl.remove map d;
    match Reg_tbl.find_opt copies_of d with
    | None -> ()
    | Some copies ->
      Reg_tbl.remove copies_of d;
      List.iter
        (fun r ->
          match Reg_tbl.find_opt map r with
          | Some (Ir.Reg s) when s = d -> Reg_tbl.remove map r
          | Some _ | None -> ())
        copies
  in
  let record d src =
    Reg_tbl.replace map d src;
    match src with
    | Ir.Reg s -> push copies_of s d
    | Ir.Imm _ -> ()
  in
  List.iter
    (fun (b : Ir.block) ->
      Reg_tbl.clear map;
      Reg_tbl.clear copies_of;
      b.instrs <-
        List.map
          (fun instr ->
            let instr' =
              match instr with
              | Ir.Bin (op, d, a, c) -> Ir.Bin (op, d, subst a, subst c)
              | Ir.Un (op, d, a) -> Ir.Un (op, d, subst a)
              | Ir.Mov (d, a) -> Ir.Mov (d, subst a)
              | Ir.Load (d, a) -> Ir.Load (d, subst a)
              | Ir.Store (a, v) -> Ir.Store (subst a, subst v)
            in
            let d = Ir.def_reg instr' in
            if d >= 0 then invalidate d;
            (match instr' with
             | Ir.Mov (d, src) when not (mentions d src) -> record d src
             | Ir.Mov _ | Ir.Bin _ | Ir.Un _ | Ir.Load _ | Ir.Store _ -> ());
            instr')
          b.instrs;
      b.term <-
        (match b.term with
         | Ir.Br (c, l1, l2) -> Ir.Br (subst c, l1, l2)
         | Ir.Ret (Some v) -> Ir.Ret (Some (subst v))
         | (Ir.Ret None | Ir.Jmp _) as t -> t))
    f.blocks;
  !changed

(* ------------------------------------------------------------------ *)
(* Block-local common subexpression elimination                        *)
(* ------------------------------------------------------------------ *)

type cse_key =
  | Kbin of Ast.binop * Ir.operand * Ir.operand
  | Kun of Ast.unop * Ir.operand
  | Kload of Ir.operand

let commutative = function
  | Ast.Add | Ast.Mul | Ast.And | Ast.Or | Ast.Xor | Ast.Eq | Ast.Ne
  | Ast.Land | Ast.Lor ->
    true
  | Ast.Sub | Ast.Div | Ast.Rem | Ast.Shl | Ast.Shr | Ast.Lt | Ast.Le
  | Ast.Gt | Ast.Ge ->
    false

(* The order [compare] gives operands: every register before every
   immediate, each kind by value. *)
let operand_compare a b =
  match (a, b) with
  | Ir.Reg x, Ir.Reg y | Ir.Imm x, Ir.Imm y -> Int.compare x y
  | Ir.Reg _, Ir.Imm _ -> -1
  | Ir.Imm _, Ir.Reg _ -> 1

let canonical_key op a b =
  if commutative op && operand_compare b a < 0 then Kbin (op, b, a)
  else Kbin (op, a, b)

let key_mentions r = function
  | Kbin (_, a, b) -> mentions r a || mentions r b
  | Kun (_, a) | Kload a -> mentions r a

(* Operators are constant constructors, so [==] compares them; the
   hash leaves them out (one block rarely applies two operators to the
   same operands). *)
module Key_tbl = Hashtbl.Make (struct
  type t = cse_key

  let equal k k' =
    match (k, k') with
    | Kbin (op, a, b), Kbin (op', a', b') ->
      op == op' && operand_equal a a' && operand_equal b b'
    | Kun (op, a), Kun (op', a') -> op == op' && operand_equal a a'
    | Kload a, Kload a' -> operand_equal a a'
    | (Kbin _ | Kun _ | Kload _), _ -> false

  let hash = function
    | Kbin (_, a, b) -> mix ((3 * operand_hash a) + operand_hash b)
    | Kun (_, a) -> mix ((3 * operand_hash a) + 1)
    | Kload a -> mix ((3 * operand_hash a) + 2)
end)

let cse (f : Ir.func) =
  let changed = ref 0 in
  let table : Ir.reg Key_tbl.t = Key_tbl.create 16 in
  (* [keys_of r]: the keys recorded with value [r] or mentioning [r];
     [loads]: the load keys recorded since the last store. *)
  let keys_of : cse_key list Reg_tbl.t = Reg_tbl.create 16 in
  let loads = ref [] in
  let record k d =
    Key_tbl.replace table k d;
    push keys_of d k;
    let mention = function
      | Ir.Reg r when r <> d -> push keys_of r k
      | Ir.Reg _ | Ir.Imm _ -> ()
    in
    match k with
    | Kbin (_, a, c) ->
      mention a;
      if not (operand_equal c a) then mention c
    | Kun (_, a) -> mention a
    | Kload a ->
      mention a;
      loads := k :: !loads
  in
  let invalidate_reg d =
    match Reg_tbl.find_opt keys_of d with
    | None -> ()
    | Some keys ->
      Reg_tbl.remove keys_of d;
      List.iter
        (fun k ->
          match Key_tbl.find_opt table k with
          | Some v when v = d || key_mentions d k -> Key_tbl.remove table k
          | Some _ | None -> ())
        keys
  in
  let invalidate_loads () =
    List.iter (Key_tbl.remove table) !loads;
    loads := []
  in
  List.iter
    (fun (b : Ir.block) ->
      Key_tbl.clear table;
      Reg_tbl.clear keys_of;
      loads := [];
      b.instrs <-
        List.map
          (fun instr ->
            let key =
              match instr with
              | Ir.Bin (op, _, a, c) -> Some (canonical_key op a c)
              | Ir.Un (op, _, a) -> Some (Kun (op, a))
              | Ir.Load (_, a) -> Some (Kload a)
              | Ir.Mov _ | Ir.Store _ -> None
            in
            (* Every keyed instruction defines a register. *)
            let d = Ir.def_reg instr in
            let instr' =
              match key with
              | Some k -> (
                match Key_tbl.find_opt table k with
                | Some prior ->
                  incr changed;
                  Ir.Mov (d, Ir.Reg prior)
                | None -> instr)
              | None -> instr
            in
            if d >= 0 then invalidate_reg d;
            (match (instr', key) with
             | Ir.Mov _, _ -> ()
             (* An instruction like [r = r + 1] must not be recorded:
                its key refers to the pre-redefinition value of [r]. *)
             | _, Some k -> if not (key_mentions d k) then record k d
             | _, None -> ());
            (match instr' with
             | Ir.Store _ -> invalidate_loads ()
             | Ir.Bin _ | Ir.Un _ | Ir.Mov _ | Ir.Load _ -> ());
            instr')
          b.instrs)
    f.blocks;
  !changed

(* ------------------------------------------------------------------ *)
(* Dead code elimination                                               *)
(* ------------------------------------------------------------------ *)

let dce_once (f : Ir.func) =
  let info = Liveness.compute f in
  let removed = ref 0 in
  List.iter
    (fun (b : Ir.block) ->
      (* Backward, so consing onto [keep] restores program order. *)
      let keep = ref [] in
      Liveness.iter_live_after info b (fun instr live ->
          (* A pure instruction always defines a register. *)
          let dead = Ir.is_pure instr && not (live (Ir.def_reg instr)) in
          if dead then incr removed else keep := instr :: !keep);
      b.instrs <- !keep)
    f.blocks;
  !removed

let dce (f : Ir.func) =
  let total = ref 0 in
  let rec go () =
    let n = dce_once f in
    total := !total + n;
    if n > 0 then go ()
  in
  go ();
  !total

(* ------------------------------------------------------------------ *)
(* CFG simplification                                                  *)
(* ------------------------------------------------------------------ *)

let reachable (f : Ir.func) =
  let index = Ir.block_index f in
  let seen = Hashtbl.create 16 in
  let rec visit l =
    if not (Hashtbl.mem seen l) then begin
      Hashtbl.replace seen l ();
      List.iter visit (Ir.successors (Hashtbl.find index l).term)
    end
  in
  visit (Ir.entry f).label;
  seen

let remove_unreachable (f : Ir.func) =
  let seen = reachable f in
  let before = List.length f.blocks in
  f.blocks <- List.filter (fun b -> Hashtbl.mem seen b.Ir.label) f.blocks;
  before - List.length f.blocks

(* Redirect edges through empty forwarding blocks (no instructions,
   unconditional jump). *)
let thread_jumps (f : Ir.func) =
  let forward = Hashtbl.create 8 in
  List.iter
    (fun (b : Ir.block) ->
      match (b.instrs, b.term) with
      | [], Ir.Jmp target when target <> b.label ->
        Hashtbl.replace forward b.label target
      | _, (Ir.Jmp _ | Ir.Br _ | Ir.Ret _) -> ())
    f.blocks;
  (* Resolve chains, guarding against forwarding cycles: a walk stops
     at the first block whose target it has already visited.  So a
     block on a cycle resolves to its predecessor on the cycle, and a
     block leading into a cycle to the predecessor of the block where
     its walk enters it.  Either way every block a walk passes
     resolves like the first block it reaches whose answer is known,
     and each walk memoizes the answer of every block it passed. *)
  let resolved = Hashtbl.create 8 in
  let settle path r = List.iter (fun p -> Hashtbl.replace resolved p r) path in
  let walk_from start =
    (* [path]: the blocks walked before [l], latest first; [pos]: their
       indices on the walk. *)
    let pos = Hashtbl.create 8 in
    let rec walk path i l =
      match Hashtbl.find_opt resolved l with
      | Some r ->
        settle path r;
        r
      | None -> (
        match Hashtbl.find_opt forward l with
        | None ->
          settle (l :: path) l;
          l
        | Some next -> (
          match Hashtbl.find_opt pos next with
          | Some j ->
            let walked = Array.of_list (List.rev (l :: path)) in
            Array.iteri
              (fun m p ->
                Hashtbl.replace resolved p (if m <= j then l else walked.(m - 1)))
              walked;
            l
          | None ->
            Hashtbl.replace pos l i;
            walk (l :: path) (i + 1) next))
    in
    walk [] 0 start
  in
  let resolve l =
    match Hashtbl.find_opt resolved l with
    | Some r -> r
    | None -> walk_from l
  in
  let changed = ref 0 in
  let redirect l =
    let l' = resolve l in
    if l' <> l then incr changed;
    l'
  in
  List.iter
    (fun (b : Ir.block) ->
      b.term <-
        (match b.term with
         | Ir.Jmp l -> Ir.Jmp (redirect l)
         | Ir.Br (c, l1, l2) -> Ir.Br (c, redirect l1, redirect l2)
         | Ir.Ret _ as t -> t))
    f.blocks;
  !changed

(* Merge [a -> b] when a ends in [Jmp b] and b's only predecessor is a.
   A merge hands b's out-edges to a, so no remaining block's
   predecessor count changes, no block before a becomes mergeable, and
   a stops being mergeable for good once it fails.  One sweep in block
   order, absorbing chains into each block while it qualifies, thus
   merges in the order a rescan for the first candidate after every
   merge would. *)
let merge_chains (f : Ir.func) =
  let index = Ir.block_index f in
  let pred_count = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun s ->
          Hashtbl.replace pred_count s
            (1 + Option.value ~default:0 (Hashtbl.find_opt pred_count s)))
        (Ir.successors b.term))
    f.blocks;
  let entry_label = (Ir.entry f).Ir.label in
  let merged = Hashtbl.create 8 in
  (* [tails]: the absorbed blocks' instructions, latest first. *)
  let rec absorb (a : Ir.block) tails =
    match a.term with
    | Ir.Jmp target
      when target <> entry_label && target <> a.label
           && Hashtbl.find_opt pred_count target = Some 1 ->
      let b = Hashtbl.find index target in
      a.term <- b.term;
      Hashtbl.replace merged target ();
      absorb a (b.instrs :: tails)
    | Ir.Jmp _ | Ir.Br _ | Ir.Ret _ -> tails
  in
  List.iter
    (fun (a : Ir.block) ->
      if not (Hashtbl.mem merged a.label) then
        match absorb a [] with
        | [] -> ()
        | tails -> a.instrs <- List.concat (a.instrs :: List.rev tails))
    f.blocks;
  let changed = Hashtbl.length merged in
  if changed > 0 then
    f.blocks <- List.filter (fun b -> not (Hashtbl.mem merged b.Ir.label)) f.blocks;
  changed

let simplify_cfg (f : Ir.func) =
  let c1 = thread_jumps f in
  let c2 = remove_unreachable f in
  let c3 = merge_chains f in
  c1 + c2 + c3


(* ------------------------------------------------------------------ *)
(* Store-to-load forwarding                                            *)
(* ------------------------------------------------------------------ *)

(* Block-local: remember, per address operand, the last value known to
   be in memory at that address (from a store, or from a prior load).
   A later load from the same operand becomes a [Mov].  Any store
   clobbers the whole table first — two syntactically different address
   operands may alias — and any redefinition drops entries that mention
   the redefined register on either side. *)
let store_forward (f : Ir.func) =
  let changed = ref 0 in
  let table : Ir.operand Operand_tbl.t = Operand_tbl.create 16 in
  (* [addrs_of r]: the addresses whose entry mentioned [r] on either
     side when recorded. *)
  let addrs_of : Ir.operand list Reg_tbl.t = Reg_tbl.create 16 in
  let record a v =
    Operand_tbl.replace table a v;
    (match a with Ir.Reg r -> push addrs_of r a | Ir.Imm _ -> ());
    match v with
    | Ir.Reg r when not (mentions r a) -> push addrs_of r a
    | Ir.Reg _ | Ir.Imm _ -> ()
  in
  let invalidate d =
    match Reg_tbl.find_opt addrs_of d with
    | None -> ()
    | Some addrs ->
      Reg_tbl.remove addrs_of d;
      List.iter
        (fun a ->
          match Operand_tbl.find_opt table a with
          | Some v when mentions d a || mentions d v ->
            Operand_tbl.remove table a
          | Some _ | None -> ())
        addrs
  in
  List.iter
    (fun (b : Ir.block) ->
      Operand_tbl.clear table;
      Reg_tbl.clear addrs_of;
      b.instrs <-
        List.map
          (fun instr ->
            let instr' =
              match instr with
              | Ir.Load (d, a) -> (
                match Operand_tbl.find_opt table a with
                | Some v when not (mentions d v) ->
                  incr changed;
                  Ir.Mov (d, v)
                | Some _ | None -> instr)
              | Ir.Bin _ | Ir.Un _ | Ir.Mov _ | Ir.Store _ -> instr
            in
            let d = Ir.def_reg instr' in
            if d >= 0 then invalidate d;
            (match instr' with
             | Ir.Store (a, v) ->
               Operand_tbl.clear table;
               Reg_tbl.clear addrs_of;
               record a v
             | Ir.Load (d, a) -> record a (Ir.Reg d)
             | Ir.Bin _ | Ir.Un _ | Ir.Mov _ -> ());
            instr')
          b.instrs)
    f.blocks;
  !changed

(* ------------------------------------------------------------------ *)
(* Strength reduction / addressing-mode simplification                 *)
(* ------------------------------------------------------------------ *)

(* Collapse add/subtract-immediate chains so pointer-increment address
   arithmetic reads straight off the base pointer: with [s = base + k]
   known, [d = s + n] becomes [d = base + (k+n)].  Entries resolve to
   the chain root when recorded, so every rewrite jumps directly to the
   root and the pass converges in one application per chain. *)
let fold_offsets (f : Ir.func) =
  let changed = ref 0 in
  (* reg -> (base operand, constant offset) with reg = base + offset *)
  let table : (Ir.operand * int) Reg_tbl.t = Reg_tbl.create 16 in
  (* [offsets_of b]: the registers recorded as offsets from [b]. *)
  let offsets_of : Ir.reg list Reg_tbl.t = Reg_tbl.create 16 in
  let record d ((base, _) as entry) =
    Reg_tbl.replace table d entry;
    match base with
    | Ir.Reg b -> push offsets_of b d
    | Ir.Imm _ -> ()
  in
  let invalidate d =
    Reg_tbl.remove table d;
    match Reg_tbl.find_opt offsets_of d with
    | None -> ()
    | Some regs ->
      Reg_tbl.remove offsets_of d;
      List.iter
        (fun r ->
          match Reg_tbl.find_opt table r with
          | Some (Ir.Reg b, _) when b = d -> Reg_tbl.remove table r
          | Some _ | None -> ())
        regs
  in
  let base_offset = function
    | Ir.Reg s -> (
      match Reg_tbl.find_opt table s with
      | Some entry -> Some entry
      | None -> Some (Ir.Reg s, 0))
    | Ir.Imm _ -> None
  in
  List.iter
    (fun (b : Ir.block) ->
      Reg_tbl.clear table;
      Reg_tbl.clear offsets_of;
      b.instrs <-
        List.map
          (fun instr ->
            let instr' =
              match instr with
              | Ir.Bin (Vmht_lang.Ast.Add, d, Ir.Reg s, Ir.Imm n)
              | Ir.Bin (Vmht_lang.Ast.Add, d, Ir.Imm n, Ir.Reg s) -> (
                match Reg_tbl.find_opt table s with
                | Some (base, k) ->
                  incr changed;
                  Ir.Bin (Vmht_lang.Ast.Add, d, base, Ir.Imm (k + n))
                | None -> instr)
              | Ir.Bin (Vmht_lang.Ast.Sub, d, Ir.Reg s, Ir.Imm n) -> (
                match Reg_tbl.find_opt table s with
                | Some (base, k) ->
                  incr changed;
                  Ir.Bin (Vmht_lang.Ast.Sub, d, base, Ir.Imm (n - k))
                | None -> instr)
              | Ir.Bin _ | Ir.Un _ | Ir.Mov _ | Ir.Load _ | Ir.Store _ ->
                instr
            in
            let d = Ir.def_reg instr' in
            if d >= 0 then invalidate d;
            (match instr' with
             | Ir.Bin (Vmht_lang.Ast.Add, d, a, Ir.Imm n)
             | Ir.Bin (Vmht_lang.Ast.Add, d, Ir.Imm n, a) -> (
               match base_offset a with
               (* [d = d + n] must not be recorded: the base refers to
                  the pre-redefinition value of [d]. *)
               | Some (base, k) when not (mentions d base) ->
                 record d (base, k + n)
               | Some _ | None -> ())
             | Ir.Bin (Vmht_lang.Ast.Sub, d, a, Ir.Imm n) -> (
               match base_offset a with
               | Some (base, k) when not (mentions d base) ->
                 record d (base, k - n)
               | Some _ | None -> ())
             | Ir.Bin _ | Ir.Un _ | Ir.Mov _ | Ir.Load _ | Ir.Store _ -> ());
            instr')
          b.instrs)
    f.blocks;
  !changed

(* Multiplications by [2^k +- 1] become a shift plus an add/sub; the
   power-of-two case is already handled by {!const_fold}. *)
let shift_add_constant n =
  if n < 3 then None
  else
    let k = Vmht_util.Bits.log2 n in
    if n = (1 lsl k) + 1 then Some (k, Ast.Add)
    else if k + 1 <= 62 && n = (1 lsl (k + 1)) - 1 then Some (k + 1, Ast.Sub)
    else None

let reduce_muls (f : Ir.func) =
  let changed = ref 0 in
  List.iter
    (fun (b : Ir.block) ->
      b.instrs <-
        List.concat_map
          (fun instr ->
            match instr with
            | Ir.Bin (Ast.Mul, d, x, Ir.Imm n)
            | Ir.Bin (Ast.Mul, d, Ir.Imm n, x) -> (
              match shift_add_constant n with
              | Some (k, op) ->
                incr changed;
                let t = Ir.fresh_reg f in
                [
                  Ir.Bin (Ast.Shl, t, x, Ir.Imm k);
                  Ir.Bin (op, d, Ir.Reg t, x);
                ]
              | None -> [ instr ])
            | Ir.Bin _ | Ir.Un _ | Ir.Mov _ | Ir.Load _ | Ir.Store _ ->
              [ instr ])
          b.instrs)
    f.blocks;
  !changed

let strength_reduce (f : Ir.func) = fold_offsets f + reduce_muls f

(* ------------------------------------------------------------------ *)
(* Copy coalescing                                                     *)
(* ------------------------------------------------------------------ *)

(* Rewrite [t = op ...; d = t] (adjacent, t dead afterwards) so the
   operation defines [d] directly.  Loop bodies lower every mutable
   variable through such a temporary ([s = s + x] becomes [t = s + x;
   s = t]), so each coalesced pair removes one datapath operation per
   iteration — on a latency-bound pointer chase, the only fat there
   is. *)
let with_def instr d =
  match instr with
  | Ir.Bin (op, _, a, c) -> Ir.Bin (op, d, a, c)
  | Ir.Un (op, _, a) -> Ir.Un (op, d, a)
  | Ir.Mov (_, a) -> Ir.Mov (d, a)
  | Ir.Load (_, a) -> Ir.Load (d, a)
  | Ir.Store _ -> invalid_arg "with_def: Store defines nothing"

let coalesce (f : Ir.func) =
  let changed = ref 0 in
  let info = Liveness.compute f in
  List.iter
    (fun (b : Ir.block) ->
      (* Cross-block liveness of [b] is unaffected by the rewrites (the
         pair defines [d] in [b] either way and [t] never escapes), so
         [live_out] stays valid while the block mutates. *)
      let used_after rest t =
        let read = ref false in
        let see r = if r = t then read := true in
        List.iter (fun i -> if not !read then Ir.iter_uses see i) rest;
        Ir.iter_term_uses see b.term;
        !read || Liveness.mem_live_out info b.Ir.label t
      in
      let rec rewrite = function
        | instr :: Ir.Mov (d, Ir.Reg t) :: rest
          when Ir.is_pure instr
               && Ir.def_reg instr = t
               && t <> d
               && not (used_after rest t)
          ->
          incr changed;
          rewrite (with_def instr d :: rest)
        | instr :: rest -> instr :: rewrite rest
        | [] -> []
      in
      b.instrs <- rewrite b.instrs)
    f.blocks;
  !changed

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let licm = Licm.run

let registered = ref false

let register_builtins () =
  if not !registered then begin
    registered := true;
    List.iter Pass.register
      [
        {
          Pass.name = "const_fold";
          doc =
            "fold constant operations, algebraic identities, and \
             constant branches";
          kind = Pass.Scalar;
          run = const_fold;
        };
        {
          Pass.name = "copy_prop";
          doc = "propagate Mov sources into later uses (block-local)";
          kind = Pass.Scalar;
          run = copy_prop;
        };
        {
          Pass.name = "cse";
          doc =
            "share repeated pure computations and repeated loads \
             (block-local value numbering)";
          kind = Pass.Scalar;
          run = cse;
        };
        {
          Pass.name = "store_forward";
          doc =
            "forward stored values to later loads from the same \
             address, skipping the memory port";
          kind = Pass.Memory;
          run = store_forward;
        };
        {
          Pass.name = "strength_reduce";
          doc =
            "collapse add-immediate address chains; multiply by 2^k+-1 \
             via shift and add/sub";
          kind = Pass.Memory;
          run = strength_reduce;
        };
        {
          Pass.name = "licm";
          doc = "hoist loop-invariant computations into a preheader";
          kind = Pass.Loop;
          run = licm;
        };
        {
          Pass.name = "coalesce";
          doc =
            "fold [t = op; d = t] pairs so the operation writes its destination directly";
          kind = Pass.Cleanup;
          run = coalesce;
        };
        {
          Pass.name = "dce";
          doc = "delete pure instructions whose results are never used";
          kind = Pass.Cleanup;
          run = dce;
        };
        {
          Pass.name = "simplify_cfg";
          doc =
            "thread trivial jumps, drop unreachable blocks, merge \
             single-predecessor chains";
          kind = Pass.Cfg;
          run = simplify_cfg;
        };
      ]
  end
