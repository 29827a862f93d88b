module Engine = Vmht_sim.Engine
module Accel = Vmht_hls.Accel
module I = Vmht_lang.Ast_interp

exception Rtl_error of string

exception Edge_budget of int

let fail fmt = Printf.ksprintf (fun s -> raise (Rtl_error s)) fmt

type outcome = {
  result : int option;  (** [result] output at [done]; [None] when X *)
  requests : int;  (** channel requests the adapter accepted *)
  edges : int;  (** clock edges evaluated *)
}

(* -------------------------- per-run state -------------------------- *)

(* Four-state reduced to two: a wire/reg either holds a known word or
   X.  X flows silently through datapath arithmetic (as in hardware)
   and becomes a hard error the moment it reaches something that
   steers the machine — the state register, a branch condition, or a
   sampled request line.  That discipline is what makes the emitter's
   missing-reset bug observable on every kernel instead of "works in
   the simulator".

   Every signal is an integer slot fixed at compile time.  A slot's
   word lives in [v] and its X-ness in [known]; an expression returns
   an unboxed word and sets [x] when an X operand reached it, so the
   word of an X result is meaningless and never observed.  A body in
   which no statement reads what an earlier one assigns commits each
   assignment straight into its slot; any other body buffers its edge's
   assignments in the commit arrays, applied in statement order
   (nonblocking, last write wins).  All of it is allocated per run; the
   compiled program only holds closures and arrays of slot numbers. *)
type st = {
  v : int array;
  known : bool array;
  mutable x : bool;  (** an X reached the expression being evaluated *)
  mutable sgn : bool;  (** signedness of the last {!Dynamic} result *)
  cslot : int array;
  cval : int array;
  cknown : bool array;
  mutable ncommit : int;
}

type code = st -> int

(* Verilog signedness is static except for a ternary whose arms differ,
   which takes the signedness of the arm it selects: such an expression
   records it in [st.sgn] for the operator consuming it. *)
type sign = Static of bool | Dynamic

(* ------------------------- expressions ----------------------------- *)

let bool_int b = if b then 1 else 0

let u64 = Int64.of_int

let ucmp a b = Int64.unsigned_compare (u64 a) (u64 b)

let lsr64 a b = Int64.to_int (Int64.shift_right_logical (u64 a) (b land 63))

(* Operator semantics over the project's word model (OCaml 63-bit
   ints, shift counts masked to 6 bits): the signed variants are
   exactly {!Vmht_lang.Ast_interp.eval_binop}'s — including raising
   [Eval_error] on division by zero, so both backends fail the same
   way — and the unsigned variants are the Int64 logical ones.  The
   emitter casts Div/Rem/Shr operands with [$signed], which is how the
   reference (signed) semantics are selected here; an uncast [>>>] is
   a *logical* shift, which is the Shr bug this evaluator pins. *)
let binop_fn op signed : int -> int -> int =
  match op with
  | "+" -> ( + )
  | "-" -> ( - )
  | "*" -> ( * )
  | "/" ->
    if signed then I.eval_binop Vmht_lang.Ast.Div
    else fun a b ->
      if b = 0 then raise (I.Eval_error "division by zero");
      Int64.to_int (Int64.unsigned_div (u64 a) (u64 b))
  | "%" ->
    if signed then I.eval_binop Vmht_lang.Ast.Rem
    else fun a b ->
      if b = 0 then raise (I.Eval_error "remainder by zero");
      Int64.to_int (Int64.unsigned_rem (u64 a) (u64 b))
  | "&" -> ( land )
  | "|" -> ( lor )
  | "^" -> ( lxor )
  | "<<" -> fun a b -> a lsl (b land 63)
  | ">>" -> lsr64
  | ">>>" -> if signed then fun a b -> a asr (b land 63) else lsr64
  | "<" ->
    if signed then fun (a : int) b -> bool_int (a < b)
    else fun a b -> bool_int (ucmp a b < 0)
  | "<=" ->
    if signed then fun (a : int) b -> bool_int (a <= b)
    else fun a b -> bool_int (ucmp a b <= 0)
  | ">" ->
    if signed then fun (a : int) b -> bool_int (a > b)
    else fun a b -> bool_int (ucmp a b > 0)
  | ">=" ->
    if signed then fun (a : int) b -> bool_int (a >= b)
    else fun a b -> bool_int (ucmp a b >= 0)
  | "==" -> fun (a : int) b -> bool_int (a = b)
  | "!=" -> fun (a : int) b -> bool_int (a <> b)
  | "&&" -> fun a b -> bool_int (a <> 0 && b <> 0)
  | "||" -> fun a b -> bool_int (a <> 0 || b <> 0)
  | _ -> fail "unknown binary operator %S" op

let sign_and a b =
  match (a, b) with
  | Static false, _ | _, Static false -> Static false
  | Static true, s | s, Static true -> s
  | Dynamic, Dynamic -> Dynamic

let sign_reader = function
  | Static b -> fun _ -> b
  | Dynamic -> fun st -> st.sgn

(* An operand that needs no code of its own: a slot, or a literal or
   localparam folded to its constant. *)
type leaf = Slot of int | Const of int

let read = function
  | Slot i ->
    fun st ->
      if not st.known.(i) then st.x <- true;
      st.v.(i)
  | Const v -> fun _ -> v

let leaf var = function
  | Ast.Lit l -> Some (Const l.Ast.value)
  | Ast.Var n -> Some (var n)
  | _ -> None

(* Compile to (code, signedness).  Verilog's rules for the subset:
   regs and plain literals are unsigned, ['sd] literals and [$signed]
   casts are signed, an operation is signed only when *both* operands
   are (shifts: only the left operand counts), comparisons yield
   unsigned bits.  [var] resolves an identifier once, here.  Operands
   are always evaluated left to right and in full, so an error inside
   either side surfaces exactly where the tree-walking reading would
   raise it. *)
let rec compile_expr var e : code * sign =
  match e with
  | Ast.Lit l -> (read (Const l.Ast.value), Static l.Ast.signed)
  | Ast.Var n -> (read (var n), Static false)
  | Ast.Signed e -> (fst (compile_expr var e), Static true)
  | Ast.Concat [ Ast.Lit { Ast.value = 0; _ }; e ] ->
    (* The emitter only writes zero-extensions: {63'b0, one-bit-e}. *)
    (fst (compile_expr var e), Static false)
  | Ast.Concat _ -> fail "unsupported concatenation shape"
  | Ast.Unop (op, e) -> (
    let c, s = compile_expr var e in
    match op with
    | "-" -> ((fun st -> -c st), s)
    | "~" -> ((fun st -> lnot (c st)), s)
    | "!" -> ((fun st -> bool_int (c st = 0)), Static false)
    | _ -> fail "unknown unary operator %S" op)
  | Ast.Binop (op, l, r) -> compile_binop var op l r
  | Ast.Ternary (c, t, f) ->
    let cc, _ = compile_expr var c in
    let ct, s_t = compile_expr var t in
    let cf, s_f = compile_expr var f in
    let sign = if s_t = s_f then s_t else Dynamic in
    let arm code s =
      match (sign, s) with
      | Dynamic, Static b ->
        fun st ->
          let v = code st in
          st.sgn <- b;
          v
      | _ -> code
    in
    let ct = arm ct s_t and cf = arm cf s_f in
    ( (fun st ->
        let outer = st.x in
        st.x <- false;
        let cv = cc st in
        if st.x then fail "X in a ternary select (uninitialized control)";
        st.x <- outer;
        if cv <> 0 then ct st else cf st),
      sign )

and compile_binop var op l r =
  let cl, sl = compile_expr var l in
  let cr, sr = compile_expr var r in
  let shift = match op with "<<" | ">>" | ">>>" -> true | _ -> false in
  let flag =
    match op with
    | "<" | "<=" | ">" | ">=" | "==" | "!=" | "&&" | "||" -> true
    | _ -> false
  in
  let signed = if shift then sl else sign_and sl sr in
  let result_sign = if flag then Static false else signed in
  match signed with
  | Static s -> (
    let f = binop_fn op s in
    (* The commonest datapath shapes read their slots inline: [+] of
       two registers or of a register and a constant, and [<<] by a
       constant (neither depends on signedness). *)
    match (op, leaf var l, leaf var r) with
    | "+", Some (Slot a), Some (Slot b) ->
      ( (fun st ->
          if not (st.known.(a) && st.known.(b)) then st.x <- true;
          st.v.(a) + st.v.(b)),
        result_sign )
    | "+", Some (Slot a), Some (Const k) | "+", Some (Const k), Some (Slot a)
      ->
      ( (fun st ->
          if not st.known.(a) then st.x <- true;
          st.v.(a) + k),
        result_sign )
    | "<<", Some (Slot a), Some (Const k) ->
      let k = k land 63 in
      ( (fun st ->
          if not st.known.(a) then st.x <- true;
          st.v.(a) lsl k),
        result_sign )
    | ("/" | "%"), _, _ ->
      (* A division only runs on two known operands: X / 0 is X, not
         an error, but [a / 0] traps even beside an X elsewhere. *)
      ( (fun st ->
          let outer = st.x in
          st.x <- false;
          let a = cl st in
          let b = cr st in
          if st.x then 0
          else begin
            st.x <- outer;
            f a b
          end),
        result_sign )
    | _ ->
      ( (fun st ->
          let a = cl st in
          let b = cr st in
          f a b),
        result_sign ))
  | Dynamic ->
    let fs = binop_fn op true and fu = binop_fn op false in
    let rl = sign_reader sl and rr = sign_reader sr in
    ( (fun st ->
        let outer = st.x in
        st.x <- false;
        let a = cl st in
        let sa = rl st in
        let b = cr st in
        let sb = rr st in
        let signed = if shift then sa else sa && sb in
        if not flag then st.sgn <- signed;
        if st.x then 0
        else begin
          st.x <- outer;
          (if signed then fs else fu) a b
        end),
      result_sign )

(* --------------------------- statements ---------------------------- *)

let[@inline] buffer st slot v known =
  let i = st.ncommit in
  st.cslot.(i) <- slot;
  st.cval.(i) <- v;
  st.cknown.(i) <- known;
  st.ncommit <- i + 1

let rec reads acc = function
  | Ast.Lit _ -> acc
  | Ast.Var n -> n :: acc
  | Ast.Signed e | Ast.Unop (_, e) -> reads acc e
  | Ast.Concat es -> List.fold_left reads acc es
  | Ast.Binop (_, l, r) -> reads (reads acc l) r
  | Ast.Ternary (c, t, f) -> reads (reads (reads acc c) t) f

(* The names a statement reads or assigns, [if] bodies included. *)
let rec touches acc = function
  | Ast.Assign (n, e) -> reads (n :: acc) e
  | Ast.If (c, body) -> List.fold_left touches (reads acc c) body

(* The leaf shapes of an assignment's right-hand side: a constant, a
   register, [+] of two registers or of a register and a constant, and
   [<<] by a constant (neither operator depends on signedness).  Only
   syntactic leaves are resolved, left operand first, so an unknown
   identifier fails as {!compile_expr} would fail on it. *)
type leaf_stmt =
  | Set of int
  | Copy of int
  | Add of int * int
  | Add_k of int * int
  | Shl_k of int * int

let leaf_stmt var = function
  | (Ast.Lit _ | Ast.Var _) as e -> (
    match leaf var e with
    | Some (Const k) -> Some (Set k)
    | Some (Slot i) -> Some (Copy i)
    | None -> None)
  | Ast.Binop
      ( (("+" | "<<") as op),
        ((Ast.Lit _ | Ast.Var _) as l),
        ((Ast.Lit _ | Ast.Var _) as r) ) -> (
    match (op, leaf var l, leaf var r) with
    | "+", Some (Slot a), Some (Slot b) -> Some (Add (a, b))
    | "+", Some (Slot a), Some (Const k) | "+", Some (Const k), Some (Slot a) ->
      Some (Add_k (a, k))
    | "<<", Some (Slot a), Some (Const k) -> Some (Shl_k (a, k land 63))
    | _ -> None)
  | _ -> None

(* A body's grouped leaf assignments as parallel arrays, ordered by
   shape: the [i]th writes slot [dst.(i)] from [a.(i)] and [b.(i)],
   which hold slots or constants as the shape reads them.  Sets run
   from 0, and each other shape from the index its field names. *)
type groups = {
  dst : int array;
  a : int array;  (** a [Set]'s constant, or the (first) source slot *)
  b : int array;  (** an [Add]'s second slot, or an [Add_k]/[Shl_k] constant *)
  copies : int;
  adds : int;
  add_ks : int;
  shifts : int;
}

let groups_of leaves =
  let rank = function
    | Set _ -> 0
    | Copy _ -> 1
    | Add _ -> 2
    | Add_k _ -> 3
    | Shl_k _ -> 4
  in
  let leaves =
    List.stable_sort (fun (_, x) (_, y) -> compare (rank x) (rank y)) leaves
  in
  let column f = Array.of_list (List.map f leaves) in
  let start r = List.length (List.filter (fun (_, l) -> rank l < r) leaves) in
  {
    dst = column fst;
    a =
      column (function
        | _, Set k -> k
        | _, (Copy s | Add (s, _) | Add_k (s, _) | Shl_k (s, _)) -> s);
    b =
      column (function
        | _, (Add (_, x) | Add_k (_, x) | Shl_k (_, x)) -> x
        | _, (Set _ | Copy _) -> 0);
    copies = start 1;
    adds = start 2;
    add_ks = start 3;
    shifts = start 4;
  }

(* Each loop writes its targets' words and X bits as the statements
   would in place. *)
let run_groups g st =
  let v = st.v and known = st.known and dst = g.dst and a = g.a and b = g.b in
  for i = 0 to g.copies - 1 do
    let d = dst.(i) in
    v.(d) <- a.(i);
    known.(d) <- true
  done;
  for i = g.copies to g.adds - 1 do
    let d = dst.(i) and s = a.(i) in
    v.(d) <- v.(s);
    known.(d) <- known.(s)
  done;
  for i = g.adds to g.add_ks - 1 do
    let d = dst.(i) and s = a.(i) and t = b.(i) in
    v.(d) <- v.(s) + v.(t);
    known.(d) <- known.(s) && known.(t)
  done;
  for i = g.add_ks to g.shifts - 1 do
    let d = dst.(i) and s = a.(i) in
    v.(d) <- v.(s) + b.(i);
    known.(d) <- known.(s)
  done;
  for i = g.shifts to Array.length dst - 1 do
    let d = dst.(i) and s = a.(i) in
    v.(d) <- v.(s) lsl b.(i);
    known.(d) <- known.(s)
  done

let seq = function
  | [||] -> fun _ -> ()
  | [| s |] -> s
  | codes ->
    fun st ->
      for i = 0 to Array.length codes - 1 do
        codes.(i) st
      done

(* [in_place] bodies write each slot as they assign it; the others
   buffer the write for [run] to apply at the end of the edge.  An
   in-place body runs its leaf assignments first, as groups, and then
   its other statements, in order, as closures.  A leaf assignment
   joins the groups when no earlier statement of the body (an [if]
   condition or body included) reads or assigns its target: the body
   reads only entry values (see {!in_place}), so no statement reads the
   target at all and every later write to it still runs after it.  The
   slots, X bits and errors of an edge are the statement-order ones. *)
let rec compile_stmts var target ~in_place stmts : st -> unit =
  if not in_place then
    seq (Array.of_list (List.map (compile_stmt var target ~in_place) stmts))
  else
    let leaves, rest, _ =
      List.fold_left
        (fun (leaves, rest, touched) s ->
          let as_closure () = compile_stmt var target ~in_place s :: rest in
          let leaves, rest =
            match s with
            | Ast.Assign (n, e) -> (
              let slot = target n in
              match if List.mem n touched then None else leaf_stmt var e with
              | Some l -> ((slot, l) :: leaves, rest)
              | None -> (leaves, as_closure ()))
            | Ast.If _ -> (leaves, as_closure ())
          in
          (leaves, rest, touches touched s))
        ([], [], []) stmts
    in
    let codes = Array.of_list (List.rev rest) in
    match leaves with
    | [] -> seq codes
    | _ -> (
      let g = groups_of (List.rev leaves) in
      match codes with
      | [||] -> fun st -> run_groups g st
      | [| s |] ->
        fun st ->
          run_groups g st;
          s st
      | _ ->
        fun st ->
          run_groups g st;
          for i = 0 to Array.length codes - 1 do
            codes.(i) st
          done)

and compile_stmt var target ~in_place = function
  | Ast.Assign (n, e) -> (
    let slot = target n in
    let c, _ = compile_expr var e in
    match (leaf var e, in_place) with
    | Some (Const k), false -> fun st -> buffer st slot k true
    | Some (Slot i), false -> fun st -> buffer st slot st.v.(i) st.known.(i)
    | _, true ->
      fun st ->
        st.x <- false;
        let v = c st in
        st.v.(slot) <- v;
        st.known.(slot) <- not st.x
    | None, false ->
      fun st ->
        st.x <- false;
        let v = c st in
        buffer st slot v (not st.x))
  | Ast.If (c, body) -> (
    let cc, _ = compile_expr var c in
    let cb = compile_stmts var target ~in_place body in
    match leaf var c with
    | Some (Slot i) ->
      fun st ->
        if not st.known.(i) then
          fail "X in a branch condition (uninitialized control)";
        if st.v.(i) <> 0 then cb st
    | _ ->
      fun st ->
        st.x <- false;
        let cv = cc st in
        if st.x then fail "X in a branch condition (uninitialized control)";
        if cv <> 0 then cb st)

(* The names a body assigns, [if] bodies included, with repeats: their
   count bounds one edge's commits. *)
let rec assigned acc stmts =
  List.fold_left
    (fun acc s ->
      match s with
      | Ast.Assign (n, _) -> n :: acc
      | Ast.If (_, b) -> assigned acc b)
    acc stmts

(* Committing in place is buffering by another name when no statement —
   [if] conditions included — reads a name an earlier statement of the
   body assigns: every read still sees the edge's entry value, and the
   writes land in statement order, so the last one wins. *)
let in_place stmts =
  let written = ref [] in
  let fresh e = not (List.exists (fun n -> List.mem n !written) (reads [] e)) in
  let rec ok stmts =
    List.for_all
      (function
        | Ast.Assign (n, e) ->
          let f = fresh e in
          written := n :: !written;
          f
        | Ast.If (c, body) -> fresh c && ok body)
      stmts
  in
  ok stmts

(* ---------------------------- channels ----------------------------- *)

type chan_spec = {
  prefix : string;
  req : int;
  ack : int;
  we : int;
  addr : int;
  wdata : int;
  rdata : int;
}

type chan_state = Idle | Presented

type chan = {
  spec : chan_spec;
  mutable cst : chan_state;
  mutable is_store : bool;
  mutable at : int;
  mutable data : int;
  mutable rdval : int;
}

let ends_with ~suffix s =
  let n = String.length s and k = String.length suffix in
  n > k && String.sub s (n - k) k = suffix

(* The emitter names channel 0 [mem] and channel [c > 0] [mem<c>];
   instruction order within a cycle equals channel-number order (the
   binder assigns units greedily in instruction order), so servicing
   channels by index reproduces the model's access order exactly. *)
let channel_index prefix =
  let n = String.length prefix in
  if prefix = "mem" then 0
  else
    match
      if n > 3 && String.sub prefix 0 3 = "mem" then
        int_of_string_opt (String.sub prefix 3 (n - 3))
      else None
    with
    | Some i -> i
    | None -> fail "unrecognized channel prefix %S" prefix

(* Channel prefixes: every output [<p>_req] with an input [<p>_ack],
   in channel-number order. *)
let channel_prefixes (m : Ast.t) =
  let has name dir =
    List.exists
      (fun (p : Ast.port) -> p.Ast.pname = name && p.Ast.dir = dir)
      m.Ast.ports
  in
  List.filter_map
    (fun (p : Ast.port) ->
      let n = p.Ast.pname in
      if p.Ast.dir = Ast.Output && ends_with ~suffix:"_req" n then
        let prefix = String.sub n 0 (String.length n - 4) in
        if has (prefix ^ "_ack") Ast.Input then
          Some (channel_index prefix, prefix)
        else None
      else None)
    m.Ast.ports
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* ---------------------------- compile ------------------------------ *)

(* A [case] arm: its code, and the channels whose [<p>_req] it assigns
   ([if] bodies included), by index in channel order — the only channels
   whose request an edge in this arm can raise. *)
type arm = { code : st -> unit; drives : int array }

type program = {
  mname : string;
  args : int array;  (** slots of arg0 .. arg<n-1> *)
  init_v : int array;  (** power-up words, copied per run *)
  init_known : bool array;
  rst : int;
  start : int;
  state : int;
  done_ : int;
  result : int;
  reset : st -> unit;
  arms : arm array;  (** by state value, [0 .. dense) *)
  sparse : (int * arm) list;  (** labels outside the array *)
  default : arm;
  s_idle : int;
  s_done : int;
  channels : chan_spec array;
  max_commits : int;
}

(* Labels below this index the arm array; the emitter's state encodings
   are dense from 0, so the sparse list stays empty in practice. *)
let dense_limit = 1 lsl 16

let is_arg_port (p : Ast.port) =
  let n = p.Ast.pname in
  p.Ast.dir = Ast.Input
  && String.length n > 3
  && String.sub n 0 3 = "arg"
  && int_of_string_opt (String.sub n 3 (String.length n - 3)) <> None

let compile (m : Ast.t) =
  let param n = List.assoc_opt n m.Ast.params in
  let slots : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let powered = ref [] in
  let slot_of n =
    match Hashtbl.find_opt slots n with
    | Some i -> i
    | None ->
      let i = Hashtbl.length slots in
      Hashtbl.add slots n i;
      i
  in
  let power_up n v = powered := (slot_of n, v) :: !powered in
  (* Internal regs and output regs power up X; input wires are driven
     (0) by the harness except the read-data returns, which stay X
     until the adapter presents one. *)
  let writable = Hashtbl.create 32 in
  List.iter
    (fun (r, _) ->
      Hashtbl.replace writable r ();
      power_up r None)
    m.Ast.regs;
  List.iter
    (fun (p : Ast.port) ->
      let n = p.Ast.pname in
      match p.Ast.dir with
      | Ast.Output ->
        if p.Ast.is_reg then begin
          Hashtbl.replace writable n ();
          power_up n None
        end
      | Ast.Input ->
        power_up n (if ends_with ~suffix:"_rdata" n then None else Some 0))
    m.Ast.ports;
  (* Signals the harness drives get a slot whether or not they are
     declared, so expressions can read them. *)
  let n_args = List.length (List.filter is_arg_port m.Ast.ports) in
  let args = Array.init n_args (fun i -> slot_of (Printf.sprintf "arg%d" i)) in
  let rst = slot_of "rst" and start = slot_of "start" in
  let prefixes = channel_prefixes m in
  List.iter
    (fun p ->
      ignore (slot_of (p ^ "_ack"));
      ignore (slot_of (p ^ "_rdata")))
    prefixes;
  (* A signal the harness samples: its slot, or a read-only slot
     holding a localparam's value. *)
  let sampled n =
    match Hashtbl.find_opt slots n with
    | Some i -> i
    | None -> (
      match param n with
      | Some l ->
        power_up n (Some l.Ast.value);
        slot_of n
      | None -> fail "unknown identifier %S" n)
  in
  let channels =
    Array.of_list
      (List.map
         (fun p ->
           {
             prefix = p;
             req = sampled (p ^ "_req");
             ack = slot_of (p ^ "_ack");
             we = sampled (p ^ "_we");
             addr = sampled (p ^ "_addr");
             wdata = sampled (p ^ "_wdata");
             rdata = slot_of (p ^ "_rdata");
           })
         prefixes)
  in
  let state = sampled "state" and done_ = sampled "done" in
  let result = sampled "result" in
  (* Identifiers and assignment targets resolve here, once: a slot
     read, or a localparam folded to its constant. *)
  let var n =
    match Hashtbl.find_opt slots n with
    | Some i -> Slot i
    | None -> (
      match param n with
      | Some l -> Const l.Ast.value
      | None -> fail "unknown identifier %S" n)
  in
  let target n =
    if not (Hashtbl.mem writable n) then fail "assignment to non-register %S" n;
    slot_of n
  in
  let body stmts =
    compile_stmts var target ~in_place:(in_place stmts) stmts
  in
  let reset = body m.Ast.reset in
  let arm stmts =
    let names = assigned [] stmts in
    let drives =
      List.filter
        (fun k -> List.mem (channels.(k).prefix ^ "_req") names)
        (List.init (Array.length channels) Fun.id)
    in
    { code = body stmts; drives = Array.of_list drives }
  in
  (* Case dispatch; symbolic labels resolve through localparams and a
     repeated label keeps its last arm, as a [case] would. *)
  let labelled = Hashtbl.create 32 in
  let default = ref { code = (fun _ -> ()); drives = [||] } in
  List.iter
    (fun (k, stmts) ->
      let code = arm stmts in
      match k with
      | Ast.Knum v -> Hashtbl.replace labelled v code
      | Ast.Kid id -> (
        match param id with
        | Some l -> Hashtbl.replace labelled l.Ast.value code
        | None -> fail "case label %S is not a localparam" id)
      | Ast.Kdefault -> default := code)
    m.Ast.arms;
  let dense =
    Hashtbl.fold
      (fun v _ acc -> if v >= 0 && v < dense_limit then max acc (v + 1) else acc)
      labelled 0
  in
  let arms =
    Array.init dense (fun v ->
        Option.value (Hashtbl.find_opt labelled v) ~default:!default)
  in
  let sparse =
    Hashtbl.fold
      (fun v code acc -> if v >= 0 && v < dense then acc else (v, code) :: acc)
      labelled []
  in
  let param_value n =
    match param n with
    | Some l -> l.Ast.value
    | None -> fail "module has no %S localparam" n
  in
  let n_slots = Hashtbl.length slots in
  let init_v = Array.make n_slots 0 and init_known = Array.make n_slots false in
  List.iter
    (fun (i, v) ->
      match v with
      | Some w ->
        init_v.(i) <- w;
        init_known.(i) <- true
      | None -> init_known.(i) <- false)
    (List.rev !powered);
  {
    mname = m.Ast.mname;
    args;
    init_v;
    init_known;
    rst;
    start;
    state;
    done_;
    result;
    reset;
    arms;
    sparse;
    default = !default;
    s_idle = param_value "S_IDLE";
    s_done = param_value "S_DONE";
    channels;
    max_commits =
      List.fold_left
        (fun acc (_, stmts) -> max acc (List.length (assigned [] stmts)))
        (List.length (assigned [] m.Ast.reset))
        m.Ast.arms;
  }

(* One emitted text compiles to one program; the flow memoizes
   [hw_thread]s process-wide, so the same Verilog string is executed
   many times.  Programs are immutable, so domains share them. *)
let memo : (string, program) Hashtbl.t = Hashtbl.create 16

let memo_mutex = Mutex.create ()

let load text =
  Mutex.lock memo_mutex;
  let hit = Hashtbl.find_opt memo text in
  Mutex.unlock memo_mutex;
  match hit with
  | Some p -> p
  | None ->
    let p = compile (Parse.parse_module text) in
    Mutex.lock memo_mutex;
    let p =
      match Hashtbl.find_opt memo text with
      | Some first -> first
      | None ->
        Hashtbl.add memo text p;
        p
    in
    Mutex.unlock memo_mutex;
    p

let reset_memo () =
  Mutex.lock memo_mutex;
  Hashtbl.reset memo;
  Mutex.unlock memo_mutex

(* ------------------------------ run -------------------------------- *)

let run ?(stats = Accel.fresh_stats ()) ?(max_edges = 50_000_000) ~engine
    (p : program) ~(port : Accel.port) ~args =
  if Array.length p.args <> List.length args then
    invalid_arg
      (Printf.sprintf "Rtl.Eval.run: %s expects %d args, got %d" p.mname
         (Array.length p.args) (List.length args));
  let st =
    {
      v = Array.copy p.init_v;
      known = Array.copy p.init_known;
      x = false;
      sgn = false;
      cslot = Array.make p.max_commits 0;
      cval = Array.make p.max_commits 0;
      cknown = Array.make p.max_commits false;
      ncommit = 0;
    }
  in
  let set i w =
    st.v.(i) <- w;
    st.known.(i) <- true
  in
  let apply () =
    for k = 0 to st.ncommit - 1 do
      let i = st.cslot.(k) in
      st.v.(i) <- st.cval.(k);
      st.known.(i) <- st.cknown.(k)
    done;
    st.ncommit <- 0
  in
  let is i w = st.known.(i) && st.v.(i) = w in
  List.iteri (fun i w -> set p.args.(i) w) args;
  let chans =
    Array.map
      (fun spec ->
        { spec; cst = Idle; is_store = false; at = 0; data = 0; rdval = 0 })
      p.channels
  in
  let every = Array.init (Array.length chans) Fun.id in
  (* Channels in [Presented]: while 0, no channel needs releasing. *)
  let presented = ref 0 in
  let rec any_issuing cands k =
    k < Array.length cands
    &&
    let c = chans.(cands.(k)) in
    (c.cst = Idle && is c.spec.req 1) || any_issuing cands (k + 1)
  in
  (* Reset edge, then hold start high until done. *)
  set p.rst 1;
  p.reset st;
  apply ();
  set p.rst 0;
  set p.start 1;
  let requests = ref 0 in
  let edges = ref 0 in
  let finished = ref false in
  let read_state () =
    if st.known.(p.state) then st.v.(p.state) else fail "state register is X"
  in
  let service c =
    if c.is_store then port.Accel.store c.at c.data
    else c.rdval <- port.Accel.load c.at
  in
  let present c =
    set c.spec.ack 1;
    if not c.is_store then set c.spec.rdata c.rdval;
    c.cst <- Presented;
    incr presented
  in
  (* Ack-hold handshake: a presented ack is held until the FSM is seen
     with the request deasserted, then the channel is free for the next
     access. *)
  let release c =
    if c.cst = Presented && is c.spec.req 0 then begin
      set c.spec.ack 0;
      c.cst <- Idle;
      decr presented
    end
  in
  let sample i c what =
    if st.known.(i) then st.v.(i)
    else fail "%s_%s is X at issue" c.spec.prefix what
  in
  let accepted = Array.copy chans and n_accepted = ref 0 in
  let accept c =
    if c.cst = Idle then begin
      let req = c.spec.req in
      if not st.known.(req) then
        fail "%s_req is X — the output register has no reset" c.spec.prefix;
      if st.v.(req) <> 0 then begin
        c.is_store <- sample c.spec.we c "we" <> 0;
        c.at <- sample c.spec.addr c "addr";
        c.data <- (if c.is_store then sample c.spec.wdata c "wdata" else 0);
        incr requests;
        if c.is_store then stats.Accel.stores <- stats.Accel.stores + 1
        else stats.Accel.loads <- stats.Accel.loads + 1;
        accepted.(!n_accepted) <- c;
        incr n_accepted
      end
    end
  in
  while not !finished do
    incr edges;
    if !edges > max_edges then raise (Edge_budget max_edges);
    let sval = read_state () in
    let arm =
      if sval >= 0 && sval < Array.length p.arms then p.arms.(sval)
      else Option.value (List.assoc_opt sval p.sparse) ~default:p.default
    in
    (* The channels whose request this edge can raise.  After an edge's
       accept step every idle channel's [req] reads 0 (or accept has
       raised), so only the arm's own channels can start requesting —
       except on the first edge, whose accept step must see a [req]
       the reset left X. *)
    let cands = if !edges = 1 then every else arm.drives in
    (* Edge accounting, matched against the model's: the edge that
       consumes an ack coalesces with the successor state's entry (a
       memory state costs exactly its access latency), the edge that
       issues requests is the state's entry edge (its accesses below
       advance the clock), any other exec-state edge is one pure cycle,
       and the idle/done handshake edges are free — the model has no
       dispatch cost either.  The edge commits before it is classified:
       the issue check reads each request as the edge leaves it, and
       the other processes a pure edge's wait yields to never read this
       run's slots. *)
    let consume = !presented > 0 in
    arm.code st;
    if st.ncommit > 0 then apply ();
    if consume then ()
    else if Array.length cands > 0 && any_issuing cands 0 then
      stats.Accel.fsm_cycles <- stats.Accel.fsm_cycles + 1
    else if sval <> p.s_idle && sval <> p.s_done then begin
      Engine.wait_on engine 1;
      stats.Accel.fsm_cycles <- stats.Accel.fsm_cycles + 1
    end;
    if not st.known.(p.done_) then fail "done is X";
    finished := st.v.(p.done_) <> 0;
    if not !finished then begin
      if !presented > 0 then Array.iter release chans;
      (* Accept requests (in channel order = the model's instruction
         order) from idle channels whose req samples high. *)
      for k = 0 to Array.length cands - 1 do
        accept chans.(cands.(k))
      done;
      if !n_accepted > 0 then begin
        let n = !n_accepted in
        n_accepted := 0;
        (* A memory state holds itself until its acks arrive.  One that
           advances with a request out has no counterpart in the model,
           whose memory cycle completes its accesses before the FSM
           moves on. *)
        let next = read_state () in
        if next <> sval then
          fail "edge %d: state %d advanced to %d with %s_req outstanding"
            !edges sval next accepted.(0).spec.prefix;
        (* Issue the accesses one after another in channel order and
           wait the port's price for the group, exactly like the model's
           memory cycle, and present every ack at completion, so the
           next edge is the acked advance. *)
        for k = 0 to n - 1 do
          service accepted.(k)
        done;
        Engine.wait_on engine (port.Accel.hold n);
        for k = 0 to n - 1 do
          present accepted.(k)
        done
      end
    end
  done;
  {
    result = (if st.known.(p.result) then Some st.v.(p.result) else None);
    requests = !requests;
    edges = !edges;
  }
