module Ir = Vmht_ir.Ir
module Ast = Vmht_lang.Ast

(* --- memory-access model ------------------------------------------- *)

(* The scratchpad/interface memory seen by the scheduler: [banks]
   word-interleaved banks ([bank = (addr / word) mod banks], 8-byte
   words), each with [ports_per_bank] same-cycle ports.  [flat_mem p]
   (one bank, p ports) is the pre-banking model and the degenerate case
   every default goes through. *)
type mem_model = { banks : int; ports_per_bank : int }

let flat_mem ports = { banks = 1; ports_per_bank = ports }

let banked_mem ?(ports_per_bank = 1) banks =
  if banks < 1 then invalid_arg "Schedule.banked_mem: banks must be >= 1";
  { banks; ports_per_bank }

let mem_total_ports m = m.banks * m.ports_per_bank

type resources = {
  alu : int;
  cmp : int;
  mul : int;
  div : int;
  shift : int;
  mem : mem_model;
}

let default_resources =
  { alu = 2; cmp = 2; mul = 1; div = 1; shift = 1; mem = flat_mem 1 }

(* Large but max_int-safe: resource math multiplies and ceil-divides
   limits, so a genuine [max_int] would overflow (the old
   [resource_limit Move -> max_int] fed [ceil_div]'s [limit + 1]
   straight past the integer range). *)
let unbounded = 1 lsl 20

let unlimited_resources =
  {
    alu = unbounded;
    cmp = unbounded;
    mul = unbounded;
    div = unbounded;
    shift = unbounded;
    mem = flat_mem unbounded;
  }

(* Total over every class: [Mem] answers with the model's global
   concurrency cap (the bank arbiter refines it per cycle), [Move] with
   the safe large bound instead of [max_int]. *)
let resource_limit r = function
  | Optypes.Alu -> r.alu
  | Optypes.Cmp -> r.cmp
  | Optypes.Mul -> r.mul
  | Optypes.Div -> r.div
  | Optypes.Shift -> r.shift
  | Optypes.Mem -> mem_total_ports r.mem
  | Optypes.Move -> unbounded

(* --- static bank analysis ------------------------------------------ *)

(* Symbolic affine addresses over a straight-line block.  Every
   register value is [sum (coeff_i * sym_i) + base] where the syms are
   opaque: live-in registers, load results and unanalyzable arithmetic
   each mint a fresh one.  Two memory accesses whose forms share the
   symbolic part and differ by a whole number of words provably land
   [delta_words mod banks] banks apart — the only disequality the
   scheduler may exploit.  Everything else (distinct bases, unknown
   addresses, sub-word offsets) stays "possibly same bank" and is
   conservatively serialized onto one bank's ports. *)
module Bank = struct
  type addr = { terms : (int * int) list; base : int }
  (* [terms] sorted by symbol id, zero coefficients dropped *)

  let const n = { terms = []; base = n }

  let rec merge_terms f a b =
    match (a, b) with
    | [], rest | rest, [] ->
      List.filter_map
        (fun (s, c) ->
          let c = f c 0 in
          if c = 0 then None else Some (s, c))
        rest
    | (sa, ca) :: ta, (sb, cb) :: tb ->
      if sa < sb then
        let c = f ca 0 in
        if c = 0 then merge_terms f ta b else (sa, c) :: merge_terms f ta b
      else if sb < sa then
        let c = f 0 cb in
        if c = 0 then merge_terms f a tb else (sb, c) :: merge_terms f a tb
      else
        let c = f ca cb in
        if c = 0 then merge_terms f ta tb else (sa, c) :: merge_terms f ta tb

  let add a b = { terms = merge_terms ( + ) a.terms b.terms; base = a.base + b.base }

  let sub a b = { terms = merge_terms ( - ) a.terms b.terms; base = a.base - b.base }

  let scale k a =
    if k = 0 then const 0
    else { terms = List.map (fun (s, c) -> (s, k * c)) a.terms; base = k * a.base }

  (* Kernel pointer arguments are independent buffers (each maps to its
     own staged region / VM mapping — the restrict-style contract every
     HLS flow imposes on top-level pointers), so two accesses rooted at
     different arguments never alias.  Only arguments whose register is
     never redefined anywhere in the function qualify: a reassigned
     pointer variable may point into another argument's buffer. *)
  let stable_args (f : Ir.func) =
    List.filter
      (fun r ->
        not
          (List.exists
             (fun (b : Ir.block) ->
               List.exists (fun i -> Ir.def_of i = Some r) b.Ir.instrs)
             f.Ir.blocks))
      f.Ir.arg_regs

  (* Forward symbolic evaluation in program order.  Program order is
     the right reading frame even though the scheduler reorders: WAR
     edges let an overwriter start no earlier than the same cycle as a
     reader, so the value an instruction reads is always the one the
     last preceding writer produced.  [roots] (the function's
     {!stable_args}) get the negative symbol ids the root analysis of
     {!provably_disjoint} looks for. *)
  let addr_forms ?(roots = []) (instrs : Ir.instr array) : addr option array =
    let next_sym = ref 0 in
    let fresh () =
      let s = !next_sym in
      incr next_sym;
      { terms = [ (s, 1) ]; base = 0 }
    in
    let root_sym : (Ir.reg, int) Hashtbl.t = Hashtbl.create 4 in
    List.iteri (fun k r -> Hashtbl.replace root_sym r (-(k + 1))) roots;
    let env : (Ir.reg, addr) Hashtbl.t = Hashtbl.create 16 in
    let read r =
      match Hashtbl.find_opt env r with
      | Some v -> v
      | None ->
        (* live-in register: one stable symbol per reg *)
        let v =
          match Hashtbl.find_opt root_sym r with
          | Some s -> { terms = [ (s, 1) ]; base = 0 }
          | None -> fresh ()
        in
        Hashtbl.replace env r v;
        v
    in
    let operand = function Ir.Imm n -> const n | Ir.Reg r -> read r in
    Array.map
      (fun instr ->
        let form =
          match instr with
          | Ir.Load (_, a) | Ir.Store (a, _) -> Some (operand a)
          | Ir.Bin _ | Ir.Un _ | Ir.Mov _ -> None
        in
        (match instr with
         | Ir.Mov (d, x) -> Hashtbl.replace env d (operand x)
         | Ir.Bin (Ast.Add, d, x, y) ->
           Hashtbl.replace env d (add (operand x) (operand y))
         | Ir.Bin (Ast.Sub, d, x, y) ->
           Hashtbl.replace env d (sub (operand x) (operand y))
         | Ir.Bin (Ast.Shl, d, x, Ir.Imm k) when k >= 0 && k < 32 ->
           Hashtbl.replace env d (scale (1 lsl k) (operand x))
         | Ir.Bin (Ast.Mul, d, x, Ir.Imm k)
         | Ir.Bin (Ast.Mul, d, Ir.Imm k, x) ->
           Hashtbl.replace env d (scale k (operand x))
         | Ir.Bin (_, d, _, _) | Ir.Un (_, d, _) | Ir.Load (d, _) ->
           Hashtbl.replace env d (fresh ())
         | Ir.Store _ -> ());
        form)
      instrs

  (* [x.terms = y.terms] without the polymorphic compare: the
     scheduler and pipeliner ask it for every pair of accesses. *)
  let rec same_terms a b =
    match (a, b) with
    | [], [] -> true
    | (sa, ca) :: ta, (sb, cb) :: tb -> sa = sb && ca = cb && same_terms ta tb
    | [], _ :: _ | _ :: _, [] -> false

  (* The root argument an address form points into: exactly one
     root-tagged (negative) symbol, with coefficient one.  [a + 8*i]
     is rooted at [a]; [a - c], [2*a] and forms over loaded pointers
     are not rooted at anything. *)
  let root x =
    match List.filter (fun (s, _) -> s < 0) x.terms with
    | [ (s, 1) ] -> Some s
    | _ -> None

  (* Two accesses that provably touch different addresses, whatever the
     symbols' runtime values: either the same symbolic part at a
     different constant offset, or roots in two different argument
     buffers.  Model-free — refines the memory-ordering dependences. *)
  let provably_disjoint a b =
    match (a, b) with
    | Some x, Some y ->
      (same_terms x.terms y.terms && x.base <> y.base)
      || (match (root x, root y) with
         | Some ra, Some rb -> ra <> rb
         | (Some _ | None), _ -> false)
    | (Some _ | None), _ -> false

  (* Same symbolic part + word-aligned offset delta: the banks differ
     by exactly [(delta / word) mod banks], whatever the symbols'
     runtime values (floor((x + word*k) / word) = floor(x / word) + k). *)
  let provably_distinct m a b =
    match (a, b) with
    | Some x, Some y when same_terms x.terms y.terms ->
      let d = x.base - y.base in
      d mod Ast.word_bytes = 0 && d / Ast.word_bytes mod m.banks <> 0
    | (Some _ | None), _ -> false

  (* Can this set of accesses issue in one cycle?  Each access must
     find a port on its bank: its conflict set (everything not provably
     on another bank, itself included) may not exceed the per-bank
     ports; the whole set stays within the total port count.  With one bank
     nothing is ever provably distinct and this collapses to the old
     [count <= mem_ports]. *)
  let cycle_ok m (accesses : addr option list) =
    List.length accesses <= mem_total_ports m
    && List.for_all
         (fun a ->
           let conflicts =
             List.fold_left
               (fun c b -> if provably_distinct m a b then c else c + 1)
               0 accesses
           in
           conflicts <= m.ports_per_bank)
         accesses
end

type block_schedule = {
  label : Ir.label;
  instrs : Ir.instr array;
  starts : int array;
  makespan : int;
}

type t = {
  func : Ir.func;
  blocks : block_schedule list;
  resources : resources;
}

let lat instr = Optypes.latency (Optypes.classify instr)

let is_mem instr =
  match instr with
  | Ir.Load _ | Ir.Store _ -> true
  | Ir.Bin _ | Ir.Un _ | Ir.Mov _ -> false

let is_store = function
  | Ir.Store _ -> true
  | Ir.Load _ | Ir.Bin _ | Ir.Un _ | Ir.Mov _ -> false

(* Dependence edges i -> j (i before j in program order) with minimum
   start-to-start delays.  [addrs] (the block's affine address forms)
   refines the memory ordering: store pairs and load/store pairs at
   provably different addresses commute.  Callers pass it only under a
   multi-bank model, so flat-memory schedules are bit-identical to the
   pre-banking scheduler. *)
let dependence_edges ?addrs instrs =
  let n = Array.length instrs in
  let edges = Array.make n [] in
  (* edges.(j) = list of (i, delay) constraints: start_j >= start_i + delay *)
  (* What each instruction defines ([no_def] for nothing) and reads,
     derived once instead of for every pair. *)
  let no_def = min_int in
  let defs = Array.make n no_def in
  Array.iteri (fun i instr -> Ir.iter_def (fun d -> defs.(i) <- d) instr) instrs;
  let uses =
    Array.map
      (fun instr ->
        let regs = ref [] in
        Ir.iter_uses (fun r -> regs := r :: !regs) instr;
        !regs)
      instrs
  in
  let rec mem (r : Ir.reg) = function
    | [] -> false
    | x :: rest -> x = r || mem r rest
  in
  let reads i r = mem r uses.(i) in
  let lats = Array.map lat instrs in
  let mems = Array.map is_mem instrs and stores = Array.map is_store instrs in
  for j = 0 to n - 1 do
    let def_j = defs.(j) in
    for i = 0 to j - 1 do
      let def_i = defs.(i) in
      (* the largest delay among the dependences found; -1 = none *)
      let delay = ref (-1) in
      (* RAW *)
      if reads j def_i then delay := lats.(i);
      (* WAR: j writes a register i reads *)
      if reads i def_j && !delay < 0 then delay := 0;
      (* WAW: commits in program order *)
      (if def_i <> no_def && def_i = def_j then
         let d = max 1 (lats.(i) - lats.(j) + 1) in
         if d > !delay then delay := d);
      (* Memory ordering: loads commute, everything else serializes —
         unless the two accesses provably touch different addresses *)
      if !delay < 1 && mems.(i) && mems.(j)
         && (stores.(i) || stores.(j))
         && not
              (match addrs with
               | Some a -> Bank.provably_disjoint a.(i) a.(j)
               | None -> false)
      then delay := 1;
      if !delay >= 0 then edges.(j) <- (i, !delay) :: edges.(j)
    done
  done;
  edges

(* The dependence graph's out-edges: [(j, delay)] for each edge
   [i -> j], from the in-edges {!dependence_edges} gives. *)
let successors edges =
  let succ = Array.make (Array.length edges) [] in
  Array.iteri
    (fun j preds ->
      List.iter (fun (i, delay) -> succ.(i) <- (j, delay) :: succ.(i)) preds)
    edges;
  succ

(* Longest path from each instruction to the end of the block —
   the list scheduler's priority function. *)
let priorities instrs succ =
  let n = Array.length instrs in
  let prio = Array.make n 0 in
  for i = n - 1 downto 0 do
    let tail =
      List.fold_left (fun acc (j, delay) -> max acc (prio.(j) + delay)) 0
        succ.(i)
    in
    prio.(i) <- tail + lat instrs.(i)
  done;
  prio

let schedule_block ~roots resources (b : Ir.block) =
  let instrs = Array.of_list b.instrs in
  let n = Array.length instrs in
  if n = 0 then
    { label = b.label; instrs; starts = [||]; makespan = 1 }
  else begin
    let banked = resources.mem.banks > 1 in
    let addrs = Bank.addr_forms ~roots instrs in
    let edges = dependence_edges ?addrs:(if banked then Some addrs else None) instrs in
    let succ = successors edges in
    let prio = priorities instrs succ in
    (* An instruction is ready once every predecessor has started and
       the cycle has reached the latest [start + delay] among them:
       [waiting.(j)] counts the predecessors not started yet and
       [earliest.(j)] holds that bound over those started. *)
    let waiting = Array.map List.length edges in
    let earliest = Array.make n 0 in
    let starts = Array.make n (-1) in
    let scheduled = ref 0 in
    let cycle = ref 0 in
    (* [usage.(class_index cls)]: units of [cls] taken this cycle *)
    let usage = Array.make Optypes.class_count 0 in
    while !scheduled < n do
      Array.fill usage 0 Optypes.class_count 0;
      let mems_this_cycle = ref [] in
      (* Instructions ready at this cycle, highest priority first. *)
      let ready = ref [] in
      for j = 0 to n - 1 do
        if starts.(j) < 0 && waiting.(j) = 0 && earliest.(j) <= !cycle then
          ready := j :: !ready
      done;
      (* highest priority first, then program order *)
      let ready =
        List.sort
          (fun a b ->
            let c = compare (prio.(b) : int) prio.(a) in
            if c <> 0 then c else compare (a : int) b)
          !ready
      in
      let try_admit j =
        let cls = Optypes.classify instrs.(j) in
        let used = usage.(Optypes.class_index cls) in
        let admit =
          used < resource_limit resources cls
          && (cls <> Optypes.Mem
             || Bank.cycle_ok resources.mem (addrs.(j) :: !mems_this_cycle))
        in
        if admit then begin
          starts.(j) <- !cycle;
          List.iter
            (fun (k, delay) ->
              waiting.(k) <- waiting.(k) - 1;
              let e = !cycle + delay in
              if e > earliest.(k) then earliest.(k) <- e)
            succ.(j);
          usage.(Optypes.class_index cls) <- used + 1;
          if cls = Optypes.Mem then
            mems_this_cycle := addrs.(j) :: !mems_this_cycle;
          incr scheduled
        end;
        admit
      in
      if not banked then List.iter (fun j -> ignore (try_admit j)) ready
      else begin
        (* Bank affinity: a priority-order greedy pass would pair
           accesses of different arrays (mutual "maybe same bank"
           conflicts) and cap every cycle at one bank's ports.  Admit
           conflict-free additions — accesses provably on a different
           bank than everything already issued — first, then let the
           leftovers fill the remaining ports of contended banks.
           Within a cycle the inversion is harmless: co-issued is
           co-issued.  Non-memory ops share no resource class with
           memory, so their admission order is unchanged. *)
        let mem_j j = Optypes.classify instrs.(j) = Optypes.Mem in
        List.iter (fun j -> if not (mem_j j) then ignore (try_admit j)) ready;
        List.iter
          (fun j ->
            if
              mem_j j
              && (!mems_this_cycle = []
                 || List.for_all
                      (Bank.provably_distinct resources.mem addrs.(j))
                      !mems_this_cycle)
            then ignore (try_admit j))
          ready;
        List.iter
          (fun j -> if mem_j j && starts.(j) < 0 then ignore (try_admit j))
          ready
      end;
      incr cycle
    done;
    let makespan = ref 1 in
    Array.iteri
      (fun i instr -> makespan := max !makespan (starts.(i) + lat instr))
      instrs;
    { label = b.label; instrs; starts; makespan = !makespan }
  end

let schedule_func ?(resources = default_resources) (f : Ir.func) =
  let roots = Bank.stable_args f in
  {
    func = f;
    blocks = List.map (schedule_block ~roots resources) f.blocks;
    resources;
  }

let total_states t =
  List.fold_left (fun acc b -> acc + b.makespan) 0 t.blocks

let max_concurrency t cls =
  List.fold_left
    (fun acc b ->
      (* every start lies below the makespan: latencies are positive *)
      let per_cycle = Array.make b.makespan 0 in
      let acc = ref acc in
      Array.iteri
        (fun i start ->
          if Optypes.classify b.instrs.(i) = cls then begin
            per_cycle.(start) <- per_cycle.(start) + 1;
            acc := max !acc per_cycle.(start)
          end)
        b.starts;
      !acc)
    0 t.blocks

let instrs_by_cycle b =
  let by_cycle = Array.make b.makespan [] in
  for i = Array.length b.starts - 1 downto 0 do
    let start = b.starts.(i) in
    if start >= 0 && start < b.makespan then
      by_cycle.(start) <- i :: by_cycle.(start)
  done;
  by_cycle

let validate t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let roots = Bank.stable_args t.func in
  List.iter
    (fun b ->
      let n = Array.length b.instrs in
      let addrs = Bank.addr_forms ~roots b.instrs in
      let edges =
        dependence_edges
          ?addrs:(if t.resources.mem.banks > 1 then Some addrs else None)
          b.instrs
      in
      for j = 0 to n - 1 do
        if b.starts.(j) < 0 then fail "L%d: instruction %d unscheduled" b.label j;
        List.iter
          (fun (i, delay) ->
            if b.starts.(j) < b.starts.(i) + delay then
              fail "L%d: dependence %d -> %d violated (%d < %d + %d)" b.label
                i j b.starts.(j) b.starts.(i) delay)
          edges.(j)
      done;
      (* Resource constraints per cycle *)
      let per_cycle : (int * Optypes.op_class, int) Hashtbl.t =
        Hashtbl.create 16
      in
      Array.iteri
        (fun i start ->
          let cls = Optypes.classify b.instrs.(i) in
          let key = (start, cls) in
          let cur = Option.value ~default:0 (Hashtbl.find_opt per_cycle key) in
          Hashtbl.replace per_cycle key (cur + 1))
        b.starts;
      Hashtbl.iter
        (fun (cycle, cls) count ->
          if count > resource_limit t.resources cls then
            fail "L%d cycle %d: %d %s ops exceed limit" b.label cycle count
              (Optypes.class_name cls))
        per_cycle;
      (* Bank arbitration per cycle: every co-issued memory set must be
         admissible under the memory model *)
      let mem_cycles : (int, Bank.addr option list) Hashtbl.t =
        Hashtbl.create 16
      in
      Array.iteri
        (fun i start ->
          if is_mem b.instrs.(i) then
            let cur =
              Option.value ~default:[] (Hashtbl.find_opt mem_cycles start)
            in
            Hashtbl.replace mem_cycles start (addrs.(i) :: cur))
        b.starts;
      Hashtbl.iter
        (fun cycle accesses ->
          if not (Bank.cycle_ok t.resources.mem accesses) then
            fail "L%d cycle %d: %d memory ops violate bank arbitration" b.label
              cycle (List.length accesses))
        mem_cycles;
      (* Makespan covers all commits *)
      Array.iteri
        (fun i start ->
          if start + lat b.instrs.(i) > b.makespan then
            fail "L%d: instruction %d commits after makespan" b.label i)
        b.starts)
    t.blocks

let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "schedule of %s: %d states\n" t.func.Ir.fname
       (total_states t));
  List.iter
    (fun b ->
      Buffer.add_string buf
        (Printf.sprintf "L%d (makespan %d):\n" b.label b.makespan);
      let order = Array.init (Array.length b.instrs) Fun.id in
      Array.sort (fun i j -> compare (b.starts.(i), i) (b.starts.(j), j)) order;
      Array.iter
        (fun i ->
          Buffer.add_string buf
            (Printf.sprintf "  [%2d] %s\n" b.starts.(i)
               (Ir.instr_to_string b.instrs.(i))))
        order)
    t.blocks;
  Buffer.contents buf
