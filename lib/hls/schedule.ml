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

(* --- per-register tables --------------------------------------------- *)

(* What the address analysis and the dependence builder track per
   register, indexed by register number.  They are made once per
   function ([next_reg] entries: the verifier keeps every register below
   it) and shared by its blocks: a pass over a block sets only the
   entries of the registers the block mentions and {!clear}s them
   before it returns, so a block costs its own length, not the
   function's register count. *)
type regs = {
  root : int array;
      (* the root symbol (< 0) of a stable argument, 0 for any other *)
  live_in : int array;  (* the symbol a live-in read minted, or -1 *)
  last_def : int array;  (* the block's latest writer so far, or -1 *)
  readers : int list array;  (* the block's readers since [last_def] *)
}

let clear regs instrs =
  let reset r =
    regs.live_in.(r) <- -1;
    regs.last_def.(r) <- -1;
    regs.readers.(r) <- []
  in
  Array.iter
    (fun instr ->
      Ir.iter_def reset instr;
      Ir.iter_uses reset instr)
    instrs

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
     pointer variable may point into another argument's buffer.  One
     pass marks the argument registers any instruction defines. *)
  let stable_args (f : Ir.func) =
    let bound = List.fold_left (fun m r -> max m (r + 1)) 0 f.Ir.arg_regs in
    let redefined = Array.make bound false in
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun instr ->
            let d = Ir.def_reg instr in
            if d >= 0 && d < bound then redefined.(d) <- true)
          b.Ir.instrs)
      f.Ir.blocks;
    List.filter (fun r -> not redefined.(r)) f.Ir.arg_regs

  (* Forward symbolic evaluation in program order.  Program order is
     the right reading frame even though the scheduler reorders: WAR
     edges let an overwriter start no earlier than the same cycle as a
     reader, so the value an instruction reads is always the one the
     last preceding writer produced.  A register's value is the form
     its latest writer in the block produced ([value], by instruction),
     else a live-in symbol: the root symbol of a stable argument, or
     one minted at the first read. *)
  let addr_forms regs (instrs : Ir.instr array) : addr option array =
    let n = Array.length instrs in
    let next_sym = ref 0 in
    let fresh () =
      let s = !next_sym in
      incr next_sym;
      { terms = [ (s, 1) ]; base = 0 }
    in
    let value = Array.make n (const 0) in
    let read r =
      let k = regs.last_def.(r) in
      if k >= 0 then value.(k)
      else if regs.root.(r) < 0 then { terms = [ (regs.root.(r), 1) ]; base = 0 }
      else if regs.live_in.(r) >= 0 then
        { terms = [ (regs.live_in.(r), 1) ]; base = 0 }
      else begin
        regs.live_in.(r) <- !next_sym;
        fresh ()
      end
    in
    let operand = function Ir.Imm n -> const n | Ir.Reg r -> read r in
    let forms =
      Array.mapi
        (fun i instr ->
          let define d v =
            value.(i) <- v;
            regs.last_def.(d) <- i
          in
          match instr with
          | Ir.Load (d, a) ->
            let form = operand a in
            define d (fresh ());
            Some form
          | Ir.Store (a, _) -> Some (operand a)
          | Ir.Mov (d, x) ->
            define d (operand x);
            None
          | Ir.Bin (Ast.Add, d, x, y) ->
            define d (add (operand x) (operand y));
            None
          | Ir.Bin (Ast.Sub, d, x, y) ->
            define d (sub (operand x) (operand y));
            None
          | Ir.Bin (Ast.Shl, d, x, Ir.Imm k) when k >= 0 && k < 32 ->
            define d (scale (1 lsl k) (operand x));
            None
          | Ir.Bin (Ast.Mul, d, x, Ir.Imm k) | Ir.Bin (Ast.Mul, d, Ir.Imm k, x) ->
            define d (scale k (operand x));
            None
          | Ir.Bin (_, d, _, _) | Ir.Un (_, d, _) ->
            define d (fresh ());
            None)
        instrs
    in
    clear regs instrs;
    forms

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

(* The function's register tables, its stable arguments tagged as
   roots for {!Bank.provably_disjoint}. *)
let regs (f : Ir.func) =
  let n = max 0 f.Ir.next_reg in
  let root = Array.make n 0 in
  List.iteri (fun k r -> root.(r) <- -(k + 1)) (Bank.stable_args f);
  {
    root;
    live_in = Array.make n (-1);
    last_def = Array.make n (-1);
    readers = Array.make n [];
  }

(* Dependence edges i -> j (i before j in program order) with minimum
   start-to-start delays, nearest edges only: RAW from the last writer
   of each register [j] reads; WAR from the readers of the register [j]
   writes since its last writer, and WAW from that writer; memory from
   the last store, and for a store also from the loads since it.  A
   pair two rules join keeps the larger delay.  [addrs] (the block's
   affine address forms) refines the memory ordering: every pair of
   accesses with a store among them is checked, and pairs at provably
   different addresses commute.  Callers pass it only under a
   multi-bank model, so flat-memory schedules are bit-identical to the
   pre-banking scheduler. *)
let dependence_edges ?addrs regs instrs =
  let n = Array.length instrs in
  (* edges.(j) = list of (i, delay) constraints: start_j >= start_i + delay *)
  let edges = Array.make n [] in
  let lats = Array.map lat instrs in
  (* [j]'s predecessors so far: [mark.(i) = j] for each, with its
     largest delay in [delay.(i)] *)
  let mark = Array.make n (-1) and delay = Array.make n 0 in
  let preds = ref [] in
  let add j i d =
    if mark.(i) = j then (if d > delay.(i) then delay.(i) <- d)
    else begin
      mark.(i) <- j;
      delay.(i) <- d;
      preds := i :: !preds
    end
  in
  let last_store = ref (-1) and loads = ref [] and accesses = ref [] in
  for j = 0 to n - 1 do
    let instr = instrs.(j) in
    preds := [];
    (* RAW *)
    Ir.iter_uses
      (fun r ->
        let k = regs.last_def.(r) in
        if k >= 0 then add j k lats.(k))
      instr;
    let d = Ir.def_reg instr in
    if d >= 0 then begin
      (* WAR: the overwriter starts no earlier than the readers *)
      List.iter (fun i -> add j i 0) regs.readers.(d);
      (* WAW: commits in program order *)
      let k = regs.last_def.(d) in
      if k >= 0 then add j k (max 1 (lats.(k) - lats.(j) + 1))
    end;
    (* Memory ordering: loads commute, everything else serializes —
       unless the two accesses provably touch different addresses *)
    (match instr with
     | Ir.Load _ | Ir.Store _ -> (
       let store = is_store instr in
       match addrs with
       | Some a ->
         List.iter
           (fun i ->
             if (store || is_store instrs.(i))
                && not (Bank.provably_disjoint a.(i) a.(j))
             then add j i 1)
           !accesses;
         accesses := j :: !accesses
       | None ->
         if !last_store >= 0 then add j !last_store 1;
         if store then begin
           List.iter (fun i -> add j i 1) !loads;
           last_store := j;
           loads := []
         end
         else loads := j :: !loads)
     | Ir.Bin _ | Ir.Un _ | Ir.Mov _ -> ());
    edges.(j) <- List.map (fun i -> (i, delay.(i))) !preds;
    Ir.iter_uses (fun r -> regs.readers.(r) <- j :: regs.readers.(r)) instr;
    if d >= 0 then begin
      regs.last_def.(d) <- j;
      regs.readers.(d) <- []
    end
  done;
  clear regs instrs;
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

(* List scheduling.  An instruction is released once every predecessor
   has started, and is ready from the latest [start + delay] among them
   on (and not in the cycle its last predecessor starts in).  Each
   cycle admits ready instructions best first — highest priority, then
   program order — while their class has units.  Released instructions
   wait in one array per class, best last; a cycle that admits nothing
   moves straight to the next cycle in which one gets ready. *)
let schedule_block regs resources (b : Ir.block) =
  let instrs = Array.of_list b.instrs in
  let n = Array.length instrs in
  if n = 0 then
    { label = b.label; instrs; starts = [||]; makespan = 1 }
  else begin
    let banked = resources.mem.banks > 1 in
    let addrs = Bank.addr_forms regs instrs in
    let edges =
      dependence_edges ?addrs:(if banked then Some addrs else None) regs instrs
    in
    let succ = successors edges in
    let prio = priorities instrs succ in
    (* [waiting.(j)] counts the predecessors not started yet and
       [earliest.(j)] holds the bound over those started. *)
    let waiting = Array.map List.length edges in
    let earliest = Array.make n 0 in
    let starts = Array.make n (-1) in
    let classes = Optypes.class_count and mem = Optypes.class_index Optypes.Mem in
    let cls = Array.map (fun i -> Optypes.class_index (Optypes.classify i)) instrs in
    let limit = Array.make classes 0 in
    List.iter
      (fun c -> limit.(Optypes.class_index c) <- resource_limit resources c)
      Optypes.all_classes;
    (* [pending.(c).(0 .. count.(c) - 1)]: the released instructions of
       class [c] not started yet, worst first *)
    let worse a b =
      let c = compare (prio.(a) : int) prio.(b) in
      if c <> 0 then c else compare (b : int) a
    in
    let count = Array.make classes 0 in
    Array.iter (fun c -> count.(c) <- count.(c) + 1) cls;
    let pending = Array.map (fun k -> Array.make k 0) count in
    Array.fill count 0 classes 0;
    Array.iteri
      (fun j w ->
        if w = 0 then begin
          let c = cls.(j) in
          pending.(c).(count.(c)) <- j;
          count.(c) <- count.(c) + 1
        end)
      waiting;
    Array.iteri
      (fun c q ->
        if count.(c) > 1 then begin
          let initial = Array.sub q 0 count.(c) in
          Array.sort worse initial;
          Array.blit initial 0 q 0 count.(c)
        end)
      pending;
    let release j =
      let c = cls.(j) in
      let q = pending.(c) in
      (* the first position whose instruction is better than [j] *)
      let lo = ref 0 and hi = ref count.(c) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if worse q.(mid) j < 0 then lo := mid + 1 else hi := mid
      done;
      Array.blit q !lo q (!lo + 1) (count.(c) - !lo);
      q.(!lo) <- j;
      count.(c) <- count.(c) + 1
    in
    (* drop the started instructions of [pending.(c).(from ..)] *)
    let compact c from =
      let q = pending.(c) in
      let w = ref from in
      for p = from to count.(c) - 1 do
        if starts.(q.(p)) < 0 then begin
          q.(!w) <- q.(p);
          incr w
        end
      done;
      count.(c) <- !w
    in
    let scheduled = ref 0 in
    let cycle = ref 0 in
    (* [usage.(c)]: units of class [c] taken this cycle *)
    let usage = Array.make classes 0 in
    let mems_this_cycle = ref [] in
    (* released this cycle: ready from the next one at the earliest *)
    let released = ref [] in
    (* the earliest cycle a waiting instruction seen this cycle gets ready *)
    let next = ref max_int in
    let fits j =
      let c = cls.(j) in
      usage.(c) < limit.(c)
      && (c <> mem || Bank.cycle_ok resources.mem (addrs.(j) :: !mems_this_cycle))
    in
    let admit j =
      starts.(j) <- !cycle;
      List.iter
        (fun (k, delay) ->
          waiting.(k) <- waiting.(k) - 1;
          let e = !cycle + delay in
          if e > earliest.(k) then earliest.(k) <- e;
          if waiting.(k) = 0 then released := k :: !released)
        succ.(j);
      usage.(cls.(j)) <- usage.(cls.(j)) + 1;
      if cls.(j) = mem then mems_this_cycle := addrs.(j) :: !mems_this_cycle;
      incr scheduled
    in
    (* Class [c]'s ready instructions, best first, while units last. *)
    let admit_class c =
      let q = pending.(c) in
      let p = ref (count.(c) - 1) in
      while !p >= 0 && usage.(c) < limit.(c) do
        let j = q.(!p) in
        if earliest.(j) > !cycle then
          (if earliest.(j) < !next then next := earliest.(j))
        else if fits j then admit j;
        decr p
      done;
      compact c (!p + 1)
    in
    (* Bank affinity: a priority-order greedy pass would pair accesses
       of different arrays (mutual "maybe same bank" conflicts) and cap
       every cycle at one bank's ports.  Admit conflict-free additions
       — accesses provably on a different bank than everything already
       issued — first, then let the leftovers fill the remaining ports
       of contended banks.  Within a cycle the inversion is harmless:
       co-issued is co-issued.  Non-memory ops share no resource class
       with memory, so their admission order is unchanged. *)
    let admit_banked_mem () =
      let q = pending.(mem) in
      for p = count.(mem) - 1 downto 0 do
        let j = q.(p) in
        if earliest.(j) > !cycle then
          (if earliest.(j) < !next then next := earliest.(j))
        else if
          (!mems_this_cycle = []
          || List.for_all
               (Bank.provably_distinct resources.mem addrs.(j))
               !mems_this_cycle)
          && fits j
        then admit j
      done;
      for p = count.(mem) - 1 downto 0 do
        let j = q.(p) in
        if starts.(j) < 0 && earliest.(j) <= !cycle && fits j then admit j
      done;
      compact mem 0
    in
    while !scheduled < n do
      Array.fill usage 0 classes 0;
      mems_this_cycle := [];
      next := max_int;
      let before = !scheduled in
      for c = 0 to classes - 1 do
        if c = mem && banked then admit_banked_mem () else admit_class c
      done;
      List.iter release !released;
      released := [];
      if !scheduled = before && !next < max_int then cycle := !next
      else incr cycle
    done;
    let makespan = ref 1 in
    Array.iteri
      (fun i instr -> makespan := max !makespan (starts.(i) + lat instr))
      instrs;
    { label = b.label; instrs; starts; makespan = !makespan }
  end

let schedule_func ?(resources = default_resources) (f : Ir.func) =
  let regs = regs f in
  {
    func = f;
    blocks = List.map (schedule_block regs resources) f.blocks;
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
  let regs = regs t.func in
  List.iter
    (fun b ->
      let n = Array.length b.instrs in
      let addrs = Bank.addr_forms regs b.instrs in
      let edges =
        dependence_edges
          ?addrs:(if t.resources.mem.banks > 1 then Some addrs else None)
          regs b.instrs
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
