module Ir = Vmht_ir.Ir
module Ast = Vmht_lang.Ast

type plan = {
  header : Ir.label;
  body : Ir.label;
  exit : Ir.label;
  ii : int;
  depth : int;
  unpipelined_cycles : int;
  rec_mii : int;
  res_mii : int;
}

let lat instr = Optypes.latency (Optypes.classify instr)

let is_mem = function
  | Ir.Load _ | Ir.Store _ -> true
  | Ir.Bin _ | Ir.Un _ | Ir.Mov _ -> false

let is_store = function
  | Ir.Store _ -> true
  | Ir.Load _ | Ir.Bin _ | Ir.Un _ | Ir.Mov _ -> false

(* ------------------------------------------------------------------ *)
(* Loop shape detection                                                *)
(* ------------------------------------------------------------------ *)

(* The lowerer emits while loops as  header(cond) -> body -> header.
   A loop is pipelinable when the body is a single straight-line block
   jumping back to the header and nothing else enters the body. *)
let find_candidate_loops (f : Ir.func) =
  let preds = Ir.predecessors f in
  let index = Ir.block_index f in
  List.filter_map
    (fun (h : Ir.block) ->
      match h.Ir.term with
      | Ir.Br (_, body_l, exit_l) when body_l <> exit_l -> (
        match Hashtbl.find_opt index body_l with
        | Some b when b.Ir.term = Ir.Jmp h.Ir.label ->
          let body_preds =
            Option.value ~default:[] (Hashtbl.find_opt preds body_l)
          in
          if body_preds = [ h.Ir.label ] then Some (h, b, exit_l) else None
        | Some _ | None -> None)
      | Ir.Br _ | Ir.Jmp _ | Ir.Ret _ -> None)
    f.Ir.blocks

(* ------------------------------------------------------------------ *)
(* Streaming-address analysis                                          *)
(* ------------------------------------------------------------------ *)

(* The registers the loop redefines each iteration. *)
let defs_in instrs =
  let defs = Hashtbl.create 16 in
  Array.iter
    (fun i ->
      match Ir.def_of i with
      | Some d ->
        Hashtbl.replace defs d
          (1 + Option.value ~default:0 (Hashtbl.find_opt defs d))
      | None -> ())
    instrs;
  defs

(* The loop's induction registers: regs whose only in-loop definitions
   form the chain  r' = r + imm ; r = r'  (what lowering produces for
   [i = i + 1]), or directly  r = r + imm.  The body's copies are
   gathered first, so each add is matched against them in one lookup. *)
let induction_regs instrs defs =
  let once r = Hashtbl.find_opt defs r = Some 1 in
  let copies = Hashtbl.create 8 in
  Array.iter
    (function
      | Ir.Mov (r', Ir.Reg s) -> Hashtbl.replace copies (r', s) ()
      | Ir.Bin _ | Ir.Un _ | Ir.Mov _ | Ir.Load _ | Ir.Store _ -> ())
    instrs;
  let inductions = Hashtbl.create 4 in
  Array.iter
    (fun instr ->
      match instr with
      | Ir.Bin (Ast.Add, d, Ir.Reg r, Ir.Imm _)
      | Ir.Bin (Ast.Add, d, Ir.Imm _, Ir.Reg r) ->
        (* d = r + c; is r then Mov'd back from d (or d = r)? *)
        if (d = r && once d) || (Hashtbl.mem copies (r, d) && once r && once d)
        then Hashtbl.replace inductions r ()
      | _ -> ())
    instrs;
  inductions

(* An address register is "streaming" when it is computed inside the
   loop as  base + (ind << k)  with [base] loop-invariant: iterations
   then touch distinct words of distinct arrays (restrict assumption).
   Maps each such register to its base register (the last such
   definition's) for disjointness comparison. *)
let streaming_bases instrs defs inductions =
  let invariant r = not (Hashtbl.mem defs r) in
  let shifted = Hashtbl.create 8 in
  Array.iter
    (function
      | Ir.Bin (Ast.Shl, d, Ir.Reg src, Ir.Imm _) when Hashtbl.mem inductions src ->
        Hashtbl.replace shifted d ()
      | _ -> ())
    instrs;
  let shifted_induction = function
    | Ir.Reg r -> Hashtbl.mem shifted r
    | Ir.Imm _ -> false
  in
  let bases = Hashtbl.create 8 in
  Array.iter
    (fun instr ->
      match instr with
      | Ir.Bin (Ast.Add, d, Ir.Reg base, off)
        when invariant base && shifted_induction off ->
        Hashtbl.replace bases d base
      | Ir.Bin (Ast.Add, d, off, Ir.Reg base)
        when invariant base && shifted_induction off ->
        Hashtbl.replace bases d base
      | _ -> ())
    instrs;
  bases

let mem_addr_op = function
  | Ir.Load (_, addr) | Ir.Store (addr, _) -> Some addr
  | Ir.Bin _ | Ir.Un _ | Ir.Mov _ -> None

(* The indices of the loads and stores, in program order. *)
let accesses instrs =
  let acc = ref [] in
  for i = Array.length instrs - 1 downto 0 do
    if is_mem instrs.(i) then acc := i :: !acc
  done;
  Array.of_list !acc

(* ------------------------------------------------------------------ *)
(* Inter-iteration (distance-1) dependence edges                       *)
(* ------------------------------------------------------------------ *)

(* (producer, consumer, delay): start(consumer) >= start(producer) +
   delay - II. *)
let inter_iteration_edges instrs mems defs inductions =
  let edges = ref [] in
  (* Register recurrences: the LAST def of r feeds every use of r at or
     before it (those uses read the previous iteration's value). *)
  let last_def = Hashtbl.create 16 in
  Array.iteri
    (fun i instr ->
      match Ir.def_of instr with
      | Some d -> Hashtbl.replace last_def d i
      | None -> ())
    instrs;
  Array.iteri
    (fun u instr ->
      Ir.iter_uses
        (fun r ->
          match Hashtbl.find_opt last_def r with
          | Some p when u <= p ->
            edges := (p, u, lat instrs.(p)) :: !edges
          | Some _ | None -> ())
        instr)
    instrs;
  (* Memory recurrences between the accesses, unless provably
     streaming-disjoint. *)
  let streaming = streaming_bases instrs defs inductions in
  let base i =
    match mem_addr_op instrs.(i) with
    | Some (Ir.Reg r) -> Hashtbl.find_opt streaming r
    | Some (Ir.Imm _) | None -> None
  in
  let bases = Array.map base mems in
  let stores = Array.map (fun i -> is_store instrs.(i)) mems in
  Array.iteri
    (fun a p ->
      Array.iteri
        (fun b u ->
          if stores.(a) || stores.(b) then begin
            let disjoint =
              match (bases.(a), bases.(b)) with
              | Some bp, Some bu ->
                (* Streaming against distinct restrict bases never recurs;
                   the same base recurs only if one is a store to the very
                   same induction offset — which streaming rules out. *)
                bp <> bu || not (stores.(a) && stores.(b))
              | _ -> false
            in
            if not disjoint then edges := (p, u, 1) :: !edges
          end)
        mems)
    mems;
  !edges

(* ------------------------------------------------------------------ *)
(* Modulo scheduling                                                   *)
(* ------------------------------------------------------------------ *)

let resource_min_ii resources instrs =
  List.fold_left
    (fun acc cls ->
      let count =
        Array.fold_left
          (fun c i -> if Optypes.classify i = cls then c + 1 else c)
          0 instrs
      in
      if count = 0 then acc
      else
        max acc
          (Vmht_util.Bits.ceil_div count (Schedule.resource_limit resources cls)))
    1 Optypes.all_classes

(* Bank-pressure refinement of the memory resource bound: every access
   conflicting with access [i] (not provably on another bank, [i]
   itself included) competes for the same bank's ports, and such a
   conflict set is mutually conflicting — accesses sharing [i]'s
   symbolic form share its bank residue, and accesses with a different
   form conflict with everything.  So each set is a clique needing
   [ceil (|set| / ports_per_bank)] distinct modulo slots.  With one
   bank this is exactly the old [ceil (mem_count / ports)] bound. *)
let bank_min_ii (m : Schedule.mem_model) mems addrs =
  Array.fold_left
    (fun mii i ->
      let conflicts =
        Array.fold_left
          (fun c j ->
            if Schedule.Bank.provably_distinct m addrs.(i) addrs.(j) then c
            else c + 1)
          0 mems
      in
      max mii (Vmht_util.Bits.ceil_div conflicts m.Schedule.ports_per_bank))
    1 mems

(* Recurrence-constrained minimum II: an inter-iteration edge
   (producer [p], consumer [u], delay) closes a cycle whose intra part
   is the longest dependence path [u ->* p]; any feasible schedule has
   [starts p >= starts u + path], and the inter constraint
   [starts u + ii >= starts p + delay] then forces
   [ii >= delay + path].  Loop-carried load/store chains enter through
   the memory inter edges, so memory recurrences bound the II even
   when ports are plentiful. *)
let recurrence_min_ii instrs intra inter =
  let n = Array.length instrs in
  (* Longest intra path to [p] from every earlier instruction, computed
     once per producer [p] that some inter edge names: a loop has far
     fewer producers (its carried registers and its accesses) than
     consumers. *)
  let into = Array.make n [||] in
  let dist_into p =
    if Array.length into.(p) = 0 then begin
      let dist = Array.make (p + 1) min_int in
      dist.(p) <- 0;
      (* intra edges only go forward in program order, so every path
         from [j] to [p] is final before [j]'s in-edges are followed *)
      for j = p downto 1 do
        if dist.(j) > min_int then
          List.iter
            (fun (i, delay) -> dist.(i) <- max dist.(i) (dist.(j) + delay))
            intra.(j)
      done;
      into.(p) <- dist
    end;
    into.(p)
  in
  List.fold_left
    (fun acc (p, u, delay) ->
      if u > p then acc
      else
        let path = (dist_into p).(u) in
        if path > min_int then max acc (delay + path) else acc)
    1 inter

(* Greedy program-order schedule under intra-iteration dependences and
   the modulo resource table for a fixed II; [None] when the II's
   resource table cannot host the instructions.  Memory slots arbitrate
   through the bank model: an access fits a modulo slot only if the
   slot's whole access set stays admissible. *)
let try_schedule resources ~ii instrs intra_edges addrs =
  let n = Array.length instrs in
  let starts = Array.make n 0 in
  (* [reservation.(slot * class_count + class_index cls)]: the units of
     [cls] taken in modulo slot [slot]; [mem_slots.(slot)]: its
     accesses. *)
  let class_count = Optypes.class_count and class_index = Optypes.class_index in
  let reservation = Array.make (ii * class_count) 0 in
  let mem_slots = Array.make ii [] in
  let fits slot cls j =
    let slot = slot mod ii in
    reservation.((slot * class_count) + class_index cls)
    < Schedule.resource_limit resources cls
    && (cls <> Optypes.Mem
       || Schedule.Bank.cycle_ok resources.Schedule.mem
            (addrs.(j) :: mem_slots.(slot)))
  in
  let reserve slot cls j =
    let slot = slot mod ii in
    let k = (slot * class_count) + class_index cls in
    reservation.(k) <- reservation.(k) + 1;
    if cls = Optypes.Mem then mem_slots.(slot) <- addrs.(j) :: mem_slots.(slot)
  in
  let ok = ref true in
  for j = 0 to n - 1 do
    if !ok then begin
      let earliest =
        List.fold_left
          (fun acc (i, delay) -> max acc (starts.(i) + delay))
          0 intra_edges.(j)
      in
      let cls = Optypes.classify instrs.(j) in
      (* A free modulo slot exists within any window of II slots. *)
      let rec find slot budget =
        if budget = 0 then None
        else if fits slot cls j then Some slot
        else find (slot + 1) (budget - 1)
      in
      match find earliest ii with
      | Some slot ->
        starts.(j) <- slot;
        reserve slot cls j
      | None -> ok := false
    end
  done;
  if !ok then Some starts else None

let plan_loop regs resources (h : Ir.block) (b : Ir.block) exit_l =
  let instrs = Array.of_list (h.Ir.instrs @ b.Ir.instrs) in
  if Array.length instrs = 0 then None
  else begin
    let n = Array.length instrs in
    let addrs = Schedule.Bank.addr_forms regs instrs in
    (* Dependences without the bank analysis: per block, the plain
       FSM's; for the whole body, the pipeline's under one bank.  The
       edges within a block's index range imply every constraint between
       its instructions (each implied path lies between its ends), so
       each block's own edges are the ones within its range. *)
    let flat = Schedule.dependence_edges regs instrs in
    let intra =
      if resources.Schedule.mem.Schedule.banks > 1 then
        Schedule.dependence_edges ~addrs regs instrs
      else flat
    in
    let mems = accesses instrs in
    let defs = defs_in instrs in
    let inductions = induction_regs instrs defs in
    let inter = inter_iteration_edges instrs mems defs inductions in
    (* What the plain FSM charges per iteration: the (resource-
       unconstrained) ASAP makespans of the two blocks, [instrs.(lo ..
       hi - 1)] each. *)
    let makespan lo hi =
      let starts = Array.make n 0 in
      let span = ref 1 in
      for j = lo to hi - 1 do
        starts.(j) <-
          List.fold_left
            (fun acc (i, d) -> if i >= lo then max acc (starts.(i) + d) else acc)
            0 flat.(j);
        span := max !span (starts.(j) + lat instrs.(j))
      done;
      !span
    in
    let split = List.length h.Ir.instrs in
    let unpipelined_cycles = makespan 0 split + makespan split n in
    let res_mii =
      max
        (resource_min_ii resources instrs)
        (bank_min_ii resources.Schedule.mem mems addrs)
    in
    let rec_mii = recurrence_min_ii instrs intra inter in
    let min_ii = max res_mii rec_mii in
    let max_ii = max min_ii unpipelined_cycles in
    let rec search ii =
      if ii > max_ii then None
      else
        match try_schedule resources ~ii instrs intra addrs with
        | None -> search (ii + 1)
        | Some starts ->
          let inter_ok =
            List.for_all
              (fun (p, u, delay) -> starts.(u) + ii >= starts.(p) + delay)
              inter
          in
          if inter_ok then Some (ii, starts) else search (ii + 1)
    in
    match search min_ii with
    | None -> None
    | Some (ii, starts) ->
      let depth =
        Array.to_list instrs
        |> List.mapi (fun i instr -> starts.(i) + lat instr)
        |> List.fold_left max ii
      in
      if ii < unpipelined_cycles then
        Some
          {
            header = h.Ir.label;
            body = b.Ir.label;
            exit = exit_l;
            ii;
            depth;
            unpipelined_cycles;
            rec_mii;
            res_mii;
          }
      else None
  end

let plan_loops (f : Ir.func) ~resources =
  let regs = Schedule.regs f in
  List.filter_map
    (fun (h, b, exit_l) -> plan_loop regs resources h b exit_l)
    (find_candidate_loops f)

let to_string p =
  Printf.sprintf "loop L%d/L%d: II=%d depth=%d (FSM iteration %d cycles)"
    p.header p.body p.ii p.depth p.unpipelined_cycles
