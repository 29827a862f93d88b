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
   [i = i + 1]), or directly  r = r + imm. *)
let induction_regs instrs defs =
  let inductions = Hashtbl.create 4 in
  Array.iter
    (fun instr ->
      match instr with
      | Ir.Bin (Ast.Add, d, Ir.Reg r, Ir.Imm _)
      | Ir.Bin (Ast.Add, d, Ir.Imm _, Ir.Reg r) -> (
        (* d = r + c; is r then Mov'd back from d (or d = r)? *)
        if d = r && Hashtbl.find_opt defs d = Some 1 then
          Hashtbl.replace inductions r ()
        else
          Array.iter
            (fun instr2 ->
              match instr2 with
              | Ir.Mov (r', Ir.Reg s)
                when r' = r && s = d
                     && Hashtbl.find_opt defs r = Some 1
                     && Hashtbl.find_opt defs d = Some 1 ->
                Hashtbl.replace inductions r ()
              | _ -> ())
            instrs)
      | _ -> ())
    instrs;
  inductions

(* An address register is "streaming" when it is computed inside the
   loop as  base + (ind << k)  with [base] loop-invariant: iterations
   then touch distinct words of distinct arrays (restrict assumption).
   Returns the base register for disjointness comparison. *)
let streaming_base instrs defs inductions addr_op =
  let invariant r = not (Hashtbl.mem defs r) in
  let shifted_induction = function
    | Ir.Reg r ->
      Array.exists
        (fun instr ->
          match instr with
          | Ir.Bin (Ast.Shl, d, Ir.Reg src, Ir.Imm _) ->
            d = r && Hashtbl.mem inductions src
          | _ -> false)
        instrs
    | Ir.Imm _ -> false
  in
  match addr_op with
  | Ir.Reg addr_reg ->
    Array.fold_left
      (fun acc instr ->
        match instr with
        | Ir.Bin (Ast.Add, d, Ir.Reg base, off)
          when d = addr_reg && invariant base && shifted_induction off ->
          Some base
        | Ir.Bin (Ast.Add, d, off, Ir.Reg base)
          when d = addr_reg && invariant base && shifted_induction off ->
          Some base
        | _ -> acc)
      None instrs
  | Ir.Imm _ -> None

let mem_addr_op = function
  | Ir.Load (_, addr) | Ir.Store (addr, _) -> Some addr
  | Ir.Bin _ | Ir.Un _ | Ir.Mov _ -> None

(* ------------------------------------------------------------------ *)
(* Inter-iteration (distance-1) dependence edges                       *)
(* ------------------------------------------------------------------ *)

(* (producer, consumer, delay): start(consumer) >= start(producer) +
   delay - II. *)
let inter_iteration_edges instrs defs inductions =
  let n = Array.length instrs in
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
  (* Memory recurrences, unless provably streaming-disjoint.  Each
     access's streaming base takes two scans of the body to derive, so
     it is derived once per instruction. *)
  let bases =
    Array.map
      (fun instr ->
        match mem_addr_op instr with
        | Some addr -> streaming_base instrs defs inductions addr
        | None -> None)
      instrs
  in
  let mems = Array.map is_mem instrs and stores = Array.map is_store instrs in
  for p = 0 to n - 1 do
    for u = 0 to n - 1 do
      if mems.(p) && mems.(u) && (stores.(p) || stores.(u)) then begin
        let disjoint =
          match (bases.(p), bases.(u)) with
          | Some bp, Some bu ->
            (* Streaming against distinct restrict bases never recurs;
               the same base recurs only if one is a store to the very
               same induction offset — which streaming rules out. *)
            bp <> bu || not (stores.(p) && stores.(u))
          | _ -> false
        in
        if not disjoint then edges := (p, u, 1) :: !edges
      end
    done
  done;
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
let bank_min_ii (m : Schedule.mem_model) instrs addrs =
  let n = Array.length instrs in
  let mii = ref 1 in
  for i = 0 to n - 1 do
    if is_mem instrs.(i) then begin
      let conflicts = ref 0 in
      for j = 0 to n - 1 do
        if is_mem instrs.(j)
           && not (Schedule.Bank.provably_distinct m addrs.(i) addrs.(j))
        then incr conflicts
      done;
      mii := max !mii (Vmht_util.Bits.ceil_div !conflicts m.Schedule.ports_per_bank)
    end
  done;
  !mii

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
  (* Longest intra path from [u] to every later instruction, computed
     once per consumer [u] that some inter edge names. *)
  let from = Array.make n [||] in
  let dist_from u =
    if Array.length from.(u) = 0 then begin
      let dist = Array.make n min_int in
      dist.(u) <- 0;
      (* intra edges only go forward in program order *)
      for j = u + 1 to n - 1 do
        List.iter
          (fun (i, delay) ->
            if i >= u && dist.(i) > min_int then
              dist.(j) <- max dist.(j) (dist.(i) + delay))
          intra.(j)
      done;
      from.(u) <- dist
    end;
    from.(u)
  in
  List.fold_left
    (fun acc (p, u, delay) ->
      if u > p then acc
      else
        let path = (dist_from u).(p) in
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

let plan_loop ~roots resources (h : Ir.block) (b : Ir.block) exit_l =
  let instrs = Array.of_list (h.Ir.instrs @ b.Ir.instrs) in
  if Array.length instrs = 0 then None
  else begin
    let n = Array.length instrs in
    let addrs = Schedule.Bank.addr_forms ~roots instrs in
    (* Dependences without the bank analysis: per block, the plain
       FSM's; for the whole body, the pipeline's under one bank.  Edges
       depend only on the two instructions they join, so each block's
       own edges are the ones within its index range. *)
    let flat = Schedule.dependence_edges instrs in
    let intra =
      if resources.Schedule.mem.Schedule.banks > 1 then
        Schedule.dependence_edges ~addrs instrs
      else flat
    in
    let defs = defs_in instrs in
    let inductions = induction_regs instrs defs in
    let inter = inter_iteration_edges instrs defs inductions in
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
        (bank_min_ii resources.Schedule.mem instrs addrs)
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
  let roots = Schedule.Bank.stable_args f in
  List.filter_map
    (fun (h, b, exit_l) -> plan_loop ~roots resources h b exit_l)
    (find_candidate_loops f)

let to_string p =
  Printf.sprintf "loop L%d/L%d: II=%d depth=%d (FSM iteration %d cycles)"
    p.header p.body p.ii p.depth p.unpipelined_cycles
