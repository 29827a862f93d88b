(* References for the list scheduler.

   [dependence_edges] is the scheduler's all-pairs dependence builder:
   it checks every earlier instruction of a block against every later
   one and keeps each dependent pair with the largest delay a rule
   gives it.  [schedule_block] is the list scheduler that went with
   it, which builds, sorts and walks a fresh ready list every cycle.
   Both are the library's implementations before it kept nearest edges
   only and released instructions into per-class arrays, kept so the
   property in test_hls.ml can hold the library to the same
   priorities, starts and makespans.  Address forms come from the
   library's [Schedule.Bank]. *)

open Vmht_ir
module Optypes = Vmht_hls.Optypes
module Schedule = Vmht_hls.Schedule
module Bank = Schedule.Bank

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

let schedule_block regs resources (b : Ir.block) =
  let instrs = Array.of_list b.instrs in
  let n = Array.length instrs in
  if n = 0 then
    { Schedule.label = b.label; instrs; starts = [||]; makespan = 1 }
  else begin
    let banked = resources.Schedule.mem.Schedule.banks > 1 in
    let addrs = Bank.addr_forms regs instrs in
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
          used < Schedule.resource_limit resources cls
          && (cls <> Optypes.Mem
             || Bank.cycle_ok resources.Schedule.mem (addrs.(j) :: !mems_this_cycle))
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
                      (Bank.provably_distinct resources.Schedule.mem addrs.(j))
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
    { Schedule.label = b.label; instrs; starts; makespan = !makespan }
  end

let schedule_func ~resources (f : Ir.func) =
  let regs = Schedule.regs f in
  {
    Schedule.func = f;
    blocks = List.map (schedule_block regs resources) f.blocks;
    resources;
  }
