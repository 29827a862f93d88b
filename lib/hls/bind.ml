module Ir = Vmht_ir.Ir
module Liveness = Vmht_ir.Liveness

type t = {
  schedule : Schedule.t;
  fu_counts : (Optypes.op_class * int) list;
  fu_of_instr : int array array;
  reg_count : int;
  mem_banks : int;
  mem_channels : int;
}

let bind (sched : Schedule.t) =
  let fu_of_instr = Array.make (Ir.label_bound sched.Schedule.func) [||] in
  (* [peak.(class_index cls)]: the most units of [cls] any one cycle
     takes, over every block *)
  let peak = Array.make Optypes.class_count 0 in
  (* Greedy cycle-local assignment: operations in the same cycle take
     unit 0, 1, ... of their class in program order; across cycles
     units are reused. *)
  List.iter
    (fun (b : Schedule.block_schedule) ->
      let units = Array.make (Array.length b.instrs) 0 in
      (* [used.(class_index cls)]: units of [cls] taken in the cycle *)
      let used = Array.make Optypes.class_count 0 in
      Array.iter
        (fun starting ->
          Array.fill used 0 Optypes.class_count 0;
          List.iter
            (fun i ->
              let k = Optypes.class_index (Optypes.classify b.instrs.(i)) in
              units.(i) <- used.(k);
              used.(k) <- used.(k) + 1;
              if used.(k) > peak.(k) then peak.(k) <- used.(k))
            starting)
        (Schedule.instrs_by_cycle b);
      fu_of_instr.(b.label) <- units)
    sched.blocks;
  let peak cls = peak.(Optypes.class_index cls) in
  let fu_counts =
    List.filter_map
      (fun cls ->
        match peak cls with
        | 0 -> None
        | n when cls = Optypes.Move -> ignore n; None (* moves are wires *)
        | n -> Some (cls, n))
      Optypes.all_classes
  in
  let live = Liveness.compute sched.func in
  let reg_count =
    max
      (Liveness.max_live sched.func live)
      (List.length sched.func.Ir.arg_regs)
  in
  (* The banked scratchpad the schedule was arbitrated against: the
     bank count sizes the arbiter/decoder logic, the peak same-cycle
     memory concurrency sizes the datapath's request channels. *)
  let mem_banks = sched.Schedule.resources.Schedule.mem.Schedule.banks in
  let mem_channels = peak Optypes.Mem in
  { schedule = sched; fu_counts; fu_of_instr; reg_count; mem_banks; mem_channels }

let total_fus t = List.fold_left (fun acc (_, n) -> acc + n) 0 t.fu_counts

let to_string t =
  let fus =
    String.concat ", "
      (List.map
         (fun (cls, n) -> Printf.sprintf "%s=%d" (Optypes.class_name cls) n)
         t.fu_counts)
  in
  Printf.sprintf "bind: [%s], %d registers" fus t.reg_count
