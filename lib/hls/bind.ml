module Ir = Vmht_ir.Ir
module Liveness = Vmht_ir.Liveness

type t = {
  schedule : Schedule.t;
  fu_counts : (Optypes.op_class * int) list;
  fu_of_instr : (Ir.label * int, int) Hashtbl.t;
  reg_count : int;
  mem_banks : int;
  mem_channels : int;
}

let bind (sched : Schedule.t) =
  let fu_of_instr = Hashtbl.create 64 in
  (* Greedy cycle-local assignment: operations in the same cycle take
     unit 0, 1, ... of their class; across cycles units are reused. *)
  List.iter
    (fun (b : Schedule.block_schedule) ->
      let order = Array.init (Array.length b.instrs) Fun.id in
      Array.sort
        (fun i j ->
          let c = compare (b.starts.(i) : int) b.starts.(j) in
          if c <> 0 then c else compare (i : int) j)
        order;
      (* [used.(class_index cls)]: units of [cls] taken in [!cycle], the
         start cycle of the instructions being visited. *)
      let used = Array.make Optypes.class_count 0 and cycle = ref (-1) in
      Array.iter
        (fun i ->
          if b.starts.(i) <> !cycle then begin
            cycle := b.starts.(i);
            Array.fill used 0 Optypes.class_count 0
          end;
          let k = Optypes.class_index (Optypes.classify b.instrs.(i)) in
          Hashtbl.replace fu_of_instr (b.label, i) used.(k);
          used.(k) <- used.(k) + 1)
        order)
    sched.blocks;
  let fu_counts =
    List.filter_map
      (fun cls ->
        match Schedule.max_concurrency sched cls with
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
  let mem_channels = Schedule.max_concurrency sched Optypes.Mem in
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
