(** Functional-unit and register binding.

    The schedule fixes how many same-class operations execute in one
    cycle; binding assigns each operation a concrete unit (greedy,
    cycle-local) and sizes the register file from peak liveness.  Units
    are shared across basic blocks — the FSM is one datapath. *)

type t = {
  schedule : Schedule.t;
  fu_counts : (Optypes.op_class * int) list;
      (** units instantiated per class (classes with zero uses omitted) *)
  fu_of_instr : (Vmht_ir.Ir.label * int, int) Hashtbl.t;
      (** (block label, instruction index) -> unit index within class *)
  reg_count : int; (** datapath registers (peak simultaneous liveness) *)
  mem_banks : int;
      (** scratchpad banks the schedule was arbitrated against (from
          {!Schedule.mem_model}; 1 = flat memory, no arbiter) *)
  mem_channels : int;
      (** peak same-cycle memory accesses = request channels the
          datapath needs (0 for memory-free kernels) *)
}

val bind : Schedule.t -> t

val total_fus : t -> int

val to_string : t -> string
