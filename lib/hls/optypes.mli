(** Functional-unit classes, latencies and the calibrated area model.

    Latencies are in fabric clock cycles and are the *static* latencies
    the scheduler plans with; memory operations additionally stall the
    finite-state machine dynamically until the interface answers.  Area
    numbers are per bound functional unit for a 64-bit datapath,
    calibrated to be in the range FPGA synthesis reports for such
    operators (see DESIGN.md: the reported quantity is the *relative*
    overhead between wrapper styles, which this model preserves). *)

type op_class = Alu | Cmp | Mul | Div | Shift | Mem | Move

val all_classes : op_class list

val class_count : int

val class_index : op_class -> int
(** The class's position in {!all_classes}: a dense index in
    [[0, class_count)] for per-class tables. *)

val class_name : op_class -> string

val classify : Vmht_ir.Ir.instr -> op_class

val latency : op_class -> int
(** Static latency used for scheduling dependences.  [Mem] returns the
    nominal issue latency (the dynamic stall is added in simulation). *)

type area = { lut : int; ff : int; dsp : int; bram : int }
(** [bram] in 18Kb half-blocks, as vendor tools count them. *)

val zero_area : area

val add_area : area -> area -> area

val scale_area : int -> area -> area

val fu_area : op_class -> area
(** Area of one functional unit of the class. *)

val register_area : int -> area
(** Area of [n] 64-bit datapath registers (FFs plus input muxing). *)

val bank_area : banks:int -> area
(** Arbitration logic of a [banks]-way banked scratchpad (address
    decode, request arbiter, return mux); {!zero_area} for one bank. *)

val fsm_area : states:int -> area
(** Controller area as a function of the state count. *)

val area_to_string : area -> string
