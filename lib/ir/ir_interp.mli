(** IR-level interpreter.

    The semantic oracle for the optimization passes (its results must
    match the AST interpreter).  Driven with hooks that charge cycle
    costs per instruction and a memory whose [load]/[store] perform
    timed bus transactions, it is also the per-instruction reference
    the compiled CPU ([Vmht_cpu.Cpu]) is tested against.  {!compile_op}
    gives the compiled executors the same datapath semantics as
    closures. *)

type hooks = {
  on_instr : Ir.instr -> unit;
      (** called before each executed instruction *)
  on_branch : taken:bool -> unit;
      (** called at each conditional branch *)
}

exception Runaway of int
(** Raised when execution exceeds the step bound. *)

val run :
  ?hooks:hooks ->
  ?max_steps:int ->
  Vmht_lang.Ast_interp.memory ->
  Ir.func ->
  args:int list ->
  int option
(** Execute a function.  [max_steps] (default 100 million) bounds the
    number of executed instructions to catch non-terminating programs
    in tests.  Raises [Invalid_argument] on argument-count mismatch. *)

val compile_op :
  int array -> into:int array -> slot:int -> Ir.instr -> unit -> unit
(** [compile_op regs ~into ~slot op] compiles the datapath op [op] (a
    [Bin], [Un] or [Mov]) into a closure that evaluates it on [regs] as
    they are when it runs and writes the value to [into.(slot)]: the
    register transfers of the compiled executors ([Vmht_cpu.Cpu],
    [Vmht_hls.Accel]), which pass their register file or a scratch
    array.  A division by zero raises
    {!Vmht_lang.Ast_interp.Eval_error} when the closure runs.  Raises
    [Invalid_argument] on a load or store. *)
