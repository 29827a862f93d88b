(** IR-level interpreter.

    The semantic oracle for the optimization passes (its results must
    match the AST interpreter).  Driven with hooks that charge cycle
    costs per instruction and a memory whose [load]/[store] perform
    timed bus transactions, it is also the per-instruction reference
    the compiled CPU ([Vmht_cpu.Cpu]) is tested against. *)

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
