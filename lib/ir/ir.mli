(** Three-address intermediate representation.

    A function is a control-flow graph of basic blocks over an infinite
    set of virtual registers.  Memory is addressed by byte; [Load]/
    [Store] take a fully computed address operand, so address arithmetic
    is visible to the optimizer and the scheduler. *)

type reg = int

type label = int

type operand = Reg of reg | Imm of int

type instr =
  | Bin of Vmht_lang.Ast.binop * reg * operand * operand
  | Un of Vmht_lang.Ast.unop * reg * operand
  | Mov of reg * operand
  | Load of reg * operand (* dst <- mem[addr] *)
  | Store of operand * operand (* mem[addr] <- value *)

type terminator =
  | Jmp of label
  | Br of operand * label * label (* non-zero -> first label *)
  | Ret of operand option

type block = {
  label : label;
  mutable instrs : instr list;
  mutable term : terminator;
}

type func = {
  fname : string;
  arg_regs : reg list;
  returns_value : bool;
  mutable blocks : block list; (* head is the entry block *)
  mutable next_reg : reg;
  mutable next_label : label;
}

val create_func : name:string -> arg_count:int -> returns_value:bool -> func
(** A function whose argument registers are [0 .. arg_count-1] and whose
    block list is initially empty. *)

val fresh_reg : func -> reg

val fresh_label : func -> label

val add_block : func -> label -> block
(** Create and append an (initially empty, [Ret None]-terminated) block. *)

val find_block : func -> label -> block
(** Raises [Not_found] for labels with no block. *)

val block_index : func -> (label, block) Hashtbl.t
(** Every block by label, built in one pass: the first block wins for a
    duplicated label, as with {!find_block}. *)

val entry : func -> block
(** The entry block.  Raises [Invalid_argument] on an empty function. *)

val def_of : instr -> reg option
(** The register an instruction defines, if any. *)

val def_reg : instr -> reg
(** The register an instruction defines, or -1 for a [Store], which
    defines none: {!def_of} without the option, for per-instruction
    paths that must not allocate. *)

val iter_def : (reg -> unit) -> instr -> unit
(** [iter_def k i] calls [k] on the register [i] defines, if any. *)

val iter_uses : (reg -> unit) -> instr -> unit
(** [iter_uses k i] calls [k] on the registers [i] reads, in operand
    order. *)

val iter_term_uses : (reg -> unit) -> terminator -> unit
(** The registers a terminator reads. *)

val successors : terminator -> label list

val label_bound : func -> int
(** One more than the largest label a block carries or a terminator
    targets: the length of an array indexed by label. *)

val predecessors : func -> (label, label list) Hashtbl.t
(** Map from block label to the labels of its predecessors. *)

val instr_count : func -> int

val block_count : func -> int

val is_pure : instr -> bool
(** True for instructions with no memory side effect (everything except
    [Store]).  Pure instructions whose result is dead can be deleted. *)

val instr_to_string : instr -> string

val term_to_string : terminator -> string

val func_to_string : func -> string

val validate : func -> unit
(** Structural sanity: every referenced label has a block, the entry
    exists, and no instruction reads a register that no path defines.
    Raises [Failure] with a description on violation.  Used by tests and
    after every optimization pass. *)
