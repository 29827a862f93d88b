(** Backward liveness dataflow over the CFG. *)

module Regset : Set.S with type elt = Ir.reg

type t

val compute : Ir.func -> t
(** One scan of the blocks builds every block's use and def bit
    vectors, sized by [next_reg] and widened in place for any register
    the blocks mention past it; a backward fixpoint over the CFG then
    gives the live sets.  Raises [Invalid_argument] on a negative
    register or label and [Not_found] on a branch to a label that no
    block carries. *)

val live_in : t -> Ir.label -> Regset.t

val live_out : t -> Ir.label -> Regset.t

val mem_live_in : t -> Ir.label -> Ir.reg -> bool
(** [mem_live_in info l r]: is [r] live into block [l]?  Answers from
    the bit vectors without building a set. *)

val mem_live_out : t -> Ir.label -> Ir.reg -> bool

val min_live_in : t -> Ir.label -> except:(Ir.reg -> bool) -> Ir.reg option
(** The lowest register live into the block for which [except] is
    false. *)

val iter_live_after :
  t -> Ir.block -> (Ir.instr -> (Ir.reg -> bool) -> unit) -> unit
(** [iter_live_after info b k] calls [k instr live] on the instructions
    of [b] from last to first, where [live r] tells whether [r] is live
    immediately after [instr] (terminator reads included).  The scan
    counts the reads of every instruction of [b] as it stood when the
    scan began, so [k] may rebuild [b.instrs] as it goes.  Used by
    dead-code elimination. *)

val max_live : Ir.func -> t -> int
(** The maximum number of simultaneously live registers at any
    instruction boundary — an estimate of datapath register pressure. *)
