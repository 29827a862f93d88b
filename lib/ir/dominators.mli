(** Dominator analysis over the CFG (iterative dataflow). *)

type t

val compute : Ir.func -> t

val dominates : t -> Ir.label -> Ir.label -> bool
(** [dominates t a b]: every path from the entry to [b] passes through
    [a].  Reflexive. *)

val back_edges : Ir.func -> t -> (Ir.label * Ir.label) list
(** Edges [(u, h)] with [u -> h] in the CFG and [h] dominating [u] —
    one per natural loop latch. *)

val natural_loop : Ir.func -> header:Ir.label -> latch:Ir.label -> Ir.label list
(** Blocks of the natural loop of a back edge: the header plus every
    block that reaches the latch without passing through the header. *)
