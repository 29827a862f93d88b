(** Dominator analysis over the CFG.

    {!compute} finds every reachable block's immediate dominator with
    the Cooper–Harvey–Kennedy iteration over a reverse postorder, then
    numbers the dominator tree in pre- and postorder, so {!dominates}
    is two comparisons.  Time and memory are linear in the blocks (per
    iteration of the fixpoint, which converges in a few passes on
    reducible CFGs), and neither the CFG walk nor the tree walk
    recurses. *)

type t

val compute : Ir.func -> t

val dominates : t -> Ir.label -> Ir.label -> bool
(** [dominates t a b]: every path from the entry to [b] passes through
    [a].  Reflexive.  A block no path reaches is dominated by itself
    alone, and a label that carries no block by nothing. *)

val back_edges : Ir.func -> t -> (Ir.label * Ir.label) list
(** Edges [(u, h)] with [u -> h] in the CFG and [h] dominating [u] —
    one per natural loop latch. *)

val natural_loop : Ir.func -> header:Ir.label -> latch:Ir.label -> Ir.label list
(** Blocks of the natural loop of a back edge: the header plus every
    block that reaches the latch without passing through the header. *)
