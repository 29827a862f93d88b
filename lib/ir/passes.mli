(** The optimization passes of the HLS flow.

    Every pass preserves observable semantics (the property test suite
    checks each one against the IR interpreter on random programs) and
    returns how many rewrites it performed, so {!Pass_manager} can
    iterate a schedule to a fixpoint and report per-pass statistics.

    The functions below are also exposed directly for tests; production
    callers go through the {!Pass} list and {!Pass_manager}. *)

val const_fold : Ir.func -> int
(** Fold constant operations and algebraic identities:
    [c1 op c2], [x+0], [x-0], [x*1], [x*0], [x*2^k -> x<<k], [x/1],
    [x&0], [x|0], [x^0], shifts by 0, [br const -> jmp].  Operations
    that would trap at runtime (division by zero) are left in place. *)

val copy_prop : Ir.func -> int
(** Block-local forward propagation of [Mov] sources (registers and
    immediates) into later uses. *)

val cse : Ir.func -> int
(** Block-local value numbering over pure operations; identical loads
    from the same address are shared until a store intervenes. *)

val store_forward : Ir.func -> int
(** Block-local store-to-load forwarding: a [Load] from an address a
    preceding [Store] wrote (with no intervening store and no
    redefinition of the registers involved) becomes a [Mov] of the
    stored value, removing a round trip through the memory port — under
    virtual memory, potentially a TLB miss and a page walk. *)

val strength_reduce : Ir.func -> int
(** Strength reduction and addressing-mode simplification for
    pointer-chase address arithmetic: collapse chains of
    add/subtract-immediate address computations ([(p+8)+8 -> p+16]) so
    each access needs one addition from the base pointer, and rewrite
    multiplications by [2^k +- 1] into a shift and an add/sub. *)

val coalesce : Ir.func -> int
(** Fold adjacent [t = op ...; d = t] pairs (with [t] dead afterwards)
    into a single operation defining [d] — undoes the per-assignment
    temporaries lowering introduces in loop bodies. *)

val licm : Ir.func -> int
(** Loop-invariant code motion (see {!Licm}); returns hoisted count. *)

val dce : Ir.func -> int
(** Global liveness-based dead-code elimination of pure instructions
    (iterated internally to a fixpoint).  [Load]s are pure here: the
    memories have no read side effects, so a load whose result is dead
    is deleted. *)

val simplify_cfg : Ir.func -> int
(** Delete unreachable blocks, thread trivial jumps, and merge blocks
    joined by an unconditional edge with a unique predecessor. *)
