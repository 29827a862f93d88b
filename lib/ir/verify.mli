(** IR verifier.

    A stricter check than {!Ir.validate}, run between passes in checked
    builds: CFG well-formedness (unique labels, resolvable branch
    targets, entry block first), register/label counters consistent with
    the function's allocators, def-before-use on every path from the
    entry (via {!Liveness}), and return-arity agreement with
    [returns_value] on reachable blocks.

    Register and target ranges are checked in one scan of the blocks
    in order, an instruction's definition before its uses and a
    terminator's operand before its targets; def-before-use then costs
    one {!Liveness.compute}, whose own scan is the only other pass over
    the instructions. *)

exception Error of string

val check : Ir.func -> (unit, string) result
(** Run all checks; [Error msg] describes the first violation. *)

val run : Ir.func -> unit
(** Like {!check} but raises {!Error} on violation — the form used by
    {!Pass_manager} between passes. *)
