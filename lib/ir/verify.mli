(** IR verifier.

    A stricter check than {!Ir.validate}, run between passes in checked
    builds: CFG well-formedness (unique labels, resolvable branch
    targets, entry block first), register/label counters consistent with
    the function's allocators, def-before-use on every path from the
    entry (via {!Liveness}), and return-arity agreement with
    [returns_value] on reachable blocks. *)

exception Error of string

val check : Ir.func -> (unit, string) result
(** Run all checks; [Error msg] describes the first violation. *)

val run : Ir.func -> unit
(** Like {!check} but raises {!Error} on violation — the form used by
    {!Pass_manager} between passes. *)
