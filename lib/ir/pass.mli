(** First-class optimization passes.

    A pass is a named, documented rewrite over an {!Ir.func} that
    preserves observable semantics and reports how many rewrites it
    performed (so a driver can iterate a schedule to a fixpoint and
    attribute statistics per pass).  {!all} lists every pass of the
    flow: listings, CLI selection ([--passes a,b,c]) and documentation
    are all derived from it, so adding a pass is one entry there. *)

type kind =
  | Scalar  (** straight-line rewrites of individual instructions *)
  | Memory  (** load/store-aware rewrites *)
  | Loop  (** loop-structure-aware rewrites *)
  | Cfg  (** control-flow-graph restructuring *)
  | Cleanup  (** dead-code removal *)

type t = {
  name : string;  (** unique key, e.g. ["const_fold"] *)
  doc : string;  (** one-line description for listings *)
  kind : kind;
  run : Ir.func -> int;  (** apply once; returns the rewrite count *)
}

val kind_name : kind -> string

val all : t list
(** Every pass of {!Passes}, in listing order. *)

val find : string -> t option
