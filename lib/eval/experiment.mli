(** First-class experiment registry — the one place that knows every
    table, figure, ablation and sweep the harness can regenerate.

    The CLI dispatches by {!find} and derives its listings and help
    text from {!all}; adding an experiment means adding one record
    here and nowhere else. *)

type kind = Table | Figure | Ablation | Sweep

val kind_name : kind -> string

type t = {
  name : string;  (** lookup key, e.g. ["table3"] or ["robust"] *)
  doc : string;  (** one-line summary for listings and [--help] *)
  kind : kind;
  run : Vmht.Config.t -> string;
      (** render the experiment against a base configuration; every
          sweep derives its points from it, so CLI overrides (seed,
          fault plan, ...) reach every run *)
}

val all : t list
(** In report order: table1..table6, fig1..fig6, abl1..abl5, robust. *)

val find : string -> t option

val by_kind : kind -> t list

val run : ?config:Vmht.Config.t -> t -> string
(** [run e] is [e.run config] (default {!Vmht.Config.default}). *)

val run_all : ?config:Vmht.Config.t -> unit -> string
(** Every experiment, each under a [===== name =====] header — the
    full evaluation section.  Experiments run in parallel on the
    domain pool; the output is byte-identical at any width. *)
