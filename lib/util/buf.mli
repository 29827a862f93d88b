(** Buffer writers that allocate nothing. *)

val add_int : Buffer.t -> int -> unit
(** [add_int buf n] appends [n]'s decimal digits, as [string_of_int]
    prints them, without building the string. *)
