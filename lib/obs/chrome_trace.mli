(** Chrome-trace (Perfetto / chrome://tracing) export of a typed event
    list.

    The emitted document is the standard JSON object format: a
    ["traceEvents"] array whose entries carry ["ph"]/["ts"]/["pid"]/
    ["tid"] fields.  The SoC is one process, named ["vmht-soc"] ([pid]
    1 unless given); every component instance ("bus", "mmu", "accel",
    ...) gets its own named thread track.
    Span events (duration > 0) become complete events (["ph"] = "X"),
    everything else a thread-scoped instant (["ph"] = "i").
    Timestamps are simulation cycles. *)

val to_json : ?pid:int -> Event.t list -> Json.t

val to_string : Event.t list -> string
(** Pretty-printed {!to_json} under [pid] 1. *)
