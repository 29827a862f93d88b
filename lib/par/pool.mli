(** Fixed-size domain pool with deterministic, ordered fan-out.

    A pool owns [domains - 1] worker domains (the caller is the
    remaining lane: during {!map} it executes queued tasks itself
    instead of blocking, so nested [map] calls never deadlock on a
    full pool).  Tasks are plain closures; results come back in
    submission order regardless of completion order, which is what
    lets callers that render text from sweep results stay
    byte-identical to a sequential run.

    A pool with [domains = 1] spawns nothing and [map] degenerates to
    [List.map] on the calling domain — same execution order, same
    allocation behaviour, no synchronization.

    Observability: each worker registers a stable span thread id
    (1 .. domains-1; the submitting caller is track 0), and when
    {!Vmht_obs.Span} is enabled every task runs inside a span carrying
    a flow edge back to the span that submitted the [map] — so a
    [-j N] run renders as one coherent multi-track timeline. *)

type t

val create : domains:int -> t
(** [create ~domains] starts a pool of total width [domains] (>= 1):
    [domains - 1] worker domains plus the submitting caller. *)

val size : t -> int
(** Total parallel width (the [domains] passed to {!create}). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] applies [f] to every element, possibly in
    parallel, and returns the results in the order of [xs].  The
    caller participates: while its results are outstanding it pops and
    runs queued tasks (its own or other callers'), so [map] may be
    called from inside a task running on this pool.  If any
    application raises, the exception of the earliest-submitted
    failing element is re-raised (with its backtrace) after all tasks
    of this call have settled. *)

val shutdown : t -> unit
(** Stop accepting work, join the worker domains.  Idempotent.  [map]
    on a shut-down pool raises [Invalid_argument]. *)
