(** Sharded batch synthesis server.

    A server owns a request queue and a fixed fleet of shards.  With
    [shards = 0] (the default) batches execute in-process on the
    shared {!Vmht_par.Parmap} pool; with [shards > 0] the server forks
    that many worker processes up front and speaks the {!Proto}
    framing to them over pipes.  The two execution substrates are
    interchangeable by construction: one planner makes every per-batch
    decision in front of both, outcomes carry no timing, and replies
    are returned in request-id order, so the reply stream and the
    counters for a given batch are the same at any shard count.

    Per batch the planner
    - accounts store hits: a [Synthesize] request whose key is already
      on disk (or seen earlier by this server) is a hit — the
      deterministic, process-independent definition the load generator
      reports;
    - groups the requests that share a synthesis key (an unkeyed
      request is a group of one).  A substrate only runs groups: when
      a group is dispatched, each member whose [deadline_ms] budget
      (from batch submission) is used up fails without running, the
      first live member runs once, and every live member gets its
      outcome (the others count as [deduped]).

    The forked substrate also survives worker death: the group a dead
    worker was running is retried on a respawned one, up to 3 attempts
    in all, then fails; each worker holds at most 8 groups in flight.

    Forking and OCaml 5 domains do not mix, so a sharded server must
    be created before the process spawns any domain (in particular
    before the first wide {!Vmht_par.Parmap.map}); worker respawn then
    stays safe for the server's whole life.  [shards = 0] has no such
    constraint. *)

type t

type stats = {
  submitted : int;
  completed : int;  (** replies with a non-[Failed] outcome *)
  failed : int;  (** replies with a [Failed] outcome, expired included *)
  expired : int;  (** failed by deadline, never dispatched *)
  retried : int;  (** re-dispatches after a worker death *)
  deduped : int;  (** replies that rode on their group's leader *)
  key_hits : int;  (** synthesis requests answerable from the store *)
  key_misses : int;
  latency : Vmht_obs.Histogram.summary;
      (** dispatch-to-outcome wall time of each run, microseconds *)
}

val create :
  ?shards:int ->
  ?store:Store.t ->
  handle:(Proto.request -> Proto.outcome) ->
  unit ->
  t
(** Default [shards = 0].  [store] is only consulted for hit
    accounting ({!Store.contains}); installing it into the flow
    ({!Store.install}) is the caller's business and must happen before
    [create] so forked workers inherit it. *)

val shards : t -> int

val run_batch : t -> Proto.request list -> Proto.reply list
(** Execute one batch; replies sorted by [rid] (which must be unique
    within the batch).  Blocks until every request has a reply. *)

val stats : t -> stats
(** Cumulative across batches. *)

val hit_rate : t -> float
(** [key_hits / (key_hits + key_misses)]; [0.] before any keyed
    request. *)

val shutdown : t -> unit
(** Close the request pipes (workers exit on EOF) and reap them.
    Idempotent; a [shards = 0] server has nothing to do. *)
