(** Batch synthesis server.

    A server runs batches of requests in-process, on the shared
    {!Vmht_par.Parmap} domain pool.  Outcomes carry no timing and
    replies are returned in request-id order, so the reply stream and
    the counters for a given batch are the same at any pool width.

    Per batch the planner
    - accounts store hits: a [Synthesize] request whose key is already
      on disk (or seen earlier by this server) is a hit — the
      deterministic definition the load generator reports;
    - groups the requests that share a synthesis key (an unkeyed
      request is a group of one).  The pool runs groups: when a group
      is run, each member whose [deadline_ms] budget (from batch
      submission) is used up fails without running, the first live
      member runs once, and every live member gets its outcome (the
      others count as [deduped]).

    A handler exception becomes a [Failed] reply for its group. *)

type t

type stats = {
  submitted : int;
  completed : int;  (** replies with a non-[Failed] outcome *)
  failed : int;  (** replies with a [Failed] outcome, expired included *)
  expired : int;  (** failed by deadline, never run *)
  deduped : int;  (** replies that rode on their group's leader *)
  key_hits : int;  (** synthesis requests answerable from the store *)
  key_misses : int;
  latency : Vmht_obs.Histogram.summary;
      (** start-to-outcome wall time of each run, microseconds *)
}

val create :
  ?store:Store.t -> handle:(Proto.request -> Proto.outcome) -> unit -> t
(** [store] is only consulted for hit accounting ({!Store.contains});
    installing it into the flow ({!Store.install}) is the caller's
    business. *)

val run_batch : t -> Proto.request list -> Proto.reply list
(** Execute one batch; replies sorted by [rid] (which must be unique
    within the batch).  Blocks until every request has a reply. *)

val stats : t -> stats
(** Cumulative across batches. *)

val hit_rate : t -> float
(** [key_hits / (key_hits + key_misses)]; [0.] before any keyed
    request. *)

val shutdown : t -> unit
(** Does nothing: a server holds no process, pipe or domain of its
    own (the pool is {!Vmht_par.Parmap}'s).  It stays because
    [benchmark/bench.ml] calls it. *)
