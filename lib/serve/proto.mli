(** Batch-server protocol: jobs, requests, replies, the JSON request
    line [vmht serve] reads, and a length-prefixed [Marshal] framing.

    Every value here is plain data (ASTs, configs, strings, ints — no
    closures, no custom blocks), so [Marshal] round-trips it
    byte-exactly.  Outcomes deliberately carry no wall-clock fields: a
    reply must be byte-identical whichever pool domain produced it,
    which is what makes the server's output reproducible at any pool
    width. *)

type mode = Sw | Vm | Dma

val mode_name : mode -> string

type job =
  | Synthesize of {
      kernel : Vmht_lang.Ast.kernel;
      style : Vmht.Wrapper.style;
      config : Vmht.Config.t;
    }  (** synthesize one hardware thread; content-addressed *)
  | Execute of {
      workload : string;  (** registry name; resolved by the handler *)
      mode : mode;
      size : int;
      config : Vmht.Config.t;
    }  (** run one workload on a fresh simulated SoC *)

val synthesis_key : job -> string option
(** {!Vmht.Flow.cache_key} for [Synthesize] jobs — the dedup and
    store-hit-accounting identity, and the same key the flow's memo
    and the store use, so two jobs that differ only in config fields
    synthesis does not read are one key.  [None] for [Execute] (its
    inner synthesis still benefits from the store, but the server
    cannot name the kernel without the workload registry). *)

val job_of_line :
  string -> (job, [ `Frontend of string | `Request of string ]) result
(** Decode one [vmht serve] request line, a JSON object such as
    [{"op":"synth","workload":"vecadd","style":"dma","unroll":2}],
    [{"op":"synth","source":"kernel k(n: int): int { return n; }"}] or
    [{"op":"run","workload":"mmul","mode":"vm","size":8}].  A line
    that is not JSON, or whose [source] does not parse or typecheck,
    is [`Frontend]; a missing or unknown op, a key given twice or one
    its op does not take, a value of the wrong type, an unknown value
    and a config the SoC would refuse are [`Request], with a message
    that names the key.  Never raises. *)

type request = {
  rid : int;  (** caller-assigned; replies are ordered by it *)
  deadline_ms : int option;
      (** budget from batch submission; expired requests fail without
          running.  [None] (the default) never expires. *)
  job : job;
}

type outcome =
  | Synthesized of {
      kname : string;
      states : int;
      total_area : Vmht_hls.Optypes.area;
      verilog_bytes : int;
    }
  | Executed of { cycles : int; correct : bool; ret : int option }
  | Failed of string

type reply = { rid : int; outcome : outcome }

val outcome_to_string : outcome -> string
(** One deterministic line (no timing). *)

(** {2 Framing}

    [u64-le length][Marshal payload] on raw file descriptors, with no
    channel buffering.  No server path uses it; [benchmark/bench.ml]
    times a round trip of each reply through a pipe with it. *)

val write_msg : Unix.file_descr -> 'a -> unit
(** Raises [Unix.Unix_error] (e.g. [EPIPE] once SIGPIPE is ignored)
    when the peer is gone. *)

val read_msg : Unix.file_descr -> 'a option
(** Blocking read of one message; [None] on EOF, including EOF in the
    middle of a frame. *)
