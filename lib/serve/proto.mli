(** Batch-server wire protocol: jobs, requests, replies, and the
    length-prefixed [Marshal] framing the server and its forked workers
    speak over pipes.

    Everything on the wire is plain data (ASTs, configs, strings, ints
    — no closures, no custom blocks), so [Marshal] round-trips it
    byte-exactly between processes built from the same binary.
    Outcomes deliberately carry no wall-clock fields: a reply must be
    byte-identical whichever worker (or how many) produced it, which is
    what makes the server's output reproducible at any shard width. *)

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

type request = {
  rid : int;  (** caller-assigned; replies are ordered by it *)
  attempt : int;  (** 1 on first dispatch; bumped on worker-death retry *)
  deadline_ms : int option;
      (** budget from batch submission; expired requests fail without
          dispatch.  [None] (the default) never expires. *)
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

    [u64-le length][Marshal payload] on raw file descriptors — no
    channel buffering, so [Unix.select] on the descriptor is an exact
    "a message may be read" signal in the server's event loop. *)

val write_msg : Unix.file_descr -> 'a -> unit
(** Raises [Unix.Unix_error] (e.g. [EPIPE] once SIGPIPE is ignored)
    when the peer is gone — the server turns that into worker-death
    handling. *)

val read_msg : Unix.file_descr -> 'a option
(** Blocking read of one message; [None] on EOF, including EOF in the
    middle of a frame (a worker that died mid-write). *)
