(** The worker side of the batch server: a forked child that reads
    framed {!Proto.request}s from a pipe, runs the one handler the
    server was created with (injected where the workload registry is
    visible, which keeps this library free of a dependency cycle), and
    writes framed {!Proto.reply}s back, forever, until EOF on its
    request pipe (the server closing it is the shutdown signal).  The
    child inherits whatever store the parent installed before forking. *)

val loop :
  handle:(Proto.request -> Proto.outcome) ->
  in_fd:Unix.file_descr ->
  out_fd:Unix.file_descr ->
  unit
(** Serve until EOF.  A handler exception becomes a [Failed] reply;
    the loop itself only exits on EOF or a dead reply pipe.  Runs in
    the forked child — callers follow it with [Unix._exit]. *)
