(** pthreads-style thread management over the simulation engine.

    A thread is any simulated activity with a joinable result — a
    software thread interpreting IR on the CPU, or a hardware thread
    (an accelerator FSM).  The system-level runtime in [Vmht.Launch]
    spawns both kinds through this interface, which is the paper's
    programming model: moving a thread between software and hardware
    changes how its body executes, not how it is created or joined. *)

type 'a t

val spawn :
  ?obs:Vmht_obs.Event.emitter ->
  engine:Vmht_sim.Engine.t ->
  name:string ->
  (unit -> 'a) ->
  'a t
(** Start a thread as a process of [engine] at its current time (from a
    process of [engine], the SoC's when the caller runs inside
    [Soc.run]).  [obs], when given, receives a
    {!Vmht_obs.Event.kind.Thread_spawn} event now and a [Thread_join]
    event when {!join} returns. *)

val join : 'a t -> 'a
(** Park until the thread finishes and return its result.  If the
    thread raised, the exception is re-raised here. *)

val name : 'a t -> string
