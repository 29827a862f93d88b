(** pthreads-style thread management over the simulation engine.

    A thread is any simulated activity with a joinable result — a
    software thread interpreting IR on the CPU, or a hardware thread
    (an accelerator FSM).  Several threads sharing one SoC (fig6, the
    examples, the micro targets) are spawned and joined through this
    interface, which is the paper's programming model: moving a thread
    between software and hardware changes how its body executes, not
    how it is created or joined. *)

type 'a t

val spawn : engine:Vmht_sim.Engine.t -> (unit -> 'a) -> 'a t
(** Start a thread as a process of [engine] at its current time (from a
    process of [engine], the SoC's when the caller runs inside
    [Soc.run]). *)

val join : 'a t -> 'a
(** Park until the thread finishes and return its result.  If the
    thread raised, the exception is re-raised here. *)
