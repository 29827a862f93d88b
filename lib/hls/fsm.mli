(** The synthesized hardware-thread image.

    Bundles everything HLS produced for one kernel: the optimized IR,
    its static schedule, the binding, the datapath area (bare, before
    any memory-interface wrapper) and synthesis statistics.  This is
    what the system-level flow wraps with a VM or DMA interface. *)

type stats = {
  ir_instrs : int;
  blocks : int;
  states : int;
  reg_count : int;
  opt_report : Vmht_ir.Pass_manager.report;
  unrolled_loops : int;
  pipelined_loops : int;
}

type t = {
  name : string;
  func : Vmht_ir.Ir.func;
  schedule : Schedule.t;
  binding : Bind.t;
  area : Optypes.area;
  plans : Pipeliner.plan list;
      (** modulo-scheduled loops ([] unless synthesized with
          [~pipeline:true]) *)
  stats : stats;
}

val synthesize :
  ?resources:Schedule.resources ->
  ?unroll:int ->
  ?pipeline:bool ->
  ?schedule:Vmht_ir.Pass_manager.schedule ->
  Vmht_lang.Ast.kernel ->
  t
(** The HLS flow: typecheck, (optionally) unroll, lower, optimize under
    [schedule] (default {!Vmht_ir.Pass_manager.o2}), schedule, bind,
    and estimate datapath area.  Raises {!Vmht_lang.Loc.Error} on
    ill-typed input. *)

val datapath_area : Bind.t -> states:int -> Optypes.area
(** FU area + register file + controller; no memory interface. *)

(** Trace-compiled form of a block schedule: instruction indices
    bucketed by start cycle, with maximal runs of memory-free cycles
    grouped so the executor visits a block in O(instrs + steps) and can
    collapse a pure run's unit waits into one wait.  Memory cycles are
    never grouped — every translation, bus transaction and
    fault-injector draw happens exactly where the interpreter would
    perform it (the compiled trace's de-optimization boundary). *)
module Trace : sig
  type step =
    | Pure of int array array
        (** consecutive memory-free cycles; instruction indices per
            cycle, in instruction order *)
    | Mem of int array  (** one cycle containing at least one Load/Store *)

  type block = step array

  val compile_block : Schedule.block_schedule -> block
end

val add_stats : Buffer.t -> stats -> unit
(** Write the one-line statistics summary (sizes, then the optimizer's
    {!Pass_manager.add_report} line) into a buffer, as the Verilog
    header does. *)

val stats_to_string : stats -> string
(** {!add_stats}'s line as a string. *)
