(** The knobs of the system-level synthesis flow and the simulated SoC
    that some caller varies, with the defaults every experiment starts
    from.  Each experiment in the evaluation varies exactly the fields
    its figure sweeps.  Values no caller varies are constants where
    they are used: the DRAM timings and geometry
    ({!Vmht_mem.Dram}: 14-cycle CAS, activate and precharge, 2 KiB
    rows, 8 banks), bus arbitration ({!Vmht_mem.Bus}: 2 cycles), the
    walker's per-level overhead ({!Vmht_vm.Ptw}: 2 cycles), the
    scratchpad's access latency ({!Vmht_mem.Scratchpad}: 1 cycle), DMA
    setup and burst length ({!Vmht_mem.Dma}: 120 cycles, 64 words), the
    CPU's instruction costs and fault penalty
    ({!Vmht_cpu.Cost_model}) and its cache geometry
    ({!Vmht_mem.Cache.default_config}); the rest live in {!Soc},
    {!Launch} and {!Wrapper}.  Synthesis reads only part of the record
    (see {!Flow.cache_key}). *)

type backend =
  | Model  (** the model-level FSM executor ({!Vmht_hls.Accel}) *)
  | Rtl
      (** the RTL evaluator: parse the emitted Verilog text back and
          execute the emitted bytes, on the same memory/VM stack *)

type t = {
  (* --- memory system --- *)
  phys_bytes : int; (** physical memory size *)
  page_shift : int; (** log2 page size (default 12 = 4 KiB) *)
  (* --- HLS --- *)
  resources : Vmht_hls.Schedule.resources;
  unroll : int;
  pipeline_loops : bool;
      (** modulo-schedule eligible inner loops (extension mode) *)
  (* --- VM interface wrapper --- *)
  mmu : Vmht_vm.Mmu.config;
  tlb2 : Vmht_vm.Tlb2.config;
      (** SoC-shared second-level TLB, probed by every MMU on an L1
          miss; disabled by default *)
  accel_stream_buffer : Vmht_mem.Cache.config;
      (** small line buffer between the wrapper and the bus, so
          streaming accesses become bursts *)
  (* --- DMA interface wrapper --- *)
  scratchpad_words : int;
  (* --- optimizer --- *)
  opt_level : int;
      (** [-O0]/[-O1]/[-O2] preset selecting the pass schedule
          (clamped; default 2) *)
  passes : string list option;
      (** explicit pass schedule overriding [opt_level] when [Some] *)
  (* --- misc --- *)
  fault : Vmht_fault.Plan.t;
      (** fault-injection plan; {!Vmht_fault.Plan.none} by default *)
  seed : int;
  backend : backend;
      (** which executor runs hardware threads; {!Model} by default,
          [--backend rtl] selects the RTL evaluator *)
}

val default : t

val with_tlb_entries : t -> int -> t
(** Convenience for the TLB sweep: same config, different TLB size. *)

val with_tlb2 : t -> Vmht_vm.Tlb2.config -> t

val with_walk_cache : t -> int -> t
(** Size every MMU's page-walk cache (0 disables). *)

val with_page_shift : t -> int -> t

val with_unroll : t -> int -> t
(** Raises [Invalid_argument] naming the factor when it is outside
    1..64. *)

val with_pipelining : t -> bool -> t

val with_banks : t -> int -> t
(** Re-bank the scratchpad: [n] word-interleaved banks, keeping the
    current ports-per-bank.  [with_banks t 1] equals the default flat
    memory and fingerprints identically.  Raises [Invalid_argument]
    when [n < 1]. *)

val with_fault : t -> Vmht_fault.Plan.t -> t

val with_seed : t -> int -> t
(** Seed of the fault schedule: every injector stream of an SoC built
    from the config is drawn from it ({!Soc.make_injector}).  Workload
    data has its own seed ([Vmht_eval.Common.run ?seed], 42 by
    default); of the experiments only [robust] passes this one there
    too. *)

val with_opt_level : t -> int -> t
(** Raises [Invalid_argument] naming the level when it is outside
    0..2. *)

val with_passes : t -> string list option -> t

val with_backend : t -> backend -> t
(** Select the hardware-thread executor (default {!Model}). *)

val schedule : t -> Vmht_ir.Pass_manager.schedule
(** The pass schedule this config selects: the explicit [passes] list
    if set, else the [opt_level] preset.  Raises [Invalid_argument] on
    unknown pass names. *)

val schedule_of :
  opt_level:int -> passes:string list option -> Vmht_ir.Pass_manager.schedule
(** {!schedule} from the two optimizer fields alone, for a caller that
    holds them without the rest of the record. *)

val fingerprint : t -> string
(** The marshalled bytes of the whole record: the label manifests print
    for the configuration they ran.  It is not a cache key (synthesis
    is keyed by {!Flow.cache_key}, which reads only what synthesis
    reads).  Two configs fingerprint equally iff they are structurally
    equal, whatever fields the record gains later (a fault rate of
    [-0.] against [0.] is the one exception: equal, but fingerprinted
    apart). *)
