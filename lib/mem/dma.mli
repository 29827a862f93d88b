(** DMA engine moving data between DRAM and a scratchpad in bursts.

    Transfers are performed in bus transactions of at most 64 words
    after a setup delay of 120 cycles per transfer (driver and
    descriptor programming), matching how a copy-based accelerator
    interface stages its inputs and drains its outputs. *)

type t

type stats = { transfers : int; words_in : int; words_out : int }

val create : Bus.t -> t

val copy_in_scattered :
  t -> Scratchpad.t -> chunks:(int * int) list -> dst_word:int -> unit
(** Timed DRAM -> scratchpad copy: a descriptor chain of physical
    [(phys, words)] chunks (one page each, typically; a contiguous
    range is one chunk) into consecutive scratchpad words, one setup
    delay, then per-chunk bursts. *)

val copy_out_scattered :
  t -> Scratchpad.t -> src_word:int -> chunks:(int * int) list -> unit
(** Timed scratchpad -> DRAM copy of consecutive scratchpad words into
    the physical chunks, as {!copy_in_scattered}. *)

val set_observer : t -> Vmht_obs.Event.emitter -> unit
(** Install an observer receiving one
    {!Vmht_obs.Event.kind.Dma_burst} event per [copy_*] call, spanning
    the whole transfer (setup + bursts); [op] is the direction seen
    from DRAM ([Read] stages in, [Write] drains out). *)

val set_fault : t -> Vmht_fault.Injector.t -> unit
(** Attach a fault injector: each staging (copy-in) burst may abort
    the whole transfer — after a detection delay the injector raises
    {!Vmht_fault.Injector.Abort}, and the owning thread must re-run
    its copy-in/compute/copy-out.  Drain bursts are never aborted, so
    a re-run always restages pristine DRAM state. *)

val stats : t -> stats
