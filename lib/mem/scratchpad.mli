(** Accelerator-local scratchpad (BRAM) with a virtual-window mapping.

    In the copy-based (DMA) interface style the accelerator's memory
    accesses go to on-chip BRAM.  The scratchpad is presented as a set
    of *windows*: each window aliases a range of the thread's virtual
    address space onto a scratchpad region, so pointers embedded in the
    copied data keep working as long as they stay inside a window (the
    classic virtual-window technique copy-based interfaces rely on).
    Accesses outside every window raise {!Out_of_window} — modeling the
    restriction the paper's VM-enabled threads remove. *)

type t

exception Out_of_window of int

val create : words:int -> ports:int -> t
(** A scratchpad of [words] words with [ports >= 1] same-cycle ports,
    each access taking one cycle.  Its accesses are untimed; {!hold}
    prices them. *)

val hold : t -> int -> int
(** [hold t n] is the cycles [n] accesses issued together take: one
    per group of [ports], later groups queueing behind earlier ones.
    [hold t 0 = 0]. *)

val map_window : t -> base:int -> words:int -> unit
(** Bind the next free scratchpad region to virtual range
    [\[base, base + 8*words)].  Raises [Invalid_argument] if capacity is
    exceeded or the range overlaps an existing window. *)

val load : t -> int -> int
(** Untimed window-translated read ({!hold} gives its time); raises
    {!Out_of_window}. *)

val store : t -> int -> int -> unit
(** Untimed window-translated write; raises {!Out_of_window}. *)

val read_local : t -> int -> int
(** Untimed access by scratchpad word index (used by the DMA engine). *)

val write_local : t -> int -> int -> unit

val local_of_vaddr : t -> int -> int
(** Word index a virtual address maps to; raises {!Out_of_window}. *)
