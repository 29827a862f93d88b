(** A process's virtual address space.

    Owns a page table and a frame allocator and provides a heap
    allocator ([alloc]) plus untimed load/store for workload setup and
    result checking.  Regions can be allocated eagerly (pages mapped at
    allocation) or lazily (pages mapped on first touch by the demand-
    paging fault handler — the path the VM-enabled hardware thread
    exercises through the MMU).

    Virtual address 0 is never mapped, so kernels can use it as null. *)

type t

exception Segfault of int
(** Raised by untimed access to an unmapped, non-lazy address. *)

val create :
  Vmht_mem.Phys_mem.t ->
  Frame_alloc.t ->
  page_shift:int ->
  va_bits:int ->
  t

val page_table : t -> Page_table.t

val page_bytes : t -> int

val alloc : ?lazy_:bool -> t -> bytes:int -> int
(** Allocate a fresh page-aligned region and return its base virtual
    address.  Eager regions get frames immediately; lazy regions are
    registered but unmapped until faulted in. *)

val handle_fault : t -> vaddr:int -> bool
(** Demand-paging: if [vaddr] falls in a lazy region and is unmapped,
    map a zeroed frame and return [true]; otherwise [false] (a true
    segfault). *)

val translate : t -> int -> int option
(** Untimed translation (no faulting). *)

val paddr : t -> int -> int
(** {!translate} without allocating: [-1] when unmapped. *)

val load_word : t -> int -> int
(** Untimed access for setup/checking; faults lazy pages in silently. *)

val store_word : t -> int -> int -> unit

val store_words : t -> int -> words:int -> (int -> int) -> unit
(** [store_words t vaddr ~words init] stores [init i] at
    [vaddr + 8 i] for each [i < words], as {!store_word} would (lazy
    pages fault in), translating once per page rather than once per
    word.  [vaddr] must be word-aligned. *)

val free_bytes : t -> int
(** Physical bytes still unallocated in the frame pool. *)

val mapped_pages : t -> int

val touched_lazy_pages : t -> int
(** Pages materialized through {!handle_fault} (or untimed access). *)
