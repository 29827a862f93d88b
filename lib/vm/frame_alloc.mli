(** Physical-frame allocator.

    Hands out page-sized frames from a region of physical memory, with
    a free list for returned frames.  Page-table pages and user pages
    share the pool, as they do in a real kernel. *)

type t

exception Out_of_frames

val create : base:int -> bytes:int -> page_bytes:int -> t
(** Manage [\[base, base + bytes)]; both must be multiples of
    [page_bytes]. *)

val alloc : t -> int
(** Physical address of a free frame.  The allocator never touches
    memory: a frame reads zero because it was never written or because
    {!Page_table.unmap}, the only caller of {!free}, zeroes it first.
    Raises {!Out_of_frames} when exhausted. *)

val free : t -> int -> unit
(** Return a frame to the pool; the caller zeroes it first.  Raises
    [Invalid_argument] if the address was not allocated by this
    allocator. *)

val allocated_count : t -> int

val capacity : t -> int
(** Total number of frames managed. *)
