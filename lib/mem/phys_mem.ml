let word_bytes = 8

(* Backing store is chunked and demand-allocated: a flat array would
   cost a 64 MiB allocate-and-zero on every [create] — per-run setup
   that dwarfs a small simulation.  A chunk of 2 KiB (small enough for
   the minor heap) springs into existence, zeroed, on its first
   non-zero write.  The chunk index starts empty and doubles, up to
   the whole memory, until it covers the highest chunk written; frames
   are handed out bottom-up, so a run's chunks sit densely from
   address 0 and the index stays as short as the data.  A chunk past
   the index or never written reads as zero through a shared empty
   sentinel, so observable contents are identical to the flat array. *)
let chunk_shift = 8 (* 256 words = 2 KiB per chunk *)

let chunk_words = 1 lsl chunk_shift

let chunk_mask = chunk_words - 1

let empty_chunk : int array = [||]

type t = { mutable chunks : int array array; n_chunks : int; bytes : int }

exception Bad_address of int

let create ~bytes =
  if bytes <= 0 || bytes mod word_bytes <> 0 then
    invalid_arg "Phys_mem.create: size must be a positive multiple of 8";
  let words = bytes / word_bytes in
  { chunks = [||]; n_chunks = (words + chunk_words - 1) / chunk_words; bytes }

let size_bytes t = t.bytes

let index t addr =
  if addr < 0 || addr >= t.bytes || addr mod word_bytes <> 0 then
    raise (Bad_address addr);
  addr / word_bytes

let read t addr =
  let i = index t addr in
  let ci = i lsr chunk_shift in
  let chunks = t.chunks in
  if ci >= Array.length chunks then 0
  else
    let c = Array.unsafe_get chunks ci in
    if c == empty_chunk then 0 else Array.unsafe_get c (i land chunk_mask)

(* Make the index cover chunk [ci]: the current one doubled as often as
   it takes, at most [n_chunks] long. *)
let grow t ci =
  let old = t.chunks in
  let rec size n = if n > ci then n else size (2 * n) in
  let chunks =
    Array.make (min t.n_chunks (size (max 1 (Array.length old)))) empty_chunk
  in
  Array.blit old 0 chunks 0 (Array.length old);
  t.chunks <- chunks

let write t addr value =
  let i = index t addr in
  let ci = i lsr chunk_shift in
  let indexed = ci < Array.length t.chunks in
  let c = if indexed then Array.unsafe_get t.chunks ci else empty_chunk in
  if c != empty_chunk then Array.unsafe_set c (i land chunk_mask) value
  else if value <> 0 then begin
    if not indexed then grow t ci;
    let fresh = Array.make chunk_words 0 in
    Array.unsafe_set t.chunks ci fresh;
    Array.unsafe_set fresh (i land chunk_mask) value
  end
