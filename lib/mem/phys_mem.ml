let word_bytes = 8

(* Backing store is chunked and demand-allocated: a flat array would
   cost a 64 MiB allocate-and-zero on every [create] — per-run setup
   that dwarfs a small simulation.  A chunk springs into existence
   (zeroed) on its first non-zero write; unwritten chunks read as zero
   through a shared empty sentinel, so observable contents are
   identical to the flat array. *)
let chunk_shift = 13 (* 8192 words = 64 KiB per chunk *)

let chunk_words = 1 lsl chunk_shift

let chunk_mask = chunk_words - 1

let empty_chunk : int array = [||]

type t = { chunks : int array array; bytes : int }

exception Bad_address of int

let create ~bytes =
  if bytes <= 0 || bytes mod word_bytes <> 0 then
    invalid_arg "Phys_mem.create: size must be a positive multiple of 8";
  let words = bytes / word_bytes in
  let n_chunks = (words + chunk_words - 1) / chunk_words in
  { chunks = Array.make n_chunks empty_chunk; bytes }

let size_bytes t = t.bytes

let index t addr =
  if addr < 0 || addr >= t.bytes || addr mod word_bytes <> 0 then
    raise (Bad_address addr);
  addr / word_bytes

let read t addr =
  let i = index t addr in
  let c = Array.unsafe_get t.chunks (i lsr chunk_shift) in
  if c == empty_chunk then 0 else Array.unsafe_get c (i land chunk_mask)

let write t addr value =
  let i = index t addr in
  let ci = i lsr chunk_shift in
  let c = Array.unsafe_get t.chunks ci in
  if c != empty_chunk then Array.unsafe_set c (i land chunk_mask) value
  else if value <> 0 then begin
    let fresh = Array.make chunk_words 0 in
    Array.unsafe_set t.chunks ci fresh;
    Array.unsafe_set fresh (i land chunk_mask) value
  end
