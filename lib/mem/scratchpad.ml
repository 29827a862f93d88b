type window = { base : int; words : int; local_word : int }

type t = {
  data : int array;
  ports : int;
  mutable windows : window list;
  mutable next_free : int;
}

exception Out_of_window of int

(* Cycles one BRAM access takes. *)
let access_latency = 1

let create ~words ~ports =
  {
    data = Array.make words 0;
    ports;
    windows = [];
    next_free = 0;
  }

let hold t n = access_latency * Vmht_util.Bits.ceil_div n t.ports

let overlaps a_base a_words b_base b_words =
  let a_end = a_base + (a_words * Phys_mem.word_bytes) in
  let b_end = b_base + (b_words * Phys_mem.word_bytes) in
  a_base < b_end && b_base < a_end

let map_window t ~base ~words =
  if t.next_free + words > Array.length t.data then
    invalid_arg "Scratchpad.map_window: capacity exceeded";
  List.iter
    (fun w ->
      if overlaps base words w.base w.words then
        invalid_arg "Scratchpad.map_window: window overlap")
    t.windows;
  t.windows <- { base; words; local_word = t.next_free } :: t.windows;
  t.next_free <- t.next_free + words

let rec find_window vaddr = function
  | [] -> raise (Out_of_window vaddr)
  | w :: rest ->
    let offset = vaddr - w.base in
    if offset >= 0 && offset < w.words * Phys_mem.word_bytes then
      w.local_word + (offset / Phys_mem.word_bytes)
    else find_window vaddr rest

let local_of_vaddr t vaddr = find_window vaddr t.windows

let load t vaddr = t.data.(local_of_vaddr t vaddr)

let store t vaddr value = t.data.(local_of_vaddr t vaddr) <- value

let read_local t i = t.data.(i)

let write_local t i v = t.data.(i) <- v
