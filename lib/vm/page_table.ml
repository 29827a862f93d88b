module Phys_mem = Vmht_mem.Phys_mem

type t = {
  mem : Phys_mem.t;
  frames : Frame_alloc.t;
  page_shift : int;
  l1_bits : int;
  l2_bits : int;
  root : int;
  mutable mapped : int;
}

type entry = { frame : int; writable : bool }

exception Already_mapped of int

let valid_bit = 1

let writable_bit = 2


let create mem frames ~page_shift ~va_bits =
  if page_shift < 6 then invalid_arg "Page_table.create: page too small";
  let vpn_bits = va_bits - page_shift in
  if vpn_bits < 2 then invalid_arg "Page_table.create: va space too small";
  (* Split the VPN roughly in half; the level-2 table must fit in one
     page (2^l2_bits entries * 8 bytes <= page). *)
  let max_l2 = page_shift - 3 in
  let l2_bits = min max_l2 ((vpn_bits + 1) / 2) in
  let l1_bits = vpn_bits - l2_bits in
  if l1_bits + 3 > page_shift then
    invalid_arg "Page_table.create: level-1 table does not fit a page";
  (* Every frame the allocator hands out reads zero — never written, or
     zeroed by [unmap] when freed — so every entry starts invalid. *)
  let root = Frame_alloc.alloc frames in
  { mem; frames; page_shift; l1_bits; l2_bits; root; mapped = 0 }

let page_bytes t = 1 lsl t.page_shift

let page_shift t = t.page_shift

let root t = t.root

let vpn t vaddr = vaddr lsr t.page_shift

let l1_index t vaddr = vpn t vaddr lsr t.l2_bits

let l2_index t vaddr = vpn t vaddr land ((1 lsl t.l2_bits) - 1)

let l1_entry_addr t vaddr =
  let idx = l1_index t vaddr in
  if idx >= 1 lsl t.l1_bits then
    invalid_arg
      (Printf.sprintf "Page_table: virtual address 0x%x out of range" vaddr);
  t.root + (idx * Phys_mem.word_bytes)

(* Flags live in the low bits of an entry; frames are page-aligned, so
   the page-shift low bits are always free for them. *)
let decode t word =
  if word land valid_bit = 0 then None
  else
    Some
      {
        frame = (word lsr t.page_shift) lsl t.page_shift;
        writable = word land writable_bit <> 0;
      }

let encode t ~frame ~writable =
  assert (frame land ((1 lsl t.page_shift) - 1) = 0);
  frame lor valid_bit lor (if writable then writable_bit else 0)

let l2_table t vaddr =
  let l1_addr = l1_entry_addr t vaddr in
  match decode t (Phys_mem.read t.mem l1_addr) with
  | Some { frame; _ } -> Some frame
  | None -> None

let map t ~vaddr ~frame ~writable =
  let l1_addr = l1_entry_addr t vaddr in
  let table =
    match decode t (Phys_mem.read t.mem l1_addr) with
    | Some { frame = table; _ } -> table
    | None ->
      (* A fresh frame reads zero: every entry of the new table is
         invalid. *)
      let table = Frame_alloc.alloc t.frames in
      Phys_mem.write t.mem l1_addr (encode t ~frame:table ~writable:true);
      table
  in
  let entry_addr = table + (l2_index t vaddr * Phys_mem.word_bytes) in
  (match decode t (Phys_mem.read t.mem entry_addr) with
   | Some _ -> raise (Already_mapped vaddr)
   | None -> ());
  Phys_mem.write t.mem entry_addr (encode t ~frame ~writable);
  t.mapped <- t.mapped + 1

let unmap t ~vaddr =
  match l2_table t vaddr with
  | None -> ()
  | Some table ->
    let entry_addr = table + (l2_index t vaddr * Phys_mem.word_bytes) in
    (match decode t (Phys_mem.read t.mem entry_addr) with
     | Some { frame; _ } ->
       Phys_mem.write t.mem entry_addr 0;
       t.mapped <- t.mapped - 1;
       (* Return the data frame, zeroed — every free frame reads zero,
          which is what lets [map] and demand paging use a frame as
          allocated — and the level-2 table itself once its last entry
          is gone (all zero already), so that map/unmap churn does not
          leak physical memory until Out_of_frames. *)
       for i = 0 to (page_bytes t / Phys_mem.word_bytes) - 1 do
         Phys_mem.write t.mem (frame + (i * Phys_mem.word_bytes)) 0
       done;
       Frame_alloc.free t.frames frame;
       let entries = 1 lsl t.l2_bits in
       let rec empty i =
         i >= entries
         || Phys_mem.read t.mem (table + (i * Phys_mem.word_bytes)) = 0
            && empty (i + 1)
       in
       if empty 0 then begin
         Phys_mem.write t.mem (l1_entry_addr t vaddr) 0;
         Frame_alloc.free t.frames table
       end
     | None -> ())

let lookup t ~vaddr =
  match l2_table t vaddr with
  | None -> None
  | Some table ->
    decode t
      (Phys_mem.read t.mem (table + (l2_index t vaddr * Phys_mem.word_bytes)))

(* The walk on raw entry words: no option, no entry record. *)
let paddr t ~vaddr =
  let l1 = Phys_mem.read t.mem (l1_entry_addr t vaddr) in
  if l1 land valid_bit = 0 then -1
  else
    let table = (l1 lsr t.page_shift) lsl t.page_shift in
    let leaf =
      Phys_mem.read t.mem (table + (l2_index t vaddr * Phys_mem.word_bytes))
    in
    if leaf land valid_bit = 0 then -1
    else
      (leaf lsr t.page_shift) lsl t.page_shift
      lor (vaddr land ((1 lsl t.page_shift) - 1))

let walk_addrs t ~vaddr =
  let l1_addr = l1_entry_addr t vaddr in
  match l2_table t vaddr with
  | None -> [ l1_addr ]
  | Some table ->
    [ l1_addr; table + (l2_index t vaddr * Phys_mem.word_bytes) ]

let translate t ~vaddr =
  let p = paddr t ~vaddr in
  if p < 0 then None else Some p

let mapped_pages t = t.mapped
