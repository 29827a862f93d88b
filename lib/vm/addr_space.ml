module Phys_mem = Vmht_mem.Phys_mem

type region = { base : int; bytes : int; lazy_ : bool }

type t = {
  mem : Phys_mem.t;
  frames : Frame_alloc.t;
  pt : Page_table.t;
  mutable regions : region list;
  mutable next_vaddr : int;
  mutable faulted_pages : int;
}

exception Segfault of int

let create mem frames ~page_shift ~va_bits =
  let pt = Page_table.create mem frames ~page_shift ~va_bits in
  {
    mem;
    frames;
    pt;
    regions = [];
    (* Skip page 0 so that address 0 stays null. *)
    next_vaddr = 1 lsl page_shift;
    faulted_pages = 0;
  }

let page_table t = t.pt

let page_bytes t = Page_table.page_bytes t.pt

(* Every free frame reads zero ([Page_table.unmap] clears a frame as
   it frees it), so a fresh frame needs no clearing here. *)
let map_fresh_frame t vaddr =
  Page_table.map t.pt ~vaddr ~frame:(Frame_alloc.alloc t.frames)
    ~writable:true

let alloc ?(lazy_ = false) t ~bytes =
  if bytes <= 0 then invalid_arg "Addr_space.alloc: non-positive size";
  let page = page_bytes t in
  let base = t.next_vaddr in
  let len = Vmht_util.Bits.align_up bytes page in
  t.next_vaddr <- base + len;
  t.regions <- { base; bytes = len; lazy_ } :: t.regions;
  if not lazy_ then begin
    let rec map_pages va =
      if va < base + len then begin
        map_fresh_frame t va;
        map_pages (va + page)
      end
    in
    map_pages base
  end;
  base

let region_of t vaddr =
  List.find_opt
    (fun r -> vaddr >= r.base && vaddr < r.base + r.bytes)
    t.regions

let handle_fault t ~vaddr =
  match region_of t vaddr with
  | Some { lazy_ = true; _ }
    when Page_table.lookup t.pt ~vaddr = None ->
    map_fresh_frame t vaddr;
    t.faulted_pages <- t.faulted_pages + 1;
    true
  | Some _ | None -> false

let translate t vaddr = Page_table.translate t.pt ~vaddr

let paddr t vaddr = Page_table.paddr t.pt ~vaddr

let resolve t vaddr =
  let p = paddr t vaddr in
  if p >= 0 then p
  else if handle_fault t ~vaddr then begin
    let p = paddr t vaddr in
    if p < 0 then raise (Segfault vaddr);
    p
  end
  else raise (Segfault vaddr)

let load_word t vaddr = Phys_mem.read t.mem (resolve t vaddr)

let store_word t vaddr value = Phys_mem.write t.mem (resolve t vaddr) value

(* One translation per page: the words up to the page's end are
   consecutive in the frame it maps to. *)
let store_words t vaddr ~words init =
  let page = page_bytes t and wb = Phys_mem.word_bytes in
  let rec from i =
    if i < words then begin
      let va = vaddr + (i * wb) in
      let p = resolve t va in
      let stop = min words (i + ((page - (va land (page - 1))) / wb)) in
      for j = i to stop - 1 do
        Phys_mem.write t.mem (p + ((j - i) * wb)) (init j)
      done;
      from stop
    end
  in
  from 0

let free_bytes t =
  (Frame_alloc.capacity t.frames - Frame_alloc.allocated_count t.frames)
  * page_bytes t

let mapped_pages t = Page_table.mapped_pages t.pt

let touched_lazy_pages t = t.faulted_pages
