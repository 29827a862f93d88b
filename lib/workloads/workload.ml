module Addr_space = Vmht_vm.Addr_space

type instance = {
  args : int list;
  buffers : Vmht.Launch.buffer list;
  expected_ret : int option;
  check : (int -> int) -> bool;
  data_words : int;
}

type t = {
  name : string;
  description : string;
  source : string;
  pointer_based : bool;
  pattern : string;
  default_size : int;
  setup : Addr_space.t -> size:int -> seed:int -> instance;
}

(* Every AST handed out so far, by the source it was parsed from.  A
   table under a mutex rather than a [Lazy] per workload: two domains
   forcing one [Lazy] at once can raise [CamlinternalLazy.Undefined]. *)
let parsed : (string, Vmht_lang.Ast.kernel) Hashtbl.t = Hashtbl.create 16

let parsed_mutex = Mutex.create ()

let kernel t =
  Mutex.protect parsed_mutex (fun () ->
      match Hashtbl.find_opt parsed t.source with
      | Some k -> k
      | None ->
        let k = Vmht_lang.Parser.parse_kernel t.source in
        Vmht_lang.Typecheck.check_kernel k;
        Hashtbl.add parsed t.source k;
        k)

let word_bytes = Vmht_mem.Phys_mem.word_bytes

let reserve aspace ~words =
  if words *. float_of_int word_bytes > float_of_int (Addr_space.free_bytes aspace)
  then raise Vmht_vm.Frame_alloc.Out_of_frames

let alloc_array aspace ~words ~init =
  let base = Addr_space.alloc aspace ~bytes:(words * word_bytes) in
  Addr_space.store_words aspace base ~words init;
  base
