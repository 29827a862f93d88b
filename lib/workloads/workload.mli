(** The benchmark-kernel interface.

    A workload bundles an HTL kernel with everything needed to run it
    in all three execution styles: a setup routine that materializes
    its data in a given address space, the launch request (argument
    words + buffer list with DMA directions), the expected return
    value, and a result checker that re-derives the expected outputs
    from the inputs. *)

type instance = {
  args : int list;
  buffers : Vmht.Launch.buffer list;
  expected_ret : int option;
  check : (int -> int) -> bool;
      (** [check load_word] validates outputs after a run *)
  data_words : int; (** total words across buffers *)
}

type t = {
  name : string;
  description : string;
  source : string;
  pointer_based : bool;
  pattern : string; (** access-pattern class for Table 1 *)
  default_size : int;
  setup : Vmht_vm.Addr_space.t -> size:int -> seed:int -> instance;
}

val kernel : t -> Vmht_lang.Ast.kernel
(** The workload's kernel, parsed and typechecked on the first call
    for its source and the very same AST on every later one, from any
    domain (the AST is immutable).  Values built from it share its
    strings, and [Marshal] output depends on sharing; so a served
    reply takes the kernel's name from its own request
    ([Loadgen.handle]), never from the AST the synthesis memo holds,
    which a fresh synthesis or a store decode may have supplied. *)

(** {2 Setup helpers} *)

val reserve : Vmht_vm.Addr_space.t -> words:float -> unit
(** Raise {!Vmht_vm.Frame_alloc.Out_of_frames} when [words] words of
    data cannot fit in the physical memory the address space has left.
    A setup calls it first, with a lower bound on the data it will
    allocate, so that a size too big for the SoC is refused before any
    host array that grows with the size is built.  [words] is a float
    so that a size product cannot overflow. *)

val alloc_array :
  Vmht_vm.Addr_space.t -> words:int -> init:(int -> int) -> int
(** Allocate an eager buffer and initialize word [i] to [init i];
    returns the base virtual address. *)
