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
(** Parse and typecheck the workload's kernel source.  Nothing is
    cached: every call does both again (about 35 µs for a registry
    kernel) and returns a fresh AST.  Keep it so rather than hand every
    caller one shared AST: the values built from it would then share
    its strings (the kernel's name, say), and [Marshal] output depends
    on sharing.  The [serve-warm] benchmark compares each round's
    marshaled replies with the first round's; with a shared AST most
    of them differ. *)

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
