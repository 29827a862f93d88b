(** Interface-wrapper synthesis: the hardware that sits between a bare
    HLS datapath and the system.

    Two styles, matching the paper's comparison:
    - the VM wrapper gives the thread a private TLB and (optionally) a
      hardware page-table walker, so the datapath issues virtual
      addresses straight onto the shared bus;
    - the copy-based DMA wrapper gives the thread scratchpad BRAM plus
      a DMA engine and address-window comparators, and requires the
      host to stage data in and out.

    The area models here are what Table 2 reports. *)

type style = Vm_iface | Dma_iface

val style_name : style -> string

val vm_area : Vmht_vm.Mmu.config -> Vmht_hls.Optypes.area
(** TLB (CAM tags for fully-associative, RAM tags otherwise) + walker
    FSM + bus port adapter. *)

val dma_area :
  scratchpad_words:int -> windows:int -> Vmht_hls.Optypes.area
(** DMA engine + window comparators + scratchpad BRAM. *)

(** All a wrapper's hardware depends on: the MMU config sizes the VM
    wrapper's TLB and walker, the scratchpad the DMA wrapper's BRAM. *)
type params = Vm of Vmht_vm.Mmu.config | Dma of { scratchpad_words : int }

val params : Config.t -> style -> params
(** The chosen style's parameters, read from [config]. *)

val params_style : params -> style

val params_area : params -> Vmht_hls.Optypes.area

val area : Config.t -> style -> Vmht_hls.Optypes.area
(** [params_area (params config style)]. *)

val ports : style -> string list
(** Extra top-level RTL ports the wrapper adds to the generated
    module. *)
