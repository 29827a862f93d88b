module Optypes = Vmht_hls.Optypes
module Mmu = Vmht_vm.Mmu
module Tlb = Vmht_vm.Tlb

type style = Vm_iface | Dma_iface

let style_name = function Vm_iface -> "vm" | Dma_iface -> "dma"

(* TLB area: fully-associative tags are CAM cells (expensive in LUTs),
   set-associative tags are RAM lookups plus way comparators.  Each
   entry stores a ~40-bit tag + ~40-bit frame + flags (~80 FFs). *)
let tlb_area (cfg : Tlb.config) =
  let entry_ff = 84 in
  let per_entry_lut = if cfg.Tlb.assoc = 0 then 34 else 14 in
  {
    Optypes.lut = 120 + (per_entry_lut * cfg.Tlb.entries);
    ff = 60 + (entry_ff * cfg.Tlb.entries);
    dsp = 0;
    bram = (if cfg.Tlb.entries >= 64 then 1 else 0);
  }

let walker_area = { Optypes.lut = 240; ff = 190; dsp = 0; bram = 0 }

let bus_adapter_area = { Optypes.lut = 160; ff = 140; dsp = 0; bram = 0 }

(* The wrapper's stream buffer: a 4 KiB write-back cache (tags in FFs,
   data in two BRAM halves). *)
let stream_buffer_area = { Optypes.lut = 340; ff = 420; dsp = 0; bram = 2 }

let vm_area (cfg : Mmu.config) =
  let base =
    Optypes.add_area (tlb_area cfg.Mmu.tlb)
      (Optypes.add_area bus_adapter_area stream_buffer_area)
  in
  if cfg.Mmu.hw_walk then Optypes.add_area base walker_area else base

(* A BRAM half-block holds 18 Kb = 2304 bytes. *)
let bram_halves_for_bytes bytes = Vmht_util.Bits.ceil_div bytes 2304

let dma_engine_area = { Optypes.lut = 420; ff = 460; dsp = 0; bram = 0 }

let window_comparator_area = { Optypes.lut = 64; ff = 14; dsp = 0; bram = 0 }

(* The DMA wrapper's address-window comparator bank. *)
let dma_windows = 3

let dma_area ~scratchpad_words ~windows =
  let bram = bram_halves_for_bytes (scratchpad_words * 8) in
  Optypes.add_area dma_engine_area
    (Optypes.add_area
       (Optypes.scale_area (max 1 windows) window_comparator_area)
       { Optypes.lut = 90; ff = 30; dsp = 0; bram })

type params = Vm of Mmu.config | Dma of { scratchpad_words : int }

let params (config : Config.t) = function
  | Vm_iface -> Vm config.Config.mmu
  | Dma_iface -> Dma { scratchpad_words = config.Config.scratchpad_words }

let params_style = function Vm _ -> Vm_iface | Dma _ -> Dma_iface

let params_area = function
  | Vm mmu -> vm_area mmu
  | Dma { scratchpad_words } -> dma_area ~scratchpad_words ~windows:dma_windows

let area config style = params_area (params config style)

let ports = function
  | Vm_iface ->
    [
      "output wire [63:0] ptw_addr";
      "input wire [63:0] ptw_rdata";
      "output wire tlb_flush_ack";
      "input wire tlb_flush_req";
    ]
  | Dma_iface ->
    [
      "input wire dma_start";
      "output wire dma_done";
      "input wire [63:0] dma_desc_addr";
    ]
