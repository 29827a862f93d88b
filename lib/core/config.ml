(* Which executor runs the synthesized hardware thread: the model-level
   FSM executor, or the RTL evaluator running the emitted Verilog text
   itself.  Both sit on the same lib/mem + lib/vm stack; the backends
   are contractually cycle- and result-identical, and the rtl1
   experiment enforces it. *)
type backend = Model | Rtl

type t = {
  phys_bytes : int;
  page_shift : int;
  resources : Vmht_hls.Schedule.resources;
  unroll : int;
  pipeline_loops : bool;
  mmu : Vmht_vm.Mmu.config;
  tlb2 : Vmht_vm.Tlb2.config;
  accel_stream_buffer : Vmht_mem.Cache.config;
  scratchpad_words : int;
  opt_level : int;
  passes : string list option;
  fault : Vmht_fault.Plan.t;
  seed : int;
  backend : backend;
}

let default =
  {
    phys_bytes = 64 * 1024 * 1024;
    page_shift = 12;
    resources =
      {
        Vmht_hls.Schedule.default_resources with
        Vmht_hls.Schedule.mem = Vmht_hls.Schedule.flat_mem 2;
      };
    unroll = 1;
    pipeline_loops = false;
    mmu = Vmht_vm.Mmu.default_config;
    tlb2 = Vmht_vm.Tlb2.default_config;
    (* The VM wrapper's stream buffer: a small write-back cache that
       turns streaming word accesses into bus bursts.  Copy-based
       wrappers get the same effect from their scratchpad. *)
    accel_stream_buffer =
      {
        Vmht_mem.Cache.size_bytes = 4096;
        line_bytes = 32;
        ways = 4;
        hit_latency = 1;
      };
    scratchpad_words = 1 lsl 16; (* 512 KiB window budget (Zynq-class) *)
    opt_level = 2;
    passes = None;
    fault = Vmht_fault.Plan.none;
    seed = 1;
    backend = Model;
  }

let with_tlb_entries t entries =
  let mmu =
    {
      t.mmu with
      Vmht_vm.Mmu.tlb = { t.mmu.Vmht_vm.Mmu.tlb with Vmht_vm.Tlb.entries };
    }
  in
  { t with mmu }

let with_tlb2 t tlb2 = { t with tlb2 }

let with_walk_cache t entries =
  { t with mmu = { t.mmu with Vmht_vm.Mmu.walk_cache_entries = entries } }

let with_page_shift t page_shift = { t with page_shift }

(* Unroll factors and optimization levels are refused, not clamped:
   the synthesis key stores the integer, so a clamped value would key a
   second copy of the same hardware.  64 is four times the largest
   factor any experiment uses. *)
let with_unroll t unroll =
  if unroll < 1 || unroll > 64 then
    invalid_arg
      (Printf.sprintf "Config.with_unroll: unroll %d is outside 1..64" unroll);
  { t with unroll }

let with_pipelining t pipeline_loops = { t with pipeline_loops }

(* Re-bank the scratchpad, keeping per-bank porting: [n] word-interleaved
   banks, each with the current ports-per-bank.  [with_banks t 1] is the
   default flat memory (identical fingerprint). *)
let with_banks t banks =
  if banks < 1 then invalid_arg "Config.with_banks: banks must be >= 1";
  let r = t.resources in
  let mem = { r.Vmht_hls.Schedule.mem with Vmht_hls.Schedule.banks } in
  { t with resources = { r with Vmht_hls.Schedule.mem } }

let with_fault t fault = { t with fault }

let with_seed t seed = { t with seed }

let with_opt_level t opt_level =
  if opt_level < 0 || opt_level > 2 then
    invalid_arg
      (Printf.sprintf "Config.with_opt_level: level %d is outside 0..2"
         opt_level);
  { t with opt_level }

let with_backend t backend = { t with backend }

let with_passes t passes = { t with passes }

(* The active schedule: an explicit pass list overrides the preset.
   Unknown pass names are a configuration error, reported eagerly. *)
let schedule_of ~opt_level ~passes =
  match passes with
  | None -> Vmht_ir.Pass_manager.of_opt_level opt_level
  | Some names -> (
    match Vmht_ir.Pass_manager.of_names names with
    | Ok s -> s
    | Error msg -> invalid_arg ("Config.schedule: " ^ msg))

let schedule t = schedule_of ~opt_level:t.opt_level ~passes:t.passes

(* [Marshal] renders structurally equal values to equal bytes, so every
   field — including one added later — is covered without being listed
   here. *)
let fingerprint (t : t) = Marshal.to_string t [ Marshal.No_sharing ]
