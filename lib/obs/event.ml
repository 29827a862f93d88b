type mem_op = Read | Write

type kind =
  | Tlb_hit of { vaddr : int; asid : int }
  | Tlb_miss of { vaddr : int; asid : int }
  | Tlb2_hit of { vaddr : int; asid : int }
  | Tlb2_miss of { vaddr : int; asid : int }
  | Ptw_walk of { vaddr : int; levels : int }
  | Page_fault of { vaddr : int; asid : int }
  | Bus_txn of { op : mem_op; addr : int; words : int }
  | Dram_row_hit of { bank : int }
  | Dram_row_miss of { bank : int }
  | Dma_burst of { op : mem_op; words : int }
  | Cache_hit of { op : mem_op; addr : int }
  | Cache_miss of { op : mem_op; addr : int }
  | Fsm_state of { block : string }
  | Phase_begin of { phase : string }
  | Phase_end of { phase : string }
  | Fault_inject of { target : string; fault : string }
  | Fault_retry of { target : string; fault : string; attempt : int }
  | Fault_abort of { target : string; fault : string }
  | Fault_recover of { target : string; fault : string; attempt : int }
  | Pass_run of { pass : string; rewrites : int; kernel : string }
  | Note of string

type t = { at : int; duration : int; component : string; kind : kind }

type emitter = ?duration:int -> kind -> unit

let mem_op_name = function Read -> "read" | Write -> "write"

let label = function
  | Tlb_hit _ -> "tlb_hit"
  | Tlb_miss _ -> "tlb_miss"
  | Tlb2_hit _ -> "tlb2_hit"
  | Tlb2_miss _ -> "tlb2_miss"
  | Ptw_walk _ -> "ptw_walk"
  | Page_fault _ -> "page_fault"
  | Bus_txn _ -> "bus_txn"
  | Dram_row_hit _ -> "dram_row_hit"
  | Dram_row_miss _ -> "dram_row_miss"
  | Dma_burst _ -> "dma_burst"
  | Cache_hit _ -> "cache_hit"
  | Cache_miss _ -> "cache_miss"
  | Fsm_state _ -> "fsm_state"
  | Phase_begin _ -> "phase_begin"
  | Phase_end _ -> "phase_end"
  | Fault_inject _ -> "fault_inject"
  | Fault_retry _ -> "fault_retry"
  | Fault_abort _ -> "fault_abort"
  | Fault_recover _ -> "fault_recover"
  | Pass_run _ -> "pass_run"
  | Note _ -> "note"

let labels =
  [
    "bus_txn"; "cache_hit"; "cache_miss"; "dma_burst"; "dram_row_hit";
    "dram_row_miss"; "fault_abort"; "fault_inject"; "fault_recover";
    "fault_retry"; "fsm_state"; "note"; "page_fault"; "pass_run";
    "phase_begin"; "phase_end"; "ptw_walk"; "tlb2_hit"; "tlb2_miss";
    "tlb_hit"; "tlb_miss";
  ]

let args = function
  | Tlb_hit { vaddr; asid }
  | Tlb_miss { vaddr; asid }
  | Tlb2_hit { vaddr; asid }
  | Tlb2_miss { vaddr; asid } ->
    [ ("vaddr", Json.Int vaddr); ("asid", Json.Int asid) ]
  | Ptw_walk { vaddr; levels } ->
    [ ("vaddr", Json.Int vaddr); ("levels", Json.Int levels) ]
  | Page_fault { vaddr; asid } ->
    [ ("vaddr", Json.Int vaddr); ("asid", Json.Int asid) ]
  | Bus_txn { op; addr; words } ->
    [
      ("op", Json.String (mem_op_name op));
      ("addr", Json.Int addr);
      ("words", Json.Int words);
    ]
  | Dram_row_hit { bank } | Dram_row_miss { bank } ->
    [ ("bank", Json.Int bank) ]
  | Dma_burst { op; words } ->
    [ ("op", Json.String (mem_op_name op)); ("words", Json.Int words) ]
  | Cache_hit { op; addr } | Cache_miss { op; addr } ->
    [ ("op", Json.String (mem_op_name op)); ("addr", Json.Int addr) ]
  | Fsm_state { block } -> [ ("block", Json.String block) ]
  | Phase_begin { phase } | Phase_end { phase } ->
    [ ("phase", Json.String phase) ]
  | Fault_inject { target; fault } | Fault_abort { target; fault } ->
    [ ("target", Json.String target); ("fault", Json.String fault) ]
  | Fault_retry { target; fault; attempt }
  | Fault_recover { target; fault; attempt } ->
    [
      ("target", Json.String target);
      ("fault", Json.String fault);
      ("attempt", Json.Int attempt);
    ]
  | Pass_run { pass; rewrites; kernel } ->
    [
      ("pass", Json.String pass);
      ("rewrites", Json.Int rewrites);
      ("kernel", Json.String kernel);
    ]
  | Note s -> [ ("note", Json.String s) ]

let kind_to_string = function
  | Tlb_hit { vaddr; asid } ->
    Printf.sprintf "tlb_hit 0x%06x (asid %d)" vaddr asid
  | Tlb_miss { vaddr; asid } ->
    Printf.sprintf "tlb_miss 0x%06x (asid %d)" vaddr asid
  | Tlb2_hit { vaddr; asid } ->
    Printf.sprintf "tlb2_hit 0x%06x (asid %d)" vaddr asid
  | Tlb2_miss { vaddr; asid } ->
    Printf.sprintf "tlb2_miss 0x%06x (asid %d)" vaddr asid
  | Ptw_walk { vaddr; levels } ->
    Printf.sprintf "ptw_walk 0x%06x (%d levels)" vaddr levels
  | Page_fault { vaddr; asid } ->
    Printf.sprintf "page_fault 0x%06x (asid %d)" vaddr asid
  | Bus_txn { op; addr; words } ->
    Printf.sprintf "bus_%s 0x%06x x%d" (mem_op_name op) addr words
  | Dram_row_hit { bank } -> Printf.sprintf "dram_row_hit bank %d" bank
  | Dram_row_miss { bank } -> Printf.sprintf "dram_row_miss bank %d" bank
  | Dma_burst { op; words } ->
    Printf.sprintf "dma_%s x%d" (mem_op_name op) words
  | Cache_hit { op; addr } ->
    Printf.sprintf "cache_hit %s 0x%06x" (mem_op_name op) addr
  | Cache_miss { op; addr } ->
    Printf.sprintf "cache_miss %s 0x%06x" (mem_op_name op) addr
  | Fsm_state { block } -> Printf.sprintf "fsm_state %s" block
  | Phase_begin { phase } -> Printf.sprintf "phase_begin %s" phase
  | Phase_end { phase } -> Printf.sprintf "phase_end %s" phase
  | Fault_inject { target; fault } ->
    Printf.sprintf "fault_inject %s@%s" fault target
  | Fault_retry { target; fault; attempt } ->
    Printf.sprintf "fault_retry %s@%s (attempt %d)" fault target attempt
  | Fault_abort { target; fault } ->
    Printf.sprintf "fault_abort %s@%s" fault target
  | Fault_recover { target; fault; attempt } ->
    Printf.sprintf "fault_recover %s@%s (attempt %d)" fault target attempt
  | Pass_run { pass; rewrites; kernel } ->
    Printf.sprintf "pass_run %s on %s (%d rewrites)" pass kernel rewrites
  | Note s -> s

let to_string e =
  if e.duration > 0 then
    Printf.sprintf "[%8d] %-12s %s (+%d)" e.at e.component
      (kind_to_string e.kind) e.duration
  else
    Printf.sprintf "[%8d] %-12s %s" e.at e.component (kind_to_string e.kind)
