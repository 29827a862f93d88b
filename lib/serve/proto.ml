type mode = Sw | Vm | Dma

let mode_name = function Sw -> "sw" | Vm -> "vm" | Dma -> "dma"

type job =
  | Synthesize of {
      kernel : Vmht_lang.Ast.kernel;
      style : Vmht.Wrapper.style;
      config : Vmht.Config.t;
    }
  | Execute of {
      workload : string;
      mode : mode;
      size : int;
      config : Vmht.Config.t;
    }

let synthesis_key = function
  | Synthesize { kernel; style; config } ->
    Some (Vmht.Flow.cache_key config style kernel)
  | Execute _ -> None

type request = {
  rid : int;
  attempt : int;
  deadline_ms : int option;
  job : job;
}

type outcome =
  | Synthesized of {
      kname : string;
      states : int;
      total_area : Vmht_hls.Optypes.area;
      verilog_bytes : int;
    }
  | Executed of { cycles : int; correct : bool; ret : int option }
  | Failed of string

type reply = { rid : int; outcome : outcome }

let outcome_to_string = function
  | Synthesized { kname; states; total_area = a; verilog_bytes } ->
    Printf.sprintf
      "synthesized %s: %d states, %d LUT %d FF %d DSP %d BRAM, %d bytes of \
       Verilog"
      kname states a.Vmht_hls.Optypes.lut a.ff a.dsp a.bram verilog_bytes
  | Executed { cycles; correct; ret } ->
    Printf.sprintf "executed: %d cycles, ret %s, %s" cycles
      (match ret with Some r -> string_of_int r | None -> "-")
      (if correct then "correct" else "MISMATCH")
  | Failed msg -> Printf.sprintf "failed: %s" msg

(* --- framing ------------------------------------------------------- *)

let write_all fd buf =
  let n = Bytes.length buf in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd buf !off (n - !off)
  done

(* [None] on EOF at any point — a half-frame from a dying worker is
   EOF, not an exception. *)
let really_read fd n =
  let buf = Bytes.create n in
  let off = ref 0 in
  let eof = ref false in
  while (not !eof) && !off < n do
    match Unix.read fd buf !off (n - !off) with
    | 0 -> eof := true
    | k -> off := !off + k
  done;
  if !eof then None else Some buf

let write_msg fd v =
  let payload = Marshal.to_bytes v [] in
  let hdr = Bytes.create 8 in
  Bytes.set_int64_le hdr 0 (Int64.of_int (Bytes.length payload));
  write_all fd hdr;
  write_all fd payload

let read_msg fd =
  match really_read fd 8 with
  | None -> None
  | Some hdr -> (
    let n = Int64.to_int (Bytes.get_int64_le hdr 0) in
    match really_read fd n with
    | None -> None
    | Some payload -> Some (Marshal.from_bytes payload 0))
