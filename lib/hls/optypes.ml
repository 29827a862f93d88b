module Ast = Vmht_lang.Ast
module Ir = Vmht_ir.Ir

type op_class = Alu | Cmp | Mul | Div | Shift | Mem | Move

let all_classes = [ Alu; Cmp; Mul; Div; Shift; Mem; Move ]

let class_count = List.length all_classes

let class_index = function
  | Alu -> 0
  | Cmp -> 1
  | Mul -> 2
  | Div -> 3
  | Shift -> 4
  | Mem -> 5
  | Move -> 6

let class_name = function
  | Alu -> "alu"
  | Cmp -> "cmp"
  | Mul -> "mul"
  | Div -> "div"
  | Shift -> "shift"
  | Mem -> "mem"
  | Move -> "move"

let class_of_binop = function
  | Ast.Add | Ast.Sub | Ast.And | Ast.Or | Ast.Xor | Ast.Land | Ast.Lor -> Alu
  | Ast.Mul -> Mul
  | Ast.Div | Ast.Rem -> Div
  | Ast.Shl | Ast.Shr -> Shift
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne -> Cmp

let classify = function
  | Ir.Bin (op, _, _, _) -> class_of_binop op
  | Ir.Un _ -> Alu
  | Ir.Mov _ -> Move
  | Ir.Load _ | Ir.Store _ -> Mem

let latency = function
  | Alu | Cmp | Shift | Move -> 1
  | Mul -> 3
  | Div -> 16
  | Mem -> 1

type area = { lut : int; ff : int; dsp : int; bram : int }

let zero_area = { lut = 0; ff = 0; dsp = 0; bram = 0 }

let add_area a b =
  {
    lut = a.lut + b.lut;
    ff = a.ff + b.ff;
    dsp = a.dsp + b.dsp;
    bram = a.bram + b.bram;
  }

let scale_area k a =
  { lut = k * a.lut; ff = k * a.ff; dsp = k * a.dsp; bram = k * a.bram }

(* Per-FU area for a 64-bit datapath, in the range vendor reports give
   for such operators on 7-series-class fabric. *)
let fu_area = function
  | Alu -> { lut = 96; ff = 0; dsp = 0; bram = 0 }
  | Cmp -> { lut = 40; ff = 0; dsp = 0; bram = 0 }
  | Mul -> { lut = 180; ff = 96; dsp = 16; bram = 0 }
  | Div -> { lut = 1400; ff = 900; dsp = 0; bram = 0 }
  | Shift -> { lut = 190; ff = 0; dsp = 0; bram = 0 }
  | Mem -> { lut = 120; ff = 150; dsp = 0; bram = 0 }
  | Move -> zero_area

let register_area n = { lut = 20 * n; ff = 64 * n; dsp = 0; bram = 0 }

(* Banked-scratchpad arbitration: per-bank address decode, a request
   arbiter and the read-data return mux.  Only multi-bank memories pay
   it — one bank needs no arbiter, so banks=1 adds nothing. *)
let bank_area ~banks =
  if banks <= 1 then zero_area
  else { lut = 48 * banks; ff = 24 * banks; dsp = 0; bram = 0 }

let fsm_area ~states =
  let state_bits = max 1 (Vmht_util.Bits.ceil_log2 (max states 2)) in
  { lut = 60 + (9 * states); ff = state_bits + 16; dsp = 0; bram = 0 }

let area_to_string a =
  Printf.sprintf "LUT=%d FF=%d DSP=%d BRAM=%d" a.lut a.ff a.dsp a.bram
