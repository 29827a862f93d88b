(** Strict parser for the emitted-Verilog subset.

    Accepts exactly the module shape {!Vmht_hls.Verilog} emits — port
    list, [localparam]s, [reg] declarations, and one
    [always @(posedge clk)] block of the form
    [if (rst) begin ... end else begin case (state) ... endcase end] —
    and turns it back into the {!Ast.t} the evaluator executes, so the
    emitted bytes are what runs.

    Strictness is deliberate and is part of the bug surface this
    library exists to cover: sized literals that overflow their width
    (the undersized state register aliased S_IDLE with state 0), x/z
    digits, and unary minus on a sized literal (the old [-64'sd5]
    spelling of negative immediates, which is self-determined inside
    concatenations) are all hard {!Parse_error}s rather than the
    silent truncation Verilog would perform. *)

exception Parse_error of string

val parse_module : string -> Ast.t
(** Parse an emitted module.  Raises {!Parse_error} on anything
    outside the emitted subset. *)
