(** Terminal "figures": render one or more (x, y) series as an ASCII
    scatter/line chart, plus a data listing.  This is how the benchmark
    harness regenerates the paper's figures without graphics tooling. *)

type series = { label : string; points : (float * float) list }

val render :
  ?logx:bool ->
  ?logy:bool ->
  title:string ->
  xlabel:string ->
  ylabel:string ->
  series list ->
  string
(** Render a 64 x 18 chart area with one glyph per series and axis
    ranges in the margins.  Series glyphs cycle through [*], [o], [+],
    [x], [#].  [logx]/[logy] plot on a log10 scale (points <= 0 are
    dropped). *)

val waterfall : title:string -> unit:string -> (string * float) list -> string
(** Cumulative horizontal-bar chart, 48 characters wide: each labeled
    segment's bar starts where the previous one ended, so a cycle
    breakdown reads as a left-to-right timeline.  Every row shows the segment's value and
    its share of the total.  [unit] names the quantity ("cycles"). *)
