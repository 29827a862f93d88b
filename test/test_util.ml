open Vmht_util

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* ------------------------- Bits ---------------------------------- *)

let test_is_pow2 () =
  check_bool "1 is pow2" true (Bits.is_pow2 1);
  check_bool "2 is pow2" true (Bits.is_pow2 2);
  check_bool "4096 is pow2" true (Bits.is_pow2 4096);
  check_bool "3 is not" false (Bits.is_pow2 3);
  check_bool "0 is not" false (Bits.is_pow2 0);
  check_bool "-4 is not" false (Bits.is_pow2 (-4))

let test_log2 () =
  check_int "log2 1" 0 (Bits.log2 1);
  check_int "log2 2" 1 (Bits.log2 2);
  check_int "log2 4096" 12 (Bits.log2 4096);
  check_int "log2 5 floors" 2 (Bits.log2 5)

let test_ceil_log2 () =
  check_int "ceil_log2 1" 0 (Bits.ceil_log2 1);
  check_int "ceil_log2 5" 3 (Bits.ceil_log2 5);
  check_int "ceil_log2 8" 3 (Bits.ceil_log2 8)

let test_align () =
  check_int "align_up exact" 4096 (Bits.align_up 4096 4096);
  check_int "align_up" 8192 (Bits.align_up 4097 4096);
  check_int "align_down" 4096 (Bits.align_down 8191 4096);
  check_int "align_up zero" 0 (Bits.align_up 0 64)

let test_extract () =
  check_int "extract low nibble" 0x5 (Bits.extract 0xA5 ~lo:0 ~width:4);
  check_int "extract high nibble" 0xA (Bits.extract 0xA5 ~lo:4 ~width:4)

let test_ceil_div () =
  check_int "exact" 4 (Bits.ceil_div 16 4);
  check_int "round up" 5 (Bits.ceil_div 17 4)

(* ------------------------- Rng ----------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 in
  let b = Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let child = Rng.split a in
  let x = Rng.next child in
  let y = Rng.next a in
  check_bool "split streams differ" true (x <> y)

let test_rng_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_range r (-5) 5 in
    check_bool "in signed range" true (v >= -5 && v <= 5)
  done

let test_rng_shuffle_permutes () =
  let r = Rng.create 3 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

(* ------------------------- Stats --------------------------------- *)

let check_float = Alcotest.(check (float 1e-9))

let test_stats_mean () =
  check_float "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ]);
  check_float "mean empty" 0. (Stats.mean [])

let test_stats_geomean () =
  check_float "geomean" 2. (Stats.geomean [ 1.; 4. ]);
  check_float "geomean single" 3. (Stats.geomean [ 3. ])

let test_stats_median () =
  check_float "odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  check_float "even" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ])

let test_stats_stddev () =
  check_float "constant" 0. (Stats.stddev [ 5.; 5.; 5. ]);
  check_float "simple" 2. (Stats.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ])

(* ------------------------- Table --------------------------------- *)

let test_table_render () =
  let t = Table.create ~title:"T" ~headers:[ "name"; "value" ] in
  Table.add_row t [ "a"; "1" ];
  Table.add_row t [ "bb" ];
  let s = Table.render t in
  check_bool "contains title" true (String.length s > 0);
  check_bool "mentions a" true
    (String.split_on_char '\n' s |> List.exists (fun l ->
         String.length l > 0 && String.index_opt l 'a' <> None))

let test_fmt_int () =
  Alcotest.(check string) "small" "999" (Table.fmt_int 999);
  Alcotest.(check string) "thousands" "12,345" (Table.fmt_int 12345);
  Alcotest.(check string) "millions" "1,234,567" (Table.fmt_int 1234567);
  Alcotest.(check string) "negative" "-1,000" (Table.fmt_int (-1000))

(* ------------------------- Ascii_plot ---------------------------- *)

let test_plot_renders () =
  let s =
    Ascii_plot.render ~title:"fig" ~xlabel:"x" ~ylabel:"y"
      [ { Ascii_plot.label = "s1"; points = [ (1., 1.); (2., 4.); (3., 9.) ] } ]
  in
  check_bool "non-empty" true (String.length s > 100)

let test_plot_empty () =
  let s =
    Ascii_plot.render ~title:"fig" ~xlabel:"x" ~ylabel:"y"
      [ { Ascii_plot.label = "s1"; points = [] } ]
  in
  check_bool "handles empty" true (String.length s > 0)

(* ------------------------- qcheck properties --------------------- *)

let prop_align_up_ge =
  QCheck.Test.make ~name:"align_up result >= input and aligned"
    QCheck.(pair (int_bound 1_000_000) (int_bound 10))
    (fun (v, k) ->
      let a = 1 lsl k in
      let r = Vmht_util.Bits.align_up v a in
      r >= v && r mod a = 0 && r - v < a)

let prop_geomean_le_mean =
  QCheck.Test.make ~name:"geomean <= mean for positive lists"
    QCheck.(list_of_size Gen.(1 -- 20) (float_bound_exclusive 100.))
    (fun xs ->
      let xs = List.map (fun x -> x +. 0.001) xs in
      Stats.geomean xs <= Stats.mean xs +. 1e-9)

let buf_int n =
  let b = Buffer.create 24 in
  Vmht_util.Buf.add_int b n;
  Buffer.contents b

let test_buf_add_int_edges () =
  List.iter
    (fun n ->
      Alcotest.(check string) (string_of_int n) (string_of_int n) (buf_int n))
    [ 0; 9; 10; -1; -9; -10; max_int; min_int; min_int + 1 ]

let prop_buf_add_int =
  QCheck.Test.make ~name:"buf: add_int prints as string_of_int" QCheck.int
    (fun n -> buf_int n = string_of_int n)

let suite =
  [
    Alcotest.test_case "bits: is_pow2" `Quick test_is_pow2;
    Alcotest.test_case "bits: log2" `Quick test_log2;
    Alcotest.test_case "bits: ceil_log2" `Quick test_ceil_log2;
    Alcotest.test_case "bits: align" `Quick test_align;
    Alcotest.test_case "bits: extract" `Quick test_extract;
    Alcotest.test_case "bits: ceil_div" `Quick test_ceil_div;
    Alcotest.test_case "rng: deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng: bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng: shuffle permutes" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "stats: mean" `Quick test_stats_mean;
    Alcotest.test_case "stats: geomean" `Quick test_stats_geomean;
    Alcotest.test_case "stats: median" `Quick test_stats_median;
    Alcotest.test_case "stats: stddev" `Quick test_stats_stddev;
    Alcotest.test_case "table: render" `Quick test_table_render;
    Alcotest.test_case "table: fmt_int" `Quick test_fmt_int;
    Alcotest.test_case "plot: renders" `Quick test_plot_renders;
    Alcotest.test_case "plot: empty" `Quick test_plot_empty;
    QCheck_alcotest.to_alcotest prop_align_up_ge;
    QCheck_alcotest.to_alcotest prop_geomean_le_mean;
    Alcotest.test_case "buf: add_int edges" `Quick test_buf_add_int_edges;
    QCheck_alcotest.to_alcotest prop_buf_add_int;
  ]
