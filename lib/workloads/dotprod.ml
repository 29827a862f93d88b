(* Dot product: a streaming reduction with a scalar result, so the
   copy-based style pays the staging cost without any output DMA. *)

let source =
  {|
kernel dotprod(a: int*, b: int*, n: int) : int {
  var s: int = 0;
  var i: int;
  for (i = 0; i < n; i = i + 1) {
    s = s + a[i] * b[i];
  }
  return s;
}
|}

let setup aspace ~size ~seed =
  Workload.reserve aspace ~words:(2. *. float_of_int size);
  let rng = Vmht_util.Rng.create seed in
  let a_vals = Array.init size (fun _ -> Vmht_util.Rng.int_range rng 0 100) in
  let b_vals = Array.init size (fun _ -> Vmht_util.Rng.int_range rng 0 100) in
  let a = Workload.alloc_array aspace ~words:size ~init:(fun i -> a_vals.(i)) in
  let b = Workload.alloc_array aspace ~words:size ~init:(fun i -> b_vals.(i)) in
  let expected = ref 0 in
  for i = 0 to size - 1 do
    expected := !expected + (a_vals.(i) * b_vals.(i))
  done;
  {
    Workload.args = [ a; b; size ];
    buffers =
      [
        { Vmht.Launch.base = a; words = size; dir = Vmht.Launch.In };
        { Vmht.Launch.base = b; words = size; dir = Vmht.Launch.In };
      ];
    expected_ret = Some !expected;
    check = (fun _ -> true);
    data_words = 2 * size;
  }

let workload =
  {
    Workload.name = "dotprod";
    description = "dot-product reduction returning a scalar";
    source;
    pointer_based = false;
    pattern = "streaming";
    default_size = 4096;
    setup;
  }
