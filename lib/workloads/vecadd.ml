(* Element-wise vector addition: the canonical streaming kernel and the
   best case for the copy-based interface at large sizes. *)

let source =
  {|
kernel vecadd(a: int*, b: int*, c: int*, n: int) {
  var i: int;
  for (i = 0; i < n; i = i + 1) {
    c[i] = a[i] + b[i];
  }
}
|}

let wb = Vmht_mem.Phys_mem.word_bytes

let setup aspace ~size ~seed =
  Workload.reserve aspace ~words:(3. *. float_of_int size);
  let rng = Vmht_util.Rng.create seed in
  let a_vals = Array.init size (fun _ -> Vmht_util.Rng.int_range rng 0 1000) in
  let b_vals = Array.init size (fun _ -> Vmht_util.Rng.int_range rng 0 1000) in
  let a = Workload.alloc_array aspace ~words:size ~init:(fun i -> a_vals.(i)) in
  let b = Workload.alloc_array aspace ~words:size ~init:(fun i -> b_vals.(i)) in
  let c = Workload.alloc_array aspace ~words:size ~init:(fun _ -> 0) in
  {
    Workload.args = [ a; b; c; size ];
    buffers =
      [
        { Vmht.Launch.base = a; words = size; dir = Vmht.Launch.In };
        { Vmht.Launch.base = b; words = size; dir = Vmht.Launch.In };
        { Vmht.Launch.base = c; words = size; dir = Vmht.Launch.Out };
      ];
    expected_ret = None;
    check =
      (fun load ->
        let rec ok i =
          i >= size
          || (load (c + (i * wb)) = a_vals.(i) + b_vals.(i) && ok (i + 1))
        in
        ok 0);
    data_words = 3 * size;
  }

let workload =
  {
    Workload.name = "vecadd";
    description = "element-wise vector addition c[i] = a[i] + b[i]";
    source;
    pointer_based = false;
    pattern = "streaming";
    default_size = 4096;
    setup;
  }
