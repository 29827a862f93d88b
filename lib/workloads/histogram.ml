(* 256-bin histogram: data-dependent scattered read-modify-writes. *)

let bins = 256

let source =
  {|
kernel histogram(a: int*, h: int*, n: int) {
  var i: int;
  for (i = 0; i < n; i = i + 1) {
    var v: int = a[i] & 255;
    h[v] = h[v] + 1;
  }
}
|}

let wb = Vmht_mem.Phys_mem.word_bytes

let setup aspace ~size ~seed =
  Workload.reserve aspace ~words:(float_of_int (size + bins));
  let rng = Vmht_util.Rng.create seed in
  let a_vals =
    Array.init size (fun _ -> Vmht_util.Rng.int_range rng 0 100_000)
  in
  let a = Workload.alloc_array aspace ~words:size ~init:(fun i -> a_vals.(i)) in
  let h = Workload.alloc_array aspace ~words:bins ~init:(fun _ -> 0) in
  let expected = Array.make bins 0 in
  Array.iter
    (fun v ->
      let b = v land (bins - 1) in
      expected.(b) <- expected.(b) + 1)
    a_vals;
  {
    Workload.args = [ a; h; size ];
    buffers =
      [
        { Vmht.Launch.base = a; words = size; dir = Vmht.Launch.In };
        { Vmht.Launch.base = h; words = bins; dir = Vmht.Launch.InOut };
      ];
    expected_ret = None;
    check =
      (fun load ->
        let rec ok i =
          i >= bins || (load (h + (i * wb)) = expected.(i) && ok (i + 1))
        in
        ok 0);
    data_words = size + bins;
  }

let workload =
  {
    Workload.name = "histogram";
    description = "256-bin histogram of an input stream";
    source;
    pointer_based = false;
    pattern = "irregular-write";
    default_size = 4096;
    setup;
  }
