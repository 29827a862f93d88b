(* 3-point 1-D stencil: streaming with spatial reuse (each input word
   is read three times, which the VM interface turns into TLB hits). *)

let source =
  {|
kernel stencil3(a: int*, b: int*, nm1: int) {
  var i: int;
  for (i = 1; i < nm1; i = i + 1) {
    b[i] = (a[i - 1] + a[i] + a[i + 1]) / 3;
  }
}
|}

let wb = Vmht_mem.Phys_mem.word_bytes

let setup aspace ~size ~seed =
  Workload.reserve aspace ~words:(2. *. float_of_int size);
  let rng = Vmht_util.Rng.create seed in
  let a_vals = Array.init size (fun _ -> Vmht_util.Rng.int_range rng 0 999) in
  let a = Workload.alloc_array aspace ~words:size ~init:(fun i -> a_vals.(i)) in
  let b = Workload.alloc_array aspace ~words:size ~init:(fun _ -> 0) in
  {
    Workload.args = [ a; b; size - 1 ];
    buffers =
      [
        { Vmht.Launch.base = a; words = size; dir = Vmht.Launch.In };
        { Vmht.Launch.base = b; words = size; dir = Vmht.Launch.Out };
      ];
    expected_ret = None;
    check =
      (fun load ->
        let rec ok i =
          i >= size - 1
          || load (b + (i * wb))
             = (a_vals.(i - 1) + a_vals.(i) + a_vals.(i + 1)) / 3
             && ok (i + 1)
        in
        ok 1);
    data_words = 2 * size;
  }

let workload =
  {
    Workload.name = "stencil3";
    description = "3-point 1-D stencil smoothing";
    source;
    pointer_based = false;
    pattern = "streaming+reuse";
    default_size = 4096;
    setup;
  }
