(* y[i] = a*x[i] + y[i]: streaming with an in-place (InOut) buffer. *)

let source =
  {|
kernel saxpy(x: int*, y: int*, n: int, a: int) {
  var i: int;
  for (i = 0; i < n; i = i + 1) {
    y[i] = a * x[i] + y[i];
  }
}
|}

let wb = Vmht_mem.Phys_mem.word_bytes

let setup aspace ~size ~seed =
  Workload.reserve aspace ~words:(2. *. float_of_int size);
  let rng = Vmht_util.Rng.create seed in
  let scalar = Vmht_util.Rng.int_range rng 2 9 in
  let x_vals = Array.init size (fun _ -> Vmht_util.Rng.int_range rng 0 500) in
  let y_vals = Array.init size (fun _ -> Vmht_util.Rng.int_range rng 0 500) in
  let x = Workload.alloc_array aspace ~words:size ~init:(fun i -> x_vals.(i)) in
  let y = Workload.alloc_array aspace ~words:size ~init:(fun i -> y_vals.(i)) in
  {
    Workload.args = [ x; y; size; scalar ];
    buffers =
      [
        { Vmht.Launch.base = x; words = size; dir = Vmht.Launch.In };
        { Vmht.Launch.base = y; words = size; dir = Vmht.Launch.InOut };
      ];
    expected_ret = None;
    check =
      (fun load ->
        let rec ok i =
          i >= size
          || load (y + (i * wb)) = (scalar * x_vals.(i)) + y_vals.(i)
             && ok (i + 1)
        in
        ok 0);
    data_words = 2 * size;
  }

let workload =
  {
    Workload.name = "saxpy";
    description = "scaled vector update y[i] = a*x[i] + y[i]";
    source;
    pointer_based = false;
    pattern = "streaming";
    default_size = 4096;
    setup;
  }
