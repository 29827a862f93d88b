(* Dense matrix multiply: the compute-bound kernel.  [size] is the
   matrix dimension. *)

let source =
  {|
kernel mmul(a: int*, b: int*, c: int*, n: int) {
  var i: int;
  var j: int;
  var k: int;
  for (i = 0; i < n; i = i + 1) {
    for (j = 0; j < n; j = j + 1) {
      var s: int = 0;
      for (k = 0; k < n; k = k + 1) {
        s = s + a[i * n + k] * b[k * n + j];
      }
      c[i * n + j] = s;
    }
  }
}
|}

let wb = Vmht_mem.Phys_mem.word_bytes

let setup aspace ~size ~seed =
  let n = size in
  Workload.reserve aspace ~words:(3. *. float_of_int n *. float_of_int n);
  let rng = Vmht_util.Rng.create seed in
  let a_vals =
    Array.init (n * n) (fun _ -> Vmht_util.Rng.int_range rng 0 20)
  in
  let b_vals =
    Array.init (n * n) (fun _ -> Vmht_util.Rng.int_range rng 0 20)
  in
  let a = Workload.alloc_array aspace ~words:(n * n) ~init:(fun i -> a_vals.(i)) in
  let b = Workload.alloc_array aspace ~words:(n * n) ~init:(fun i -> b_vals.(i)) in
  let c = Workload.alloc_array aspace ~words:(n * n) ~init:(fun _ -> 0) in
  let expected i j =
    let s = ref 0 in
    for k = 0 to n - 1 do
      s := !s + (a_vals.((i * n) + k) * b_vals.((k * n) + j))
    done;
    !s
  in
  {
    Workload.args = [ a; b; c; n ];
    buffers =
      [
        { Vmht.Launch.base = a; words = n * n; dir = Vmht.Launch.In };
        { Vmht.Launch.base = b; words = n * n; dir = Vmht.Launch.In };
        { Vmht.Launch.base = c; words = n * n; dir = Vmht.Launch.Out };
      ];
    expected_ret = None;
    check =
      (fun load ->
        let ok = ref true in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if load (c + (((i * n) + j) * wb)) <> expected i j then ok := false
          done
        done;
        !ok);
    data_words = 3 * n * n;
  }

let workload =
  {
    Workload.name = "mmul";
    description = "dense n x n matrix multiply";
    source;
    pointer_based = false;
    pattern = "compute-bound";
    default_size = 20;
    setup;
  }
