(* Sparse matrix-vector product over CSR: irregular gather reads with
   data-dependent loop bounds.  [size] is the row count; rows have
   [avg_nnz] entries on average. *)

let avg_nnz = 8

let source =
  {|
kernel spmv(rowptr: int*, colidx: int*, vals: int*, x: int*, y: int*, n: int) {
  var i: int;
  for (i = 0; i < n; i = i + 1) {
    var s: int = 0;
    var k: int;
    for (k = rowptr[i]; k < rowptr[i + 1]; k = k + 1) {
      s = s + vals[k] * x[colidx[k]];
    }
    y[i] = s;
  }
}
|}

let wb = Vmht_mem.Phys_mem.word_bytes

let setup aspace ~size ~seed =
  let n = size in
  Workload.reserve aspace ~words:(3. *. float_of_int n);
  let rng = Vmht_util.Rng.create seed in
  (* Build the CSR structure in OCaml first. *)
  let row_counts =
    Array.init n (fun _ -> Vmht_util.Rng.int_range rng 1 (2 * avg_nnz))
  in
  let rowptr = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    rowptr.(i + 1) <- rowptr.(i) + row_counts.(i)
  done;
  let nnz = rowptr.(n) in
  let colidx = Array.init nnz (fun _ -> Vmht_util.Rng.int rng n) in
  let vals = Array.init nnz (fun _ -> Vmht_util.Rng.int_range rng 1 50) in
  let x_vals = Array.init n (fun _ -> Vmht_util.Rng.int_range rng 0 50) in
  let rp = Workload.alloc_array aspace ~words:(n + 1) ~init:(fun i -> rowptr.(i)) in
  let ci = Workload.alloc_array aspace ~words:nnz ~init:(fun i -> colidx.(i)) in
  let vl = Workload.alloc_array aspace ~words:nnz ~init:(fun i -> vals.(i)) in
  let xv = Workload.alloc_array aspace ~words:n ~init:(fun i -> x_vals.(i)) in
  let yv = Workload.alloc_array aspace ~words:n ~init:(fun _ -> 0) in
  let expected i =
    let s = ref 0 in
    for k = rowptr.(i) to rowptr.(i + 1) - 1 do
      s := !s + (vals.(k) * x_vals.(colidx.(k)))
    done;
    !s
  in
  {
    Workload.args = [ rp; ci; vl; xv; yv; n ];
    buffers =
      [
        { Vmht.Launch.base = rp; words = n + 1; dir = Vmht.Launch.In };
        { Vmht.Launch.base = ci; words = nnz; dir = Vmht.Launch.In };
        { Vmht.Launch.base = vl; words = nnz; dir = Vmht.Launch.In };
        { Vmht.Launch.base = xv; words = n; dir = Vmht.Launch.In };
        { Vmht.Launch.base = yv; words = n; dir = Vmht.Launch.Out };
      ];
    expected_ret = None;
    check =
      (fun load ->
        let rec ok i =
          i >= n || (load (yv + (i * wb)) = expected i && ok (i + 1))
        in
        ok 0);
    data_words = n + 1 + (2 * nnz) + (2 * n);
  }

let workload =
  {
    Workload.name = "spmv";
    description = "CSR sparse matrix-vector product";
    source;
    pointer_based = false;
    pattern = "irregular-read";
    default_size = 1024;
    setup;
  }
