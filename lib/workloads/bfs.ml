(* Breadth-first search over a CSR graph: data-dependent control flow,
   a frontier queue living in shared memory, and scattered reads and
   writes — the irregular class the pthreads-style programming model is
   meant to make easy to accelerate.  The kernel returns the number of
   visited vertices and fills [dist] with hop counts. *)

let avg_degree = 4

let source =
  {|
kernel bfs(rowptr: int*, colidx: int*, dist: int*, queue: int*, root: int) : int {
  var head: int = 0;
  var tail: int = 0;
  queue[tail] = root;
  tail = tail + 1;
  dist[root] = 0;
  var visited: int = 0;
  while (head < tail) {
    var u: int = queue[head];
    head = head + 1;
    visited = visited + 1;
    var du: int = dist[u];
    var k: int;
    for (k = rowptr[u]; k < rowptr[u + 1]; k = k + 1) {
      var v: int = colidx[k];
      if (dist[v] < 0) {
        dist[v] = du + 1;
        queue[tail] = v;
        tail = tail + 1;
      }
    }
  }
  return visited;
}
|}

let wb = Vmht_mem.Phys_mem.word_bytes

(* Reference BFS in OCaml over the same CSR arrays. *)
let reference_bfs ~n ~rowptr ~colidx ~root =
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(root) <- 0;
  Queue.add root queue;
  let visited = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    incr visited;
    for k = rowptr.(u) to rowptr.(u + 1) - 1 do
      let v = colidx.(k) in
      if dist.(v) < 0 then begin
        dist.(v) <- dist.(u) + 1;
        Queue.add v queue
      end
    done
  done;
  (dist, !visited)

let setup aspace ~size ~seed =
  let n = max 2 size in
  Workload.reserve aspace ~words:(3. *. float_of_int n);
  let rng = Vmht_util.Rng.create seed in
  (* Random sparse digraph with a spanning back-edge so most of the
     graph is reachable from the root. *)
  let adjacency =
    Array.init n (fun u ->
        let extra =
          List.init (Vmht_util.Rng.int rng (2 * avg_degree)) (fun _ ->
              Vmht_util.Rng.int rng n)
        in
        (* Edge u -> u+1 keeps the graph largely connected. *)
        if u + 1 < n then (u + 1) :: extra else extra)
  in
  let rowptr = Array.make (n + 1) 0 in
  Array.iteri
    (fun u nbrs -> rowptr.(u + 1) <- rowptr.(u) + List.length nbrs)
    adjacency;
  let m = rowptr.(n) in
  let colidx = Array.make (max m 1) 0 in
  Array.iteri
    (fun u nbrs ->
      List.iteri (fun i v -> colidx.(rowptr.(u) + i) <- v) nbrs)
    adjacency;
  let root = 0 in
  let expected_dist, expected_visited =
    reference_bfs ~n ~rowptr ~colidx ~root
  in
  let rp = Workload.alloc_array aspace ~words:(n + 1) ~init:(fun i -> rowptr.(i)) in
  let ci =
    Workload.alloc_array aspace ~words:(max m 1) ~init:(fun i -> colidx.(i))
  in
  let di = Workload.alloc_array aspace ~words:n ~init:(fun _ -> -1) in
  let qu = Workload.alloc_array aspace ~words:n ~init:(fun _ -> 0) in
  {
    Workload.args = [ rp; ci; di; qu; root ];
    buffers =
      [
        { Vmht.Launch.base = rp; words = n + 1; dir = Vmht.Launch.In };
        { Vmht.Launch.base = ci; words = max m 1; dir = Vmht.Launch.In };
        { Vmht.Launch.base = di; words = n; dir = Vmht.Launch.InOut };
        { Vmht.Launch.base = qu; words = n; dir = Vmht.Launch.InOut };
      ];
    expected_ret = Some expected_visited;
    check =
      (fun load ->
        let rec ok i =
          i >= n || (load (di + (i * wb)) = expected_dist.(i) && ok (i + 1))
        in
        ok 0);
    data_words = n + 1 + max m 1 + (2 * n);
  }

let workload =
  {
    Workload.name = "bfs";
    description = "breadth-first search over a CSR graph with an in-memory frontier";
    source;
    pointer_based = false;
    pattern = "irregular-frontier";
    default_size = 1024;
    setup;
  }
