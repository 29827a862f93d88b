(* Batch lookups in a binary search tree.  Nodes are three words
   [key; left-vaddr; right-vaddr]; a balanced tree over [size] keys is
   probed with [size/2] queries (half present, half absent).  Pointer-
   based, so the copy-based style stages the whole tree arena. *)

let source =
  {|
kernel tree_search(root: int*, queries: int*, nq: int) : int {
  var hits: int = 0;
  var i: int;
  for (i = 0; i < nq; i = i + 1) {
    var key: int = queries[i];
    var p: int* = root;
    var found: int = 0;
    while (p != null && found == 0) {
      var k: int = p[0];
      if (key == k) {
        found = 1;
      } else {
        if (key < k) {
          p = (int*) p[1];
        } else {
          p = (int*) p[2];
        }
      }
    }
    hits = hits + found;
  }
  return hits;
}
|}

let wb = Vmht_mem.Phys_mem.word_bytes

let setup aspace ~size ~seed =
  let n = max 1 size in
  Workload.reserve aspace ~words:(3. *. float_of_int n);
  let rng = Vmht_util.Rng.create seed in
  (* Distinct sorted keys: strictly increasing with random gaps. *)
  let keys = Array.make n 0 in
  let cur = ref 0 in
  for i = 0 to n - 1 do
    cur := !cur + Vmht_util.Rng.int_range rng 1 5;
    keys.(i) <- !cur
  done;
  let arena_words = 3 * n in
  (* Fresh frames read zero: the arena needs no clearing. *)
  let arena = Vmht_vm.Addr_space.alloc aspace ~bytes:(arena_words * wb) in
  (* Scatter the node slots so tree edges jump across the arena. *)
  let slots = Array.init n Fun.id in
  Vmht_util.Rng.shuffle rng slots;
  let node_addr i = arena + (3 * slots.(i) * wb) in
  let store = Vmht_vm.Addr_space.store_word aspace in
  (* Build a balanced BST over keys[lo..hi]; returns the subtree root's
     address, or 0 (null) for an empty range. *)
  let rec build lo hi =
    if lo > hi then 0
    else begin
      let mid = (lo + hi) / 2 in
      let addr = node_addr mid in
      store addr keys.(mid);
      store (addr + wb) (build lo (mid - 1));
      store (addr + (2 * wb)) (build (mid + 1) hi);
      addr
    end
  in
  let root = build 0 (n - 1) in
  (* Few queries over a big tree: the traversal touches a small
     fraction of the arena, which is where shared virtual memory beats
     staging the whole structure. *)
  let nq = max 8 (n / 512) in
  let queries =
    Array.init nq (fun i ->
        if i mod 2 = 0 then keys.(Vmht_util.Rng.int rng n) (* present *)
        else !cur + 10 + Vmht_util.Rng.int rng 1000 (* absent *))
  in
  let qbuf =
    Workload.alloc_array aspace ~words:nq ~init:(fun i -> queries.(i))
  in
  (* The keys are sorted: a binary search per query. *)
  let present q =
    let rec search lo hi =
      if lo > hi then false
      else
        let mid = (lo + hi) / 2 in
        if q = keys.(mid) then true
        else if q < keys.(mid) then search lo (mid - 1)
        else search (mid + 1) hi
    in
    search 0 (n - 1)
  in
  let expected =
    Array.fold_left (fun acc q -> if present q then acc + 1 else acc) 0 queries
  in
  {
    Workload.args = [ root; qbuf; nq ];
    buffers =
      [
        { Vmht.Launch.base = arena; words = arena_words; dir = Vmht.Launch.In };
        { Vmht.Launch.base = qbuf; words = nq; dir = Vmht.Launch.In };
      ];
    expected_ret = Some expected;
    check = (fun _ -> true);
    data_words = arena_words + nq;
  }

let workload =
  {
    Workload.name = "tree_search";
    description = "sparse lookups in a large scattered binary search tree";
    source;
    pointer_based = true;
    pattern = "pointer-chase";
    default_size = 8192;
    setup;
  }
