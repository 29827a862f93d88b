module Fi = Vmht_fault.Injector
module Fp = Vmht_fault.Plan

type stats = {
  walks : int;
  level_reads : int;
  failed_walks : int;
  walk_cache_hits : int;
  walk_cache_misses : int;
}

type t = {
  bus : Vmht_mem.Bus.t;
  engine : Vmht_sim.Engine.t;
  pt : Page_table.t;
  (* Direct-mapped page-walk cache: memoizes which level-1 entries were
     recently seen valid, keyed (and tagged) by the L1 entry's physical
     address.  [-1] = empty slot; a zero-length array disables it. *)
  walk_cache : int array;
  mutable walks : int;
  mutable level_reads : int;
  mutable failed_walks : int;
  mutable walk_cache_hits : int;
  mutable walk_cache_misses : int;
  mutable fault : Fi.t option;
}

(* The walker state machine's cycles per level, before the level read. *)
let per_level_overhead = 2

let create ?(walk_cache_entries = 0) bus pt =
  if walk_cache_entries < 0 then
    invalid_arg "Ptw.create: negative walk-cache size";
  if walk_cache_entries > Tlb.max_entries then
    invalid_arg
      (Printf.sprintf "Ptw.create: %d walk-cache entries exceed the bound of %d"
         walk_cache_entries Tlb.max_entries);
  {
    bus;
    engine = Vmht_mem.Bus.engine bus;
    pt;
    walk_cache = Array.make walk_cache_entries (-1);
    walks = 0;
    level_reads = 0;
    failed_walks = 0;
    walk_cache_hits = 0;
    walk_cache_misses = 0;
    fault = None;
  }

let wc_index t l1_addr =
  l1_addr / Vmht_mem.Phys_mem.word_bytes mod Array.length t.walk_cache

let set_fault t inj = t.fault <- Some inj

(* Issue the level reads over the bus for timing; the table decode
   itself is delegated to the functional page-table lookup, which
   reads the same physical words. *)
let read_levels t addrs =
  List.iter
    (fun addr ->
      Vmht_sim.Engine.wait_on t.engine per_level_overhead;
      (match t.fault with
      | Some inj when Fi.fires inj ~rate:(Fi.plan inj).Fp.walk_stall_rate ->
        let cycles = (Fi.plan inj).Fp.walk_stall_cycles in
        Vmht_sim.Engine.wait_on t.engine cycles;
        Fi.injected inj ~fault:"walk_stall" ~cycles
      | _ -> ());
      ignore (Vmht_mem.Bus.read_word t.bus addr);
      t.level_reads <- t.level_reads + 1)
    addrs

let walk t ~vaddr =
  t.walks <- t.walks + 1;
  (* A walk-cache hit on the level-1 entry skips its bus read: a warm
     two-level walk issues one read (the L2 entry) instead of two. *)
  let addrs =
    match Page_table.walk_addrs t.pt ~vaddr with
    | [ l1_addr; l2_addr ] when Array.length t.walk_cache > 0 ->
      let i = wc_index t l1_addr in
      if t.walk_cache.(i) = l1_addr then begin
        t.walk_cache_hits <- t.walk_cache_hits + 1;
        [ l2_addr ]
      end
      else begin
        t.walk_cache_misses <- t.walk_cache_misses + 1;
        t.walk_cache.(i) <- l1_addr;
        [ l1_addr; l2_addr ]
      end
    | (l1_addr :: _) as addrs when Array.length t.walk_cache > 0 ->
      (* Level-1 entry is invalid: a memo for it is stale — drop it. *)
      let i = wc_index t l1_addr in
      if t.walk_cache.(i) = l1_addr then t.walk_cache.(i) <- -1;
      addrs
    | addrs -> addrs
  in
  read_levels t addrs;
  (* A transient walk failure throws away the walk just issued: the
     walker stalls for the retry turnaround, re-reads every level, and
     tries again — at most [walk_retry_limit] rounds. *)
  (match t.fault with
  | Some inj ->
    let plan = Fi.plan inj in
    let rec transient attempt =
      if
        attempt <= plan.Fp.walk_retry_limit
        && Fi.fires inj ~rate:plan.Fp.walk_transient_rate
      then begin
        Vmht_sim.Engine.wait_on t.engine plan.Fp.walk_retry_cycles;
        Fi.retry inj ~fault:"walk_transient" ~attempt
          ~cycles:plan.Fp.walk_retry_cycles;
        read_levels t addrs;
        transient (attempt + 1)
      end
    in
    transient 1
  | None -> ());
  match Page_table.lookup t.pt ~vaddr with
  | Some entry -> Some entry
  | None ->
    t.failed_walks <- t.failed_walks + 1;
    None

let invalidate_walk_cache t =
  Array.fill t.walk_cache 0 (Array.length t.walk_cache) (-1)

let invalidate_walk_cache_entry t ~vaddr =
  if Array.length t.walk_cache > 0 then
    match Page_table.walk_addrs t.pt ~vaddr with
    | l1_addr :: _ ->
      let i = wc_index t l1_addr in
      if t.walk_cache.(i) = l1_addr then t.walk_cache.(i) <- -1
    | [] -> ()

let stats (t : t) : stats =
  {
    walks = t.walks;
    level_reads = t.level_reads;
    failed_walks = t.failed_walks;
    walk_cache_hits = t.walk_cache_hits;
    walk_cache_misses = t.walk_cache_misses;
  }
