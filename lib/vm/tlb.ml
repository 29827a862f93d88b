type policy = Lru | Fifo

type config = { entries : int; assoc : int; policy : policy }

let default_config = { entries = 16; assoc = 0; policy = Lru }

type entry = { frame : int; writable : bool }

type stats = { lookups : int; hits : int; evictions : int }

type slot = {
  mutable valid : bool;
  mutable asid : int;
  mutable vpn : int;
  mutable data : entry;
  mutable stamp : int; (* recency for LRU, insertion order for FIFO *)
}

type t = {
  config : config;
  sets : slot array array;
  set_mask : int; (* n_sets - 1 when a power of two, else -1 (use mod) *)
  lru : bool; (* policy = Lru, hoisted out of the lookup path *)
  mutable clock : int;
  mutable lookups : int;
  mutable hits : int;
  mutable evictions : int;
  (* Translation memo: a direct-mapped vpn -> slot pointer cache in
     front of the associative scan.  A memo hit revalidates against the
     slot's own tags (valid/vpn/asid), so eviction, shootdown and unmap
     invalidate it implicitly — no hook can be missed — and it performs
     the identical lookup/clock/hit/stamp updates the scan would, so
     replacement behavior and stats are bit-for-bit unchanged. *)
  memo : slot array;
  memo_mask : int; (* -1 disables the memo *)
  mutable memo_hits : int;
}

let memo_size = 64

let invalid_slot =
  {
    valid = false;
    asid = 0;
    vpn = -1;
    data = { frame = 0; writable = false };
    stamp = 0;
  }

let max_entries = 65_536

let validate config =
  if config.entries <= 0 then invalid_arg "Tlb.create: no entries";
  if config.entries > max_entries then
    invalid_arg
      (Printf.sprintf "Tlb.create: %d entries exceed the bound of %d"
         config.entries max_entries);
  if config.assoc < 0 then invalid_arg "Tlb.create: negative associativity";
  if config.assoc > 0 && config.entries mod config.assoc <> 0 then
    invalid_arg
      (Printf.sprintf
         "Tlb.create: %d entries do not divide into %d-way sets (capacity \
          would silently shrink to %d)"
         config.entries config.assoc
         (config.entries / config.assoc * config.assoc))

let create ?(memo = true) config =
  validate config;
  let ways = if config.assoc = 0 then config.entries else config.assoc in
  let n_sets = config.entries / ways in
  {
    config;
    sets =
      Array.init n_sets (fun _ ->
          Array.init ways (fun _ ->
              {
                valid = false;
                asid = 0;
                vpn = -1;
                data = { frame = 0; writable = false };
                stamp = 0;
              }));
    set_mask = (if n_sets land (n_sets - 1) = 0 then n_sets - 1 else -1);
    lru = config.policy = Lru;
    clock = 0;
    lookups = 0;
    hits = 0;
    evictions = 0;
    memo = (if memo then Array.make memo_size invalid_slot else [||]);
    memo_mask = (if memo then memo_size - 1 else -1);
    memo_hits = 0;
  }

let set_of t vpn =
  if t.set_mask >= 0 then t.sets.(vpn land t.set_mask)
  else t.sets.(vpn mod Array.length t.sets)

(* Index of the matching valid slot in [slots], or -1. *)
let find_slot slots ~vpn ~asid =
  let n = Array.length slots in
  let rec go i =
    if i >= n then -1
    else
      let s = Array.unsafe_get slots i in
      if s.valid && s.vpn = vpn && s.asid = asid then i else go (i + 1)
  in
  go 0

(* Memo probe: the matching slot, or [invalid_slot] on a memo miss.
   At most one valid slot matches an (asid, vpn) pair ([insert] reuses
   a resident match), so a revalidated memo hit is the same slot the
   scan would find. *)
let memo_probe t ~vpn ~asid =
  if t.memo_mask < 0 then invalid_slot
  else
    let m = Array.unsafe_get t.memo (vpn land t.memo_mask) in
    if m.valid && m.vpn = vpn && m.asid = asid then m else invalid_slot

let memoize t s =
  if t.memo_mask >= 0 then Array.unsafe_set t.memo (s.vpn land t.memo_mask) s

let lookup ?(asid = 0) t ~vpn =
  t.lookups <- t.lookups + 1;
  t.clock <- t.clock + 1;
  let m = memo_probe t ~vpn ~asid in
  if m != invalid_slot then begin
    t.hits <- t.hits + 1;
    t.memo_hits <- t.memo_hits + 1;
    if t.lru then m.stamp <- t.clock;
    Some m.data
  end
  else
    let slots = set_of t vpn in
    let i = find_slot slots ~vpn ~asid in
    if i < 0 then None
    else begin
      t.hits <- t.hits + 1;
      let s = slots.(i) in
      if t.lru then s.stamp <- t.clock;
      memoize t s;
      Some s.data
    end

let lookup_frame ?(asid = 0) t ~vpn =
  t.lookups <- t.lookups + 1;
  t.clock <- t.clock + 1;
  let m = memo_probe t ~vpn ~asid in
  if m != invalid_slot then begin
    t.hits <- t.hits + 1;
    t.memo_hits <- t.memo_hits + 1;
    if t.lru then m.stamp <- t.clock;
    m.data.frame
  end
  else
    let slots = set_of t vpn in
    let i = find_slot slots ~vpn ~asid in
    if i < 0 then -1
    else begin
      t.hits <- t.hits + 1;
      let s = slots.(i) in
      if t.lru then s.stamp <- t.clock;
      memoize t s;
      s.data.frame
    end

let insert ?(asid = 0) t ~vpn entry =
  t.clock <- t.clock + 1;
  let slots = set_of t vpn in
  let n = Array.length slots in
  (* Reuse the slot if the page is already present; otherwise take an
     invalid slot, else evict the policy victim. *)
  let i = find_slot slots ~vpn ~asid in
  if i >= 0 then begin
    (* Refreshing a resident page only replaces the payload: under FIFO
       the slot keeps its original insertion stamp (a rewrite is not a
       re-arrival), under LRU the touch counts as a use. *)
    let slot = slots.(i) in
    slot.data <- entry;
    if t.lru then slot.stamp <- t.clock;
    memoize t slot
  end
  else begin
    let slot =
      let rec first_invalid i =
        if i >= n then -1
        else if not slots.(i).valid then i
        else first_invalid (i + 1)
      in
      let j = first_invalid 0 in
      if j >= 0 then slots.(j)
      else begin
        let victim = ref slots.(0) in
        for k = 1 to n - 1 do
          if slots.(k).stamp < !victim.stamp then victim := slots.(k)
        done;
        t.evictions <- t.evictions + 1;
        !victim
      end
    in
    slot.valid <- true;
    slot.asid <- asid;
    slot.vpn <- vpn;
    slot.data <- entry;
    slot.stamp <- t.clock;
    memoize t slot
  end

let invalidate ?(asid = 0) t ~vpn =
  Array.iter
    (fun s -> if s.valid && s.vpn = vpn && s.asid = asid then s.valid <- false)
    (set_of t vpn)

let invalidate_vpn t ~vpn =
  Array.iter
    (fun s -> if s.valid && s.vpn = vpn then s.valid <- false)
    (set_of t vpn)

let invalidate_asid t ~asid =
  Array.iter
    (fun set ->
      Array.iter (fun s -> if s.valid && s.asid = asid then s.valid <- false) set)
    t.sets

let invalidate_all t =
  Array.iter (fun set -> Array.iter (fun s -> s.valid <- false) set) t.sets

let invalidate_slot t ~n =
  let total =
    Array.length t.sets * Array.length t.sets.(0)
  in
  if total > 0 then begin
    let n = ((n mod total) + total) mod total in
    let ways = Array.length t.sets.(0) in
    t.sets.(n / ways).(n mod ways).valid <- false
  end

let slot_count t = Array.length t.sets * Array.length t.sets.(0)

let memo_hits t = t.memo_hits

let stats (t : t) : stats =
  { lookups = t.lookups; hits = t.hits; evictions = t.evictions }

let hit_rate t =
  if t.lookups = 0 then 0. else float_of_int t.hits /. float_of_int t.lookups

let occupancy t =
  Array.fold_left
    (fun acc set ->
      acc + Array.fold_left (fun a s -> if s.valid then a + 1 else a) 0 set)
    0 t.sets
