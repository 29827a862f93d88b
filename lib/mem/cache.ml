type config = {
  size_bytes : int;
  line_bytes : int;
  ways : int;
  hit_latency : int;
}

let default_config =
  { size_bytes = 16384; line_bytes = 32; ways = 4; hit_latency = 1 }

type stats = {
  read_hits : int;
  read_misses : int;
  write_hits : int;
  write_misses : int;
  writebacks : int;
  invalidations : int;
}

type line = {
  mutable valid : bool;
  mutable dirty : bool;
  mutable tag : int;
  mutable phys_base : int; (* physical address of the line's first byte *)
  mutable last_use : int;
  mutable data : int array;
}

type t = {
  config : config;
  bus : Bus.t;
  engine : Vmht_sim.Engine.t;
  sets : line array array;
  line_shift : int; (* log2 line_bytes *)
  set_mask : int; (* sets - 1: the set index is the line address's low bits *)
  tag_shift : int; (* log2 line_bytes + log2 sets *)
  mutable clock : int;
  mutable read_hits : int;
  mutable read_misses : int;
  mutable write_hits : int;
  mutable write_misses : int;
  mutable writebacks : int;
  mutable invalidations : int;
  mutable observer : Vmht_obs.Event.emitter option;
}

let create ?(config = default_config) bus =
  let lines = config.size_bytes / config.line_bytes in
  let n_sets = max 1 (lines / config.ways) in
  assert (Vmht_util.Bits.is_pow2 config.line_bytes);
  assert (Vmht_util.Bits.is_pow2 n_sets);
  let words_per_line = config.line_bytes / Phys_mem.word_bytes in
  let line_shift = Vmht_util.Bits.log2 config.line_bytes in
  {
    config;
    bus;
    engine = Bus.engine bus;
    line_shift;
    set_mask = n_sets - 1;
    tag_shift = line_shift + Vmht_util.Bits.log2 n_sets;
    sets =
      Array.init n_sets (fun _ ->
          Array.init config.ways (fun _ ->
              {
                valid = false;
                dirty = false;
                tag = -1;
                phys_base = 0;
                last_use = 0;
                data = Array.make words_per_line 0;
              }));
    clock = 0;
    read_hits = 0;
    read_misses = 0;
    write_hits = 0;
    write_misses = 0;
    writebacks = 0;
    invalidations = 0;
    observer = None;
  }

let set_observer t f = t.observer <- Some f

(* Addresses are non-negative, so shifts and masks pick the same set,
   tag and word as division and remainder would. *)
let set_of t addr = t.sets.((addr lsr t.line_shift) land t.set_mask)

let tag_of t addr = addr lsr t.tag_shift

let word_in_line t addr =
  (addr land (t.config.line_bytes - 1)) / Phys_mem.word_bytes

(* The way of [lines] holding [tag], from [i] on; -1 when none does. *)
let rec find_way lines tag i =
  if i >= Array.length lines then -1
  else
    let l = lines.(i) in
    if l.valid && l.tag = tag then i else find_way lines tag (i + 1)

let victim lines =
  let best = ref lines.(0) in
  for i = 0 to Array.length lines - 1 do
    let l = lines.(i) in
    if not l.valid then best := l
    else if !best.valid && l.last_use < !best.last_use then best := l
  done;
  !best

(* Clean from the moment the burst copies the data: a store that lands
   while the burst waits for the bus re-dirties the line. *)
let write_back t line =
  if line.valid && line.dirty then begin
    t.writebacks <- t.writebacks + 1;
    line.dirty <- false;
    Bus.write_burst t.bus ~addr:line.phys_base (Array.copy line.data)
  end

(* Bring the line containing [addr]/[phys] into the cache, evicting
   (and writing back) the victim.  Returns the filled line. *)
let fill t addr phys =
  let line_base_phys = Vmht_util.Bits.align_down phys t.config.line_bytes in
  let words = t.config.line_bytes / Phys_mem.word_bytes in
  let line = victim (set_of t addr) in
  write_back t line;
  let data = Bus.read_burst t.bus ~addr:line_base_phys ~words in
  line.valid <- true;
  line.dirty <- false;
  line.tag <- tag_of t addr;
  line.phys_base <- line_base_phys;
  line.last_use <- t.clock;
  line.data <- data;
  line

(* A hit's latency, reported to the observer. *)
let hit t op addr =
  Vmht_sim.Engine.wait_on t.engine t.config.hit_latency;
  match t.observer with
  | Some f ->
    f ~duration:t.config.hit_latency (Vmht_obs.Event.Cache_hit { op; addr })
  | None -> ()

(* A miss's fill, its measured latency reported to the observer. *)
let miss t op addr phys =
  match t.observer with
  | Some f ->
    let t0 = Vmht_sim.Engine.now t.engine in
    let line = fill t addr phys in
    let duration = Vmht_sim.Engine.now t.engine - t0 in
    f ~duration (Vmht_obs.Event.Cache_miss { op; addr });
    line
  | None -> fill t addr phys

let read t ~addr ~phys =
  t.clock <- t.clock + 1;
  let lines = set_of t addr in
  let way = find_way lines (tag_of t addr) 0 in
  if way >= 0 then begin
    let line = lines.(way) in
    t.read_hits <- t.read_hits + 1;
    line.last_use <- t.clock;
    hit t Vmht_obs.Event.Read addr;
    line.data.(word_in_line t addr)
  end
  else begin
    t.read_misses <- t.read_misses + 1;
    (miss t Vmht_obs.Event.Read addr phys).data.(word_in_line t addr)
  end

let store t line addr value =
  line.last_use <- t.clock;
  line.data.(word_in_line t addr) <- value;
  line.dirty <- true

let write t ~addr ~phys value =
  t.clock <- t.clock + 1;
  let lines = set_of t addr in
  let way = find_way lines (tag_of t addr) 0 in
  if way >= 0 then begin
    t.write_hits <- t.write_hits + 1;
    (* A hit stores before its latency elapses, so maintenance that
       runs meanwhile finds the line dirty and writes the store back. *)
    store t lines.(way) addr value;
    hit t Vmht_obs.Event.Write addr
  end
  else begin
    t.write_misses <- t.write_misses + 1;
    store t (miss t Vmht_obs.Event.Write addr phys) addr value
  end

let flush t =
  Array.iter (fun set -> Array.iter (write_back t) set) t.sets

(* Dirty lines are written back before the kill: silently discarding
   them would lose stores that never reached memory (the bug class a
   host invalidate after accelerator completion must not have).  A
   line a store re-dirtied during its own write-back stays. *)
let invalidate_all t =
  t.invalidations <- t.invalidations + 1;
  Array.iter
    (fun set ->
      Array.iter
        (fun l ->
          write_back t l;
          if not l.dirty then l.valid <- false)
        set)
    t.sets

let dirty_lines t =
  Array.fold_left
    (fun acc set ->
      acc
      + Array.fold_left
          (fun a l -> if l.valid && l.dirty then a + 1 else a)
          0 set)
    0 t.sets

let stats (t : t) : stats =
  {
    read_hits = t.read_hits;
    read_misses = t.read_misses;
    write_hits = t.write_hits;
    write_misses = t.write_misses;
    writebacks = t.writebacks;
    invalidations = t.invalidations;
  }
