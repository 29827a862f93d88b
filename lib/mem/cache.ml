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

type t = {
  config : config;
  bus : Bus.t;
  engine : Vmht_sim.Engine.t;
  ways : int;
  words : int; (* words per line *)
  line_shift : int; (* log2 line_bytes *)
  set_mask : int; (* sets - 1: the set index is the line address's low bits *)
  tag_shift : int; (* log2 line_bytes + log2 sets *)
  (* One entry per line; way [w] of set [s] is line [s * ways + w].  A
     flag takes a byte per line: the 512 lines of a 16 KiB cache fit
     the minor heap. *)
  valid : Bytes.t;
  dirty : Bytes.t;
  filling : Bytes.t; (* taken over by a fill whose words have not landed *)
  tags : int array;
  phys_base : int array; (* physical address of the line's first byte *)
  last_use : int array;
  data : int array; (* line [l]'s words from [l * words] on *)
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
  let lines = n_sets * config.ways in
  let words = config.line_bytes / Phys_mem.word_bytes in
  let line_shift = Vmht_util.Bits.log2 config.line_bytes in
  {
    config;
    bus;
    engine = Bus.engine bus;
    ways = config.ways;
    words;
    line_shift;
    set_mask = n_sets - 1;
    tag_shift = line_shift + Vmht_util.Bits.log2 n_sets;
    valid = Bytes.make lines '\000';
    dirty = Bytes.make lines '\000';
    filling = Bytes.make lines '\000';
    tags = Array.make lines (-1);
    phys_base = Array.make lines 0;
    last_use = Array.make lines 0;
    data = Array.make (lines * words) 0;
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

(* Line [l]'s flag in [valid], [dirty] or [filling]. *)
let flag b l = Bytes.get b l <> '\000'

let set_flag b l v = Bytes.set b l (if v then '\001' else '\000')

(* Addresses are non-negative, so shifts and masks pick the same set,
   tag and word as division and remainder would. *)
let set_base t addr = ((addr lsr t.line_shift) land t.set_mask) * t.ways

let tag_of t addr = addr lsr t.tag_shift

(* Where [addr]'s word of line [l] sits in [data]. *)
let word t l addr =
  (l * t.words) + ((addr land (t.config.line_bytes - 1)) / Phys_mem.word_bytes)

(* The line holding [tag] among lines [l] to [stop - 1]; -1 when none
   does.  A top-level function: a local closure would be allocated on
   every access. *)
let rec find_line t tag l stop =
  if l >= stop then -1
  else if flag t.valid l && t.tags.(l) = tag then l
  else find_line t tag (l + 1) stop

let lookup t addr =
  let base = set_base t addr in
  find_line t (tag_of t addr) base (base + t.ways)

(* The line to evict from the set whose first line is [base]: the last
   invalid way, else the least recently used, the first among ties.  A
   line another fill has taken over is never picked; -1 when every
   line of the set is. *)
let victim t base =
  let best = ref (-1) in
  for l = base to base + t.ways - 1 do
    if flag t.filling l then ()
    else if not (flag t.valid l) then best := l
    else if
      !best < 0 || (flag t.valid !best && t.last_use.(l) < t.last_use.(!best))
    then best := l
  done;
  !best

(* Clean from the moment the burst copies the data: a store that lands
   while the burst waits for the bus re-dirties the line. *)
let write_back t l =
  if flag t.valid l && flag t.dirty l then begin
    t.writebacks <- t.writebacks + 1;
    set_flag t.dirty l false;
    Bus.write_burst t.bus ~addr:t.phys_base.(l)
      (Array.sub t.data (l * t.words) t.words)
  end

(* Bring the line containing [addr]/[phys] into the cache, evicting
   (and writing back) a victim; returns the filled line.  The victim
   keeps its old line, valid, while it is written back, so a store
   from another process can hit it again: it is then written back
   again.  Once it is clean the fill takes it over — from then until
   the new words land no access hits it and no other fill picks it —
   and a store to its old line misses and refills it elsewhere.  A
   fill whose victim another fill took over meanwhile picks again; one
   that finds every line of its set taken over waits a cycle first. *)
let rec fill t addr phys =
  let l = victim t (set_base t addr) in
  if l >= 0 then take_over t addr phys l
  else begin
    Vmht_sim.Engine.wait_on t.engine 1;
    fill t addr phys
  end

and take_over t addr phys l =
  if flag t.filling l then fill t addr phys
  else if flag t.valid l && flag t.dirty l then begin
    write_back t l;
    take_over t addr phys l
  end
  else begin
    let line_base_phys = Vmht_util.Bits.align_down phys t.config.line_bytes in
    set_flag t.valid l false;
    set_flag t.filling l true;
    Bus.read_burst_into t.bus ~addr:line_base_phys ~words:t.words t.data
      ~pos:(l * t.words);
    set_flag t.filling l false;
    set_flag t.valid l true;
    set_flag t.dirty l false;
    t.tags.(l) <- tag_of t addr;
    t.phys_base.(l) <- line_base_phys;
    t.last_use.(l) <- t.clock;
    l
  end

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
    let l = fill t addr phys in
    let duration = Vmht_sim.Engine.now t.engine - t0 in
    f ~duration (Vmht_obs.Event.Cache_miss { op; addr });
    l
  | None -> fill t addr phys

let read t ~addr ~phys =
  t.clock <- t.clock + 1;
  let l = lookup t addr in
  if l >= 0 then begin
    t.read_hits <- t.read_hits + 1;
    t.last_use.(l) <- t.clock;
    hit t Vmht_obs.Event.Read addr;
    t.data.(word t l addr)
  end
  else begin
    t.read_misses <- t.read_misses + 1;
    t.data.(word t (miss t Vmht_obs.Event.Read addr phys) addr)
  end

let store t l addr value =
  t.last_use.(l) <- t.clock;
  t.data.(word t l addr) <- value;
  set_flag t.dirty l true

let write t ~addr ~phys value =
  t.clock <- t.clock + 1;
  let l = lookup t addr in
  if l >= 0 then begin
    t.write_hits <- t.write_hits + 1;
    (* A hit stores before its latency elapses, so maintenance that
       runs meanwhile finds the line dirty and writes the store back. *)
    store t l addr value;
    hit t Vmht_obs.Event.Write addr
  end
  else begin
    t.write_misses <- t.write_misses + 1;
    store t (miss t Vmht_obs.Event.Write addr phys) addr value
  end

let flush t =
  for l = 0 to Array.length t.tags - 1 do
    write_back t l
  done

(* Dirty lines are written back before the kill: silently discarding
   them would lose stores that never reached memory (the bug class a
   host invalidate after accelerator completion must not have).  A
   line a store re-dirtied during its own write-back stays. *)
let invalidate_all t =
  t.invalidations <- t.invalidations + 1;
  for l = 0 to Array.length t.tags - 1 do
    write_back t l;
    if not (flag t.dirty l) then set_flag t.valid l false
  done

let dirty_lines t =
  let n = ref 0 in
  for l = 0 to Array.length t.tags - 1 do
    if flag t.valid l && flag t.dirty l then incr n
  done;
  !n

let stats (t : t) : stats =
  {
    read_hits = t.read_hits;
    read_misses = t.read_misses;
    write_hits = t.write_hits;
    write_misses = t.write_misses;
    writebacks = t.writebacks;
    invalidations = t.invalidations;
  }
