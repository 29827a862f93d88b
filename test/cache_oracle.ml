(* The reference for [Vmht_mem.Cache]: the record-of-lines cache the
   library kept before it moved its lines into flat arrays, one record
   per line with its own data array.  Its victim order, timing and bus
   traffic are the ones the flat cache must reproduce, so the property
   in test_mem.ml drives both with the same single-process sequence
   and compares everything they expose.  It keeps the forerunner's
   fill, which lets a store from another process to the victim land
   while the fill waits and then drops it; only single-process
   sequences are compared. *)

open Vmht_mem

type line = {
  mutable valid : bool;
  mutable dirty : bool;
  mutable tag : int;
  mutable phys_base : int;
  mutable last_use : int;
  mutable data : int array;
}

type t = {
  config : Cache.config;
  bus : Bus.t;
  engine : Vmht_sim.Engine.t;
  sets : line array array;
  line_shift : int;
  set_mask : int;
  tag_shift : int;
  mutable clock : int;
  mutable read_hits : int;
  mutable read_misses : int;
  mutable write_hits : int;
  mutable write_misses : int;
  mutable writebacks : int;
  mutable invalidations : int;
}

let create ~(config : Cache.config) bus =
  let lines = config.Cache.size_bytes / config.Cache.line_bytes in
  let n_sets = max 1 (lines / config.Cache.ways) in
  let words_per_line = config.Cache.line_bytes / Phys_mem.word_bytes in
  let line_shift = Vmht_util.Bits.log2 config.Cache.line_bytes in
  {
    config;
    bus;
    engine = Bus.engine bus;
    line_shift;
    set_mask = n_sets - 1;
    tag_shift = line_shift + Vmht_util.Bits.log2 n_sets;
    sets =
      Array.init n_sets (fun _ ->
          Array.init config.Cache.ways (fun _ ->
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
  }

let set_of t addr = t.sets.((addr lsr t.line_shift) land t.set_mask)

let tag_of t addr = addr lsr t.tag_shift

let word_in_line t addr =
  (addr land (t.config.Cache.line_bytes - 1)) / Phys_mem.word_bytes

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

let write_back t line =
  if line.valid && line.dirty then begin
    t.writebacks <- t.writebacks + 1;
    line.dirty <- false;
    Bus.write_burst t.bus ~addr:line.phys_base (Array.copy line.data)
  end

let fill t addr phys =
  let line_base_phys =
    Vmht_util.Bits.align_down phys t.config.Cache.line_bytes
  in
  let words = t.config.Cache.line_bytes / Phys_mem.word_bytes in
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

let hit t = Vmht_sim.Engine.wait_on t.engine t.config.Cache.hit_latency

let read t ~addr ~phys =
  t.clock <- t.clock + 1;
  let lines = set_of t addr in
  let way = find_way lines (tag_of t addr) 0 in
  if way >= 0 then begin
    let line = lines.(way) in
    t.read_hits <- t.read_hits + 1;
    line.last_use <- t.clock;
    hit t;
    line.data.(word_in_line t addr)
  end
  else begin
    t.read_misses <- t.read_misses + 1;
    (fill t addr phys).data.(word_in_line t addr)
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
    store t lines.(way) addr value;
    hit t
  end
  else begin
    t.write_misses <- t.write_misses + 1;
    store t (fill t addr phys) addr value
  end

let flush t = Array.iter (fun set -> Array.iter (write_back t) set) t.sets

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

let stats (t : t) : Cache.stats =
  {
    Cache.read_hits = t.read_hits;
    read_misses = t.read_misses;
    write_hits = t.write_hits;
    write_misses = t.write_misses;
    writebacks = t.writebacks;
    invalidations = t.invalidations;
  }
