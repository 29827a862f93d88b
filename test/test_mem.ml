open Vmht_mem
module Engine = Vmht_sim.Engine

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* Run a simulated process on [eng] to completion and return its
   value (with the cycles it took). *)
let in_sim eng f =
  let result = ref None in
  Engine.spawn eng (fun () -> result := Some (f ()));
  Engine.run eng;
  Option.get !result

let in_sim_timed eng f =
  let start = Engine.now eng in
  in_sim eng (fun () ->
      let v = f () in
      (v, Engine.now eng - start))

(* A bus on its own engine: the components built on it, and the
   processes that drive them, run there. *)
let make_bus () =
  let phys = Phys_mem.create ~bytes:(1 lsl 20) in
  let dram = Dram.create () in
  (phys, Bus.create ~engine:(Engine.create ()) phys dram)

(* ------------------------- Phys_mem ------------------------------- *)

let test_phys_rw () =
  let m = Phys_mem.create ~bytes:1024 in
  Phys_mem.write m 0 42;
  Phys_mem.write m 1016 7;
  check_int "read back" 42 (Phys_mem.read m 0);
  check_int "read back high" 7 (Phys_mem.read m 1016)

(* 33 chunks of 2 KiB, the last one a partial chunk of three words. *)
let model_bytes = (32 * 2048) + 24

let test_phys_bad_address () =
  List.iter
    (fun bytes ->
      let m = Phys_mem.create ~bytes in
      let rejects what f =
        check_bool what true
          (match f () with
           | () -> false
           | exception Phys_mem.Bad_address _ -> true)
      in
      List.iter
        (fun (what, addr) ->
          let at = Printf.sprintf "%s (%d of %d bytes)" what addr bytes in
          rejects ("read " ^ at) (fun () -> ignore (Phys_mem.read m addr));
          rejects ("zero write " ^ at) (fun () -> Phys_mem.write m addr 0);
          rejects ("write " ^ at) (fun () -> Phys_mem.write m addr 9))
        [
          ("unaligned", 4);
          ("unaligned", bytes - 4);
          ("negative", -8);
          ("negative", min_int);
          ("out of range", bytes);
          ("out of range", bytes + 2048);
          ("out of range", max_int - 7);
        ])
    [ 1024; model_bytes ]

(* Reads where nothing non-zero was written, past the highest chunk
   written, are zero and allocate nothing; nor do zero writes there. *)
let test_phys_far_reads_allocate_nothing () =
  let bytes = 64 * 1024 * 1024 in
  let m = Phys_mem.create ~bytes in
  Phys_mem.write m 8 5;
  let before = Gc.minor_words () in
  let sum = ref 0 and addr = ref 4096 in
  while !addr < bytes do
    sum := !sum + Phys_mem.read m !addr + Phys_mem.read m (!addr + 2040);
    Phys_mem.write m !addr 0;
    addr := !addr + 2048
  done;
  sum := !sum + Phys_mem.read m (bytes - 8);
  let words = Gc.minor_words () -. before in
  check_int "far reads are zero" 0 !sum;
  check_int "the written word" 5 (Phys_mem.read m 8);
  Alcotest.(check (float 0.)) "minor words" 0. words

(* Phys_mem against a Hashtbl of the words written: random aligned
   reads and writes, zeros often, over the whole range and at the
   first word, the last and both sides of every chunk boundary. *)
let prop_phys_matches_model =
  let special =
    0 :: (model_bytes - 8)
    :: List.concat_map (fun k -> [ (k * 2048) - 8; k * 2048 ]) (List.init 32 succ)
  in
  let addr =
    QCheck.Gen.(
      frequency
        [
          (1, map (fun w -> w * 8) (int_bound ((model_bytes / 8) - 1)));
          (1, oneofl special);
        ])
  in
  let value = QCheck.Gen.(frequency [ (1, return 0); (3, int_range (-999) 999) ]) in
  QCheck.Test.make ~count:200 ~name:"phys: random reads and writes match a table"
    QCheck.(
      make
        ~print:
          Print.(list (pair int (option int)))
        Gen.(list_size (int_bound 300) (pair addr (opt value))))
    (fun ops ->
      let m = Phys_mem.create ~bytes:model_bytes in
      let model = Hashtbl.create 64 in
      let expect a = Option.value ~default:0 (Hashtbl.find_opt model a) in
      List.for_all
        (fun (a, write) ->
          match write with
          | Some v ->
            Phys_mem.write m a v;
            Hashtbl.replace model a v;
            true
          | None -> Phys_mem.read m a = expect a)
        ops
      && List.for_all
           (fun w -> Phys_mem.read m (w * 8) = expect (w * 8))
           (List.init (model_bytes / 8) Fun.id))

(* ------------------------- Dram ----------------------------------- *)

let test_dram_row_hit_cheaper () =
  let d = Dram.create () in
  let miss = Dram.access_latency d ~addr:0 in
  let hit = Dram.access_latency d ~addr:8 in
  check_bool "hit cheaper than miss" true (hit < miss);
  let conflict = Dram.access_latency d ~addr:(16 * 2048 * 8) in
  check_bool "row conflict costs precharge" true (conflict > hit)

let test_dram_burst_amortizes () =
  let d = Dram.create () in
  let burst = Dram.burst_latency d ~addr:0 ~words:16 in
  let d2 = Dram.create () in
  let singles =
    List.init 16 (fun i -> Dram.access_latency d2 ~addr:(i * 8))
    |> List.fold_left ( + ) 0
  in
  check_bool "burst beats singles" true (burst < singles)

let test_dram_stats () =
  let d = Dram.create () in
  ignore (Dram.access_latency d ~addr:0);
  ignore (Dram.access_latency d ~addr:8);
  let s = Dram.stats d in
  check_int "2 accesses" 2 s.Dram.accesses;
  check_int "1 hit" 1 s.Dram.row_hits

(* ------------------------- Bus ------------------------------------ *)

let test_bus_moves_data () =
  let phys, bus = make_bus () in
  let eng = Bus.engine bus in
  Phys_mem.write phys 64 123;
  let v = in_sim eng (fun () -> Bus.read_word bus 64) in
  check_int "read over bus" 123 v;
  ignore (in_sim eng (fun () -> Bus.write_word bus 72 9));
  check_int "write over bus" 9 (Phys_mem.read phys 72)

let test_bus_burst_roundtrip () =
  let phys, bus = make_bus () in
  let eng = Bus.engine bus in
  let data = Array.init 32 (fun i -> i * i) in
  ignore (in_sim eng (fun () -> Bus.write_burst bus ~addr:256 data));
  let back =
    in_sim eng (fun () -> Bus.read_burst bus ~addr:256 ~words:32)
  in
  Alcotest.(check (array int)) "burst roundtrip" data back;
  ignore phys

let test_bus_serializes_masters () =
  let _, bus = make_bus () in
  let eng = Bus.engine bus in
  let finish_times = ref [] in
  for i = 0 to 2 do
    Engine.spawn eng (fun () ->
        ignore (Bus.read_word bus (i * 8));
        finish_times := Engine.now eng :: !finish_times)
  done;
  Engine.run eng;
  let sorted = List.sort_uniq compare !finish_times in
  check_int "three distinct completion times" 3 (List.length sorted)

let test_bus_takes_time () =
  let _, bus = make_bus () in
  let _, elapsed =
    in_sim_timed (Bus.engine bus) (fun () -> Bus.read_word bus 0)
  in
  check_bool "nonzero latency" true (elapsed > 0)

(* ------------------------- Cache ---------------------------------- *)

let test_cache_hits_after_miss () =
  let phys, bus = make_bus () in
  Phys_mem.write phys 128 5;
  let cache = Cache.create bus in
  let eng = Bus.engine bus in
  let v1, v2 =
    in_sim eng (fun () ->
        let v1 = Cache.read cache ~addr:128 ~phys:128 in
        let v2 = Cache.read cache ~addr:128 ~phys:128 in
        (v1, v2))
  in
  check_int "value" 5 v1;
  check_int "same" 5 v2;
  let s = Cache.stats cache in
  check_int "one miss" 1 s.Cache.read_misses;
  check_int "one hit" 1 s.Cache.read_hits

let test_cache_line_granularity () =
  let phys, bus = make_bus () in
  for i = 0 to 3 do
    Phys_mem.write phys (i * 8) (100 + i)
  done;
  let cache = Cache.create bus in
  let eng = Bus.engine bus in
  ignore (in_sim eng (fun () -> Cache.read cache ~addr:0 ~phys:0));
  let v = in_sim eng (fun () -> Cache.read cache ~addr:8 ~phys:8) in
  check_int "neighbor fetched with line" 101 v;
  check_int "only one miss" 1 (Cache.stats cache).Cache.read_misses

let test_cache_write_back () =
  let phys, bus = make_bus () in
  let cache = Cache.create bus in
  let eng = Bus.engine bus in
  ignore (in_sim eng (fun () -> Cache.write cache ~addr:64 ~phys:64 77));
  check_bool "not in DRAM before flush" true (Phys_mem.read phys 64 <> 77);
  check_int "one dirty line" 1 (Cache.dirty_lines cache);
  ignore (in_sim eng (fun () -> Cache.flush cache));
  check_int "visible after flush" 77 (Phys_mem.read phys 64);
  check_int "clean after flush" 0 (Cache.dirty_lines cache)

let test_cache_eviction_writes_back () =
  let phys, bus = make_bus () in
  let config =
    { Cache.size_bytes = 64; line_bytes = 32; ways = 1; hit_latency = 1 }
  in
  let cache = Cache.create ~config bus in
  let eng = Bus.engine bus in
  in_sim eng (fun () ->
      Cache.write cache ~addr:0 ~phys:0 11;
      (* Touch conflicting lines until line 0 is evicted. *)
      for i = 1 to 7 do
        ignore (Cache.read cache ~addr:(i * 64) ~phys:(i * 64))
      done);
  check_int "dirty victim written back" 11 (Phys_mem.read phys 0);
  check_bool "writeback counted" true ((Cache.stats cache).Cache.writebacks >= 1)

let test_cache_invalidate () =
  let phys, bus = make_bus () in
  Phys_mem.write phys 0 1;
  let cache = Cache.create bus in
  let eng = Bus.engine bus in
  ignore (in_sim eng (fun () -> Cache.read cache ~addr:0 ~phys:0));
  (* An accelerator writes DRAM behind the cache's back. *)
  Phys_mem.write phys 0 2;
  let stale = in_sim eng (fun () -> Cache.read cache ~addr:0 ~phys:0) in
  check_int "stale before maintenance" 1 stale;
  Cache.invalidate_all cache;
  let fresh = in_sim eng (fun () -> Cache.read cache ~addr:0 ~phys:0) in
  check_int "fresh after invalidate" 2 fresh

let test_cache_invalidate_preserves_dirty () =
  (* Regression: invalidate_all used to drop dirty lines on the floor,
     losing the last stores a wrapper's stream buffer had absorbed
     before cache maintenance ran.  An invalidate must behave like
     flush-then-drop. *)
  let phys, bus = make_bus () in
  let cache = Cache.create bus in
  let eng = Bus.engine bus in
  ignore (in_sim eng (fun () -> Cache.write cache ~addr:96 ~phys:96 41));
  check_int "line is dirty" 1 (Cache.dirty_lines cache);
  in_sim eng (fun () -> Cache.invalidate_all cache);
  check_int "store reached DRAM" 41 (Phys_mem.read phys 96);
  check_int "no dirty lines left" 0 (Cache.dirty_lines cache);
  check_bool "write-back counted" true
    ((Cache.stats cache).Cache.writebacks >= 1);
  (* And the line really was dropped: the next read misses and refetches. *)
  let misses_before = (Cache.stats cache).Cache.read_misses in
  let v = in_sim eng (fun () -> Cache.read cache ~addr:96 ~phys:96) in
  check_int "refetched value" 41 v;
  check_int "read missed after invalidate" (misses_before + 1)
    (Cache.stats cache).Cache.read_misses

(* Host cache maintenance runs in its own process while another one
   keeps storing to the same cache.  Whenever the store lands — while
   a dirty line's write-back waits for the bus, in the cycle the pass
   reaches a clean line, or after the pass — it must reach memory. *)
let test_cache_invalidate_keeps_racing_store () =
  (* A dirty line at 0 and a clean one at 32.  [race ~store:(addr, at)]
     runs the pass beside a store of 7 to [addr] issued at cycle [at]
     (alone without [store]), then flushes, and returns memory's words
     at 0 and 32 and the cycle the pass ended. *)
  let race ?store () =
    let phys, bus = make_bus () in
    let cache = Cache.create bus in
    let eng = Bus.engine bus in
    in_sim eng (fun () ->
        Cache.write cache ~addr:0 ~phys:0 1;
        ignore (Cache.read cache ~addr:32 ~phys:32));
    let start = Engine.now eng in
    let pass_end = ref 0 in
    Engine.spawn eng (fun () ->
        Cache.invalidate_all cache;
        pass_end := Engine.now eng - start);
    Option.iter
      (fun (addr, at) ->
        Engine.spawn eng (fun () ->
            Engine.wait_on eng at;
            Cache.write cache ~addr ~phys:addr 7))
      store;
    Engine.run eng;
    in_sim eng (fun () -> Cache.flush cache);
    (Phys_mem.read phys 0, Phys_mem.read phys 32, !pass_end)
  in
  let _, _, pass = race () in
  check_bool "the write-back takes several cycles" true (pass > 2);
  for at = 0 to pass + 1 do
    let m0, m32, _ = race ~store:(0, at) () in
    check_int (Printf.sprintf "store to the dirty line at %d" at) 7 m0;
    check_int (Printf.sprintf "clean line untouched (%d)" at) 0 m32;
    let m0, m32, _ = race ~store:(32, at) () in
    check_int (Printf.sprintf "store to the clean line at %d" at) 7 m32;
    check_int (Printf.sprintf "dirty line written back (%d)" at) 1 m0
  done

(* A fill evicts a dirty line while another process stores to that
   line.  Whenever the store lands — while the victim's write-back
   waits for the bus, while the new line's burst does, or after the
   fill — it must reach memory, and the fill must still read its own
   line. *)
let test_cache_fill_keeps_racing_store () =
  (* One way, two sets: lines 0 and 64 share set 0.  A dirty 1 at 0;
     memory holds 5 at 64.  [race ?store ()] runs a read of 64 beside
     a store of 7 to 0 issued at cycle [store] (alone without it), then
     flushes, and returns the word read, memory's word at 0 and the
     cycles the read took. *)
  let config =
    { Cache.size_bytes = 64; line_bytes = 32; ways = 1; hit_latency = 1 }
  in
  let race ?store () =
    let phys, bus = make_bus () in
    Phys_mem.write phys 64 5;
    let cache = Cache.create ~config bus in
    let eng = Bus.engine bus in
    in_sim eng (fun () -> Cache.write cache ~addr:0 ~phys:0 1);
    let start = Engine.now eng in
    let read = ref 0 and fill_end = ref 0 in
    Engine.spawn eng (fun () ->
        read := Cache.read cache ~addr:64 ~phys:64;
        fill_end := Engine.now eng - start);
    Option.iter
      (fun at ->
        Engine.spawn eng (fun () ->
            Engine.wait_on eng at;
            Cache.write cache ~addr:0 ~phys:0 7))
      store;
    Engine.run eng;
    in_sim eng (fun () -> Cache.flush cache);
    (!read, Phys_mem.read phys 0, !fill_end)
  in
  let v, m0, fill = race () in
  check_int "the fill reads its line" 5 v;
  check_int "the victim is written back" 1 m0;
  check_bool "the fill writes back and then reads" true (fill > 2);
  for at = 0 to fill do
    let v, m0, _ = race ~store:at () in
    check_int (Printf.sprintf "read beside a store at %d" at) 5 v;
    check_int (Printf.sprintf "store at %d reaches memory" at) 7 m0
  done

let test_cache_eviction () =
  let phys, bus = make_bus () in
  let config =
    { Cache.size_bytes = 256; line_bytes = 32; ways = 2; hit_latency = 1 }
  in
  let cache = Cache.create ~config bus in
  let eng = Bus.engine bus in
  ignore phys;
  in_sim eng (fun () ->
      (* Touch many distinct lines mapping to few sets. *)
      for i = 0 to 63 do
        ignore (Cache.read cache ~addr:(i * 32) ~phys:(i * 32))
      done);
  check_int "all misses" 64 (Cache.stats cache).Cache.read_misses

(* ------------------------- Scratchpad ----------------------------- *)

let make_pad ~words = Scratchpad.create ~words ~ports:1

let test_scratchpad_windows () =
  let pad = make_pad ~words:64 in
  Scratchpad.map_window pad ~base:0x10000 ~words:16;
  Scratchpad.map_window pad ~base:0x40000 ~words:16;
  check_int "first window at 0" 0 (Scratchpad.local_of_vaddr pad 0x10000);
  check_int "second window after first" 16
    (Scratchpad.local_of_vaddr pad 0x40000);
  check_int "offset inside window" 17
    (Scratchpad.local_of_vaddr pad (0x40000 + 8));
  check_bool "outside raises" true
    (match Scratchpad.local_of_vaddr pad 0x99999 with
     | _ -> false
     | exception Scratchpad.Out_of_window _ -> true)

let test_scratchpad_overlap_rejected () =
  let pad = make_pad ~words:64 in
  Scratchpad.map_window pad ~base:0x1000 ~words:16;
  check_bool "overlap rejected" true
    (match Scratchpad.map_window pad ~base:0x1000 ~words:4 with
     | () -> false
     | exception Invalid_argument _ -> true)

let test_scratchpad_capacity () =
  let pad = make_pad ~words:8 in
  check_bool "over capacity rejected" true
    (match Scratchpad.map_window pad ~base:0 ~words:9 with
     | () -> false
     | exception Invalid_argument _ -> true)

(* Accesses are untimed; [hold] prices a group issued together at one
   cycle per group of [ports]. *)
let test_scratchpad_rw () =
  let holds ports =
    let pad = Scratchpad.create ~words:8 ~ports in
    Scratchpad.map_window pad ~base:0x2000 ~words:8;
    Scratchpad.store pad 0x2008 55;
    check_int "value" 55 (Scratchpad.load pad 0x2008);
    List.map (Scratchpad.hold pad) [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "1 port: a cycle per access" [ 0; 1; 2; 3 ]
    (holds 1);
  Alcotest.(check (list int)) "2 ports: a cycle per pair" [ 0; 1; 1; 2 ]
    (holds 2)

(* ------------------------- Dma ------------------------------------ *)

let test_dma_copy_roundtrip () =
  let phys, bus = make_bus () in
  for i = 0 to 99 do
    Phys_mem.write phys (i * 8) (i + 1)
  done;
  let eng = Bus.engine bus in
  let pad = make_pad ~words:128 in
  let dma = Dma.create bus in
  in_sim eng (fun () ->
      Dma.copy_in_scattered dma pad ~chunks:[ (0, 100) ] ~dst_word:0;
      (* mirror back to a different DRAM region *)
      Dma.copy_out_scattered dma pad ~src_word:0 ~chunks:[ (4096, 100) ]);
  for i = 0 to 99 do
    check_int "copied" (i + 1) (Phys_mem.read phys (4096 + (i * 8)))
  done;
  let s = Dma.stats dma in
  check_int "words in" 100 s.Dma.words_in;
  check_int "words out" 100 s.Dma.words_out

let test_dma_scattered () =
  let phys, bus = make_bus () in
  for i = 0 to 31 do
    Phys_mem.write phys (8192 + (i * 8)) (500 + i);
    Phys_mem.write phys (32768 + (i * 8)) (900 + i)
  done;
  let eng = Bus.engine bus in
  let pad = make_pad ~words:64 in
  let dma = Dma.create bus in
  in_sim eng (fun () ->
      Dma.copy_in_scattered dma pad
        ~chunks:[ (8192, 32); (32768, 32) ]
        ~dst_word:0);
  check_int "first chunk" 500 (Scratchpad.read_local pad 0);
  check_int "second chunk" 900 (Scratchpad.read_local pad 32)

let test_dma_burst_cheaper_than_words () =
  let _, bus = make_bus () in
  let eng = Bus.engine bus in
  let pad = make_pad ~words:256 in
  let dma = Dma.create bus in
  let _, burst_time =
    in_sim_timed eng (fun () ->
        Dma.copy_in_scattered dma pad ~chunks:[ (0, 256) ] ~dst_word:0)
  in
  let _, bus2 = make_bus () in
  let _, word_time =
    in_sim_timed (Bus.engine bus2) (fun () ->
        for i = 0 to 255 do
          ignore (Bus.read_word bus2 (i * 8))
        done)
  in
  check_bool "DMA bursts beat word-at-a-time" true (burst_time < word_time / 2)

(* ------------------------- qcheck models -------------------------- *)

(* The cache, driven with random reads/writes, must behave exactly like
   flat memory once flushed. *)
let prop_cache_matches_flat_memory =
  QCheck.Test.make ~count:100 ~name:"cache: random ops match flat memory"
    QCheck.(list (pair (int_bound 255) (option (int_bound 10_000))))
    (fun ops ->
      let phys, bus = make_bus () in
      let shadow = Array.init 256 (fun i -> Phys_mem.read phys (i * 8)) in
      let config =
        { Cache.size_bytes = 256; line_bytes = 32; ways = 2; hit_latency = 1 }
      in
      let cache = Cache.create ~config bus in
      let eng = Bus.engine bus in
      in_sim eng (fun () ->
          List.iter
            (fun (word, write) ->
              let addr = word * 8 in
              match write with
              | Some v ->
                shadow.(word) <- v;
                Cache.write cache ~addr ~phys:addr v
              | None ->
                let got = Cache.read cache ~addr ~phys:addr in
                if got <> shadow.(word) then failwith "stale read")
            ops;
          Cache.flush cache);
      Array.for_all Fun.id
        (Array.init 256 (fun i -> Phys_mem.read phys (i * 8) = shadow.(i))))

(* The cache against its record-of-lines forerunner (cache_oracle.ml):
   one random single-process sequence of reads, writes, flushes and
   invalidations over a 32 KiB region, on random geometries.  Every
   value read, the engine time and dirty lines after each operation,
   and at the end (after a flush) the stats, the bus's stats and memory
   must be equal. *)
type cache_op = Read of int | Write of int * int | Flush | Invalidate

let cache_op_to_string = function
  | Read w -> Printf.sprintf "read %d" w
  | Write (w, v) -> Printf.sprintf "write %d %d" w v
  | Flush -> "flush"
  | Invalidate -> "invalidate"

let region_words = 4096

type cache_ops = {
  read : addr:int -> phys:int -> int;
  write : addr:int -> phys:int -> int -> unit;
  flush : unit -> unit;
  invalidate_all : unit -> unit;
  dirty_lines : unit -> int;
  stats : unit -> Cache.stats;
}

let drive_cache make ops =
  let phys, bus = make_bus () in
  for w = 0 to region_words - 1 do
    Phys_mem.write phys (w * 8) ((w * 37) + 1)
  done;
  let c = make bus in
  let eng = Bus.engine bus in
  let steps =
    in_sim eng (fun () ->
        let steps =
          List.map
            (fun op ->
              let v =
                match op with
                | Read w -> c.read ~addr:(w * 8) ~phys:(w * 8)
                | Write (w, v) ->
                  c.write ~addr:(w * 8) ~phys:(w * 8) v;
                  -1
                | Flush ->
                  c.flush ();
                  -1
                | Invalidate ->
                  c.invalidate_all ();
                  -1
              in
              (v, Engine.now eng, c.dirty_lines ()))
            ops
        in
        c.flush ();
        steps)
  in
  ( steps,
    c.stats (),
    Bus.stats bus,
    Engine.now eng,
    List.init region_words (fun w -> Phys_mem.read phys (w * 8)) )

let prop_cache_matches_oracle =
  let geometry =
    QCheck.Gen.(
      quad (oneofl [ 1; 2; 4 ]) (oneofl [ 1; 2; 4; 8 ]) (oneofl [ 16; 32; 64 ])
        (int_range 1 3))
  in
  (* Two in three words from two hot windows of 48, so lines are hit
     again.  The windows lie 16 KiB apart: the same cache sets, and the
     same DRAM banks in other rows, so the order in which a set's ways
     are written back shows in the bus's time. *)
  let word =
    QCheck.Gen.(
      frequency
        [
          (1, int_bound (region_words - 1));
          (1, int_range 64 111);
          (1, int_range 2112 2159);
        ])
  in
  let op =
    QCheck.Gen.(
      frequency
        [
          (10, map (fun w -> Read w) word);
          (8, map2 (fun w v -> Write (w, v)) word (int_bound 9999));
          (1, return Flush);
          (1, return Invalidate);
        ])
  in
  QCheck.Test.make ~count:300
    ~name:"cache: flat lines match the record-of-lines oracle"
    (QCheck.make
       ~print:(fun ((ways, sets, line, lat), ops) ->
         Printf.sprintf "%d ways, %d sets, %d-byte lines, hit latency %d: %s"
           ways sets line lat
           (String.concat "; " (List.map cache_op_to_string ops)))
       QCheck.Gen.(pair geometry (list_size (int_bound 150) op)))
    (fun ((ways, sets, line_bytes, hit_latency), ops) ->
      let config =
        { Cache.size_bytes = ways * sets * line_bytes; line_bytes; ways; hit_latency }
      in
      let flat bus =
        let c = Cache.create ~config bus in
        {
          read = Cache.read c;
          write = Cache.write c;
          flush = (fun () -> Cache.flush c);
          invalidate_all = (fun () -> Cache.invalidate_all c);
          dirty_lines = (fun () -> Cache.dirty_lines c);
          stats = (fun () -> Cache.stats c);
        }
      and oracle bus =
        let c = Cache_oracle.create ~config bus in
        {
          read = Cache_oracle.read c;
          write = Cache_oracle.write c;
          flush = (fun () -> Cache_oracle.flush c);
          invalidate_all = (fun () -> Cache_oracle.invalidate_all c);
          dirty_lines = (fun () -> Cache_oracle.dirty_lines c);
          stats = (fun () -> Cache_oracle.stats c);
        }
      in
      drive_cache flat ops = drive_cache oracle ops)

let prop_dram_burst_no_worse_than_singles =
  QCheck.Test.make ~count:100 ~name:"dram: bursts never cost more than singles"
    QCheck.(pair (int_bound 4000) (int_range 1 64))
    (fun (start_word, words) ->
      let addr = start_word * 8 in
      let d1 = Dram.create () in
      let burst = Dram.burst_latency d1 ~addr ~words in
      let d2 = Dram.create () in
      let singles = ref 0 in
      for i = 0 to words - 1 do
        singles := !singles + Dram.access_latency d2 ~addr:(addr + (i * 8))
      done;
      burst <= !singles)

let prop_scratchpad_window_translation =
  QCheck.Test.make ~count:100 ~name:"scratchpad: window translation is affine"
    QCheck.(pair (int_range 1 64) (int_bound 63))
    (fun (words, probe) ->
      let pad = make_pad ~words:128 in
      let base = 0x4000 in
      Scratchpad.map_window pad ~base ~words;
      let probe = probe mod words in
      Scratchpad.local_of_vaddr pad (base + (probe * 8)) = probe)

let suite =
  [
    Alcotest.test_case "phys: read/write" `Quick test_phys_rw;
    Alcotest.test_case "phys: bad address" `Quick test_phys_bad_address;
    Alcotest.test_case "phys: far reads allocate nothing" `Quick
      test_phys_far_reads_allocate_nothing;
    Alcotest.test_case "dram: row hit cheaper" `Quick test_dram_row_hit_cheaper;
    Alcotest.test_case "dram: burst amortizes" `Quick test_dram_burst_amortizes;
    Alcotest.test_case "dram: stats" `Quick test_dram_stats;
    Alcotest.test_case "bus: moves data" `Quick test_bus_moves_data;
    Alcotest.test_case "bus: burst roundtrip" `Quick test_bus_burst_roundtrip;
    Alcotest.test_case "bus: serializes masters" `Quick
      test_bus_serializes_masters;
    Alcotest.test_case "bus: takes time" `Quick test_bus_takes_time;
    Alcotest.test_case "cache: hit after miss" `Quick test_cache_hits_after_miss;
    Alcotest.test_case "cache: line granularity" `Quick
      test_cache_line_granularity;
    Alcotest.test_case "cache: write-back + flush" `Quick test_cache_write_back;
    Alcotest.test_case "cache: eviction writes back" `Quick
      test_cache_eviction_writes_back;
    Alcotest.test_case "cache: invalidate" `Quick test_cache_invalidate;
    Alcotest.test_case "cache: invalidate preserves dirty" `Quick
      test_cache_invalidate_preserves_dirty;
    Alcotest.test_case "cache: invalidate keeps a racing store" `Quick
      test_cache_invalidate_keeps_racing_store;
    Alcotest.test_case "cache: a fill keeps a racing store" `Quick
      test_cache_fill_keeps_racing_store;
    Alcotest.test_case "cache: eviction" `Quick test_cache_eviction;
    Alcotest.test_case "scratchpad: windows" `Quick test_scratchpad_windows;
    Alcotest.test_case "scratchpad: overlap rejected" `Quick
      test_scratchpad_overlap_rejected;
    Alcotest.test_case "scratchpad: capacity" `Quick test_scratchpad_capacity;
    Alcotest.test_case "scratchpad: timed rw" `Quick test_scratchpad_rw;
    Alcotest.test_case "dma: copy roundtrip" `Quick test_dma_copy_roundtrip;
    Alcotest.test_case "dma: scattered" `Quick test_dma_scattered;
    Alcotest.test_case "dma: bursts amortize" `Quick
      test_dma_burst_cheaper_than_words;
    QCheck_alcotest.to_alcotest prop_cache_matches_flat_memory;
    QCheck_alcotest.to_alcotest prop_cache_matches_oracle;
    QCheck_alcotest.to_alcotest prop_phys_matches_model;
    QCheck_alcotest.to_alcotest prop_dram_burst_no_worse_than_singles;
    QCheck_alcotest.to_alcotest prop_scratchpad_window_translation;
  ]
