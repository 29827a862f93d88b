module Bus = Vmht_mem.Bus
module Cache = Vmht_mem.Cache
module Cpu = Vmht_cpu.Cpu
module Mmu = Vmht_vm.Mmu
module Table = Vmht_util.Table

type t = {
  workload : string;
  mode : string;
  size : int;
  result : Launch.result;
  bus : Bus.stats;
  dram_row_hit_rate : float;
  cpu : Cpu.stats;
  cpu_cache : Cache.stats;
  mapped_pages : int;
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * Vmht_obs.Histogram.t) list;
}

let gather soc ~workload ~mode ~size result =
  {
    workload;
    mode;
    size;
    result;
    bus = Soc.bus_stats soc;
    dram_row_hit_rate = Soc.dram_row_hit_rate soc;
    cpu = Cpu.stats (Soc.cpu soc);
    cpu_cache = Cache.stats (Cpu.cache (Soc.cpu soc));
    mapped_pages = Vmht_vm.Addr_space.mapped_pages (Soc.aspace soc);
    counters = Soc.counters soc;
    gauges = Soc.gauges soc;
    histograms = Soc.histograms soc;
  }

let to_string t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let r = t.result in
  line "=== %s / %s / size %d ===" t.workload t.mode t.size;
  line "cycles: %s total (stage %s, compute %s, drain %s)"
    (Table.fmt_int r.Launch.total_cycles)
    (Table.fmt_int r.Launch.phases.Launch.stage_cycles)
    (Table.fmt_int r.Launch.phases.Launch.compute_cycles)
    (Table.fmt_int r.Launch.phases.Launch.drain_cycles);
  (match r.Launch.ret with
   | Some v -> line "returned: %d" v
   | None -> ());
  (match r.Launch.mmu_stats with
   | Some m ->
     line
       "mmu: %s accesses, %.1f%% TLB hits, %s misses, %s page faults, %s \
        cycles translating"
       (Table.fmt_int m.Mmu.accesses)
       (100. *. Option.value ~default:0. r.Launch.tlb_hit_rate)
       (Table.fmt_int m.Mmu.tlb_misses)
       (Table.fmt_int m.Mmu.page_faults)
       (Table.fmt_int m.Mmu.walk_cycles)
   | None -> ());
  (match r.Launch.accel_stats with
   | Some a ->
     line "accel: %s FSM cycles, %s loads, %s stores, %s block entries"
       (Table.fmt_int a.Vmht_hls.Accel.fsm_cycles)
       (Table.fmt_int a.Vmht_hls.Accel.loads)
       (Table.fmt_int a.Vmht_hls.Accel.stores)
       (Table.fmt_int a.Vmht_hls.Accel.block_visits)
   | None -> ());
  line "bus: %s reads, %s writes, %s words moved; waiters peaked at %d"
    (Table.fmt_int t.bus.Bus.reads)
    (Table.fmt_int t.bus.Bus.writes)
    (Table.fmt_int t.bus.Bus.words_moved)
    t.bus.Bus.bus.Vmht_sim.Resource.max_queue;
  line "dram: %.1f%% row-buffer hits" (100. *. t.dram_row_hit_rate);
  line "cpu: %s instructions, %s branches, %s memory accesses, %s faults"
    (Table.fmt_int t.cpu.Cpu.instructions)
    (Table.fmt_int t.cpu.Cpu.branches)
    (Table.fmt_int t.cpu.Cpu.mem_accesses)
    (Table.fmt_int t.cpu.Cpu.faults);
  line "cpu L1: %d read hits, %d read misses, %d writebacks"
    t.cpu_cache.Cache.read_hits t.cpu_cache.Cache.read_misses
    t.cpu_cache.Cache.writebacks;
  line "memory: %s pages mapped" (Table.fmt_int t.mapped_pages);
  line "";
  line "cycle attribution:";
  Buffer.add_string buf
    (Vmht_obs.Attribution.waterfall t.result.Launch.attribution);
  Buffer.contents buf

let histogram_json h =
  let module J = Vmht_obs.Json in
  let module H = Vmht_obs.Histogram in
  let s = H.summary h in
  J.Obj
    [
      ("count", J.Int s.H.count);
      ("sum", J.Int s.H.sum);
      ("min", J.Int s.H.min);
      ("max", J.Int s.H.max);
      ("p50", J.Int s.H.p50);
      ("p90", J.Int s.H.p90);
      ("p95", J.Int s.H.p95);
      ("p99", J.Int s.H.p99);
      ( "buckets",
        J.List
          (List.map
             (fun (le, c) -> J.List [ J.Int le; J.Int c ])
             (H.nonzero_buckets h)) );
    ]

let to_json t =
  let module J = Vmht_obs.Json in
  let r = t.result in
  let opt f = function Some v -> f v | None -> J.Null in
  let fields f l = J.Obj (List.map (fun (k, v) -> (k, f v)) l) in
  J.Obj
    [
      ("workload", J.String t.workload);
      ("mode", J.String t.mode);
      ("size", J.Int t.size);
      ("ret", opt (fun v -> J.Int v) r.Launch.ret);
      ("total_cycles", J.Int r.Launch.total_cycles);
      ( "phases",
        J.Obj
          [
            ("stage_cycles", J.Int r.Launch.phases.Launch.stage_cycles);
            ("compute_cycles", J.Int r.Launch.phases.Launch.compute_cycles);
            ("drain_cycles", J.Int r.Launch.phases.Launch.drain_cycles);
          ] );
      ("attribution", Vmht_obs.Attribution.to_json r.Launch.attribution);
      ("page_faults", J.Int r.Launch.page_faults);
      ( "tlb_hit_rate",
        opt (fun v -> J.Float v) r.Launch.tlb_hit_rate );
      ( "metrics",
        J.Obj
          [
            ("counters", fields (fun v -> J.Int v) t.counters);
            ("gauges", fields (fun v -> J.Float v) t.gauges);
            ("histograms", fields histogram_json t.histograms);
          ] );
    ]
