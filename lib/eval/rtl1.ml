(* rtl1 — closing the RTL loop.

   Every kernel x schedule preset of the dse1 grid (unroll x banks x
   opt x TLB) runs twice: once on the model-level FSM executor and
   once on the RTL evaluator, which parses the *emitted Verilog text*
   back and executes the emitted bytes against the same memory/VM
   stack (identical translation, banking, and fault draws).  The
   contract this sweep enforces is total: same outputs, same return
   value, same final cycle count, and the same load/store/FSM-cycle
   accounting at every point — any divergence is an emitter bug and
   fails the experiment loudly.  A DMA section covers the scratchpad
   port path at the default knobs.  Points fan out over the domain
   pool ([Vmht_par.Parmap.map]), so the manifest is byte-identical at any
   -j width. *)

module Table = Vmht_util.Table
module Workload = Vmht_workloads.Workload

type point = {
  kernel : string;
  mode : Common.mode;
  unroll : int;
  banks : int;
  opt : int;
  tlb : int;
}

let grid =
  let a = Dse.default_axes in
  let vm =
    List.concat_map
      (fun kernel ->
        List.concat_map
          (fun unroll ->
            List.concat_map
              (fun banks ->
                List.concat_map
                  (fun opt ->
                    List.map
                      (fun tlb ->
                        { kernel; mode = Common.Vm; unroll; banks; opt; tlb })
                      a.Dse.tlbs)
                  a.Dse.opts)
              a.Dse.banks)
          a.Dse.unrolls)
      Dse.default_kernels
  in
  let dma =
    List.map
      (fun kernel ->
        { kernel; mode = Common.Dma; unroll = 1; banks = 1; opt = 2; tlb = 8 })
      Dse.default_kernels
  in
  vm @ dma

(* What one backend reports for one point: everything the differential
   compares. *)
type obs = {
  cycles : int;
  ret : int option;
  correct : bool;
  loads : int;
  stores : int;
  fsm_cycles : int;
}

let measure base backend p ~size =
  let config =
    Vmht.Config.with_backend
      (Vmht.Config.with_tlb_entries
         (Vmht.Config.with_opt_level
            (Vmht.Config.with_banks
               (Vmht.Config.with_unroll base p.unroll)
               p.banks)
            p.opt)
         p.tlb)
      backend
  in
  let w = Vmht_workloads.Registry.find p.kernel in
  let o = Common.run ~config p.mode w ~size in
  let r = o.Common.result in
  let loads, stores, fsm_cycles =
    match r.Vmht.Launch.accel_stats with
    | Some s -> (s.Vmht_hls.Accel.loads, s.Vmht_hls.Accel.stores, s.Vmht_hls.Accel.fsm_cycles)
    | None -> (0, 0, 0)
  in
  {
    cycles = Common.cycles o;
    ret = r.Vmht.Launch.ret;
    correct = o.Common.correct;
    loads;
    stores;
    fsm_cycles;
  }

let agrees m r =
  m.correct && r.correct && m.cycles = r.cycles && m.ret = r.ret
  && m.loads = r.loads && m.stores = r.stores
  && m.fsm_cycles = r.fsm_cycles

let point_label p =
  Printf.sprintf "%s/%s u%d b%d -O%d tlb%d" p.kernel
    (Common.mode_name p.mode) p.unroll p.banks p.opt p.tlb

let run base =
  let size = Dse.default_size in
  let rows =
    Vmht_par.Parmap.map
      (fun p ->
        let m = measure base Vmht.Config.Model p ~size in
        let r = measure base Vmht.Config.Rtl p ~size in
        (p, m, r))
      grid
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "rtl1: emitted-Verilog evaluator vs model executor, size %d \
            (%d points)"
           size (List.length rows))
      ~headers:
        [
          "point";
          "cycles (model)";
          "cycles (rtl)";
          "ret";
          "loads";
          "stores";
          "fsm cycles";
          "verdict";
        ]
  in
  List.iter
    (fun (p, m, r) ->
      Table.add_row table
        [
          point_label p;
          Table.fmt_int m.cycles;
          Table.fmt_int r.cycles;
          (match m.ret with Some v -> string_of_int v | None -> "-");
          Table.fmt_int r.loads;
          Table.fmt_int r.stores;
          Table.fmt_int r.fsm_cycles;
          (if agrees m r then "match" else "DIVERGED");
        ])
    rows;
  let rendered = Table.render table in
  let diverged =
    List.filter_map
      (fun (p, m, r) -> if agrees m r then None else Some (point_label p))
      rows
  in
  if diverged <> [] then
    (* A divergence is an emitter (or evaluator) bug, never data: fail
       the experiment so CI cannot ship it. *)
    failwith
      (Printf.sprintf "rtl1: %d/%d points diverged:\n  %s\n\n%s"
         (List.length diverged) (List.length rows)
         (String.concat "\n  " diverged)
         rendered);
  rendered
