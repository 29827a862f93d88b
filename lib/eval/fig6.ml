(* Figure 6 — multi-hardware-thread scaling on the shared bus.

   Two contrasting kernels, N concurrent VM-enabled threads each:
   - mmul (compute-bound, high stream-buffer reuse) scales until its
     aggregate demand meets the bus;
   - vecadd (bandwidth-bound streaming) saturates the bus with a single
     thread (≈ 0.86 utilization), so extra threads only queue.

   The data listing reports the measured bus utilization at every
   point, which is the whole explanation. *)

module Plot = Vmht_util.Ascii_plot
module Table = Vmht_util.Table
module Workload = Vmht_workloads.Workload
module Hthreads = Vmht_rt.Hthreads
open Vmht

let thread_counts = [ 1; 2; 3; 4; 6; 8 ]

type point = { span : int; utilization : float }

let measure config (w : Workload.t) ~size n =
  let soc = Soc.create config in
  let instances =
    List.init n (fun i -> w.Workload.setup (Soc.aspace soc) ~size ~seed:(i + 1))
  in
  let hw =
    Flow.run_exn
      (Flow.Request.of_kernel ~config ~style:Wrapper.Vm_iface
         (Workload.kernel w))
  in
  let span =
    Launch.run_to_completion soc (fun () ->
        let t0 = Vmht_sim.Engine.now_p () in
        let threads =
          List.mapi
            (fun i (inst : Workload.instance) ->
              Hthreads.spawn ~name:(Printf.sprintf "ht%d" i) (fun () ->
                  Launch.run_hw soc hw
                    { Launch.args = inst.Workload.args; buffers = [] }))
            instances
        in
        List.iter (fun t -> ignore (Hthreads.join t)) threads;
        Vmht_sim.Engine.now_p () - t0)
  in
  let load = Vmht_vm.Addr_space.load_word (Soc.aspace soc) in
  (* One N-thread point is one run of the ledger, [Common.run] never
     sees these launches.  Its threads overlap, so it has a span and no
     attribution. *)
  Common.record
    ~label:(Printf.sprintf "%s/vm/size %d/%d threads" w.Workload.name size n)
    ~correct:
      (List.for_all
         (fun (inst : Workload.instance) -> inst.Workload.check load)
         instances)
    ~cycles:span soc;
  { span; utilization = Vmht_mem.Bus.utilization (Soc.bus soc) ~total_cycles:span }

let run base =
  let subjects =
    [ (Vmht_workloads.Registry.find "mmul", 16); (Vmht_workloads.Registry.find "vecadd", 2048) ]
  in
  let measurements =
    Vmht_par.Parmap.map
      (fun (w, size) ->
        ( w,
          size,
          Vmht_par.Parmap.map
            (fun n -> (n, measure base w ~size n))
            thread_counts ))
      subjects
  in
  (* Aggregate speedup over the single-thread run of the same kernel:
     N threads finishing in the single-thread span = speedup N. *)
  let speedup_series (w : Workload.t) points =
    let single = match points with (1, p) :: _ -> p.span | _ -> 1 in
    {
      Plot.label = w.Workload.name;
      points =
        List.map
          (fun (n, p) ->
            ( float_of_int n,
              float_of_int (n * single) /. float_of_int p.span ))
          points;
    }
  in
  let ideal =
    {
      Plot.label = "ideal";
      points = List.map (fun n -> (float_of_int n, float_of_int n)) thread_counts;
    }
  in
  let plot =
    Plot.render
      ~title:
        "Figure 6: aggregate speedup vs concurrent VM hardware threads \
         (compute-bound mmul scales; bandwidth-bound vecadd saturates the \
         bus immediately)"
      ~xlabel:"threads" ~ylabel:"aggregate speedup"
      (List.map (fun (w, _, points) -> speedup_series w points) measurements
      @ [ ideal ])
  in
  let table =
    Table.create ~title:"Figure 6 (data): span and bus utilization"
      ~headers:[ "kernel"; "threads"; "span cycles"; "bus utilization" ]
  in
  List.iter
    (fun ((w : Workload.t), _, points) ->
      List.iter
        (fun (n, p) ->
          Table.add_row table
            [
              w.Workload.name;
              string_of_int n;
              Table.fmt_int p.span;
              Table.fmt_float ~decimals:3 p.utilization;
            ])
        points;
      Table.add_separator table)
    measurements;
  plot ^ "\n" ^ Table.render table
