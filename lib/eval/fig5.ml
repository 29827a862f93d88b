(* Figure 5 — tool (synthesis) time and generated FSM size vs unroll
   factor: the flow's scalability in the paper's "design productivity"
   discussion. *)

module Plot = Vmht_util.Ascii_plot
module Table = Vmht_util.Table
module Workload = Vmht_workloads.Workload
module Fsm = Vmht_hls.Fsm

let unroll_factors = [ 1; 2; 4; 8; 16 ]

(* With the synthesis memo cache, repeated trials would only time table
   lookups; the one honest number is the wall time of the single real
   synthesis the cache performed — which is also what keeps this figure
   byte-identical between -j 1 and -j 4 runs in one process. *)
let measure base (w : Workload.t) unroll =
  let config = Vmht.Config.with_unroll base unroll in
  let hw = Common.synthesize ~config Vmht.Wrapper.Vm_iface w in
  (hw.Vmht.Flow.synthesis_seconds *. 1000., hw.Vmht.Flow.fsm.Fsm.stats.Fsm.states)

let run base =
  let workloads =
    List.map Vmht_workloads.Registry.find [ "vecadd"; "mmul"; "spmv" ]
  in
  let measurements =
    Vmht_par.Parmap.map
      (fun w ->
        ( w,
          Vmht_par.Parmap.map (fun u -> (u, measure base w u)) unroll_factors
        ))
      workloads
  in
  let plot =
    Common.host_lines
    @@ Plot.render ~logx:true
      ~title:"Figure 5: synthesis time vs unroll factor"
      ~xlabel:"unroll factor" ~ylabel:"ms"
      (List.map
         (fun ((w : Workload.t), points) ->
           {
             Plot.label = w.Workload.name;
             points =
               List.map (fun (u, (ms, _)) -> (float_of_int u, ms)) points;
           })
         measurements)
  in
  let table =
    Table.create ~title:"Figure 5 (data): FSM states vs unroll factor"
      ~headers:("kernel" :: List.map string_of_int unroll_factors)
  in
  List.iter
    (fun ((w : Workload.t), points) ->
      Table.add_row table
        (w.Workload.name
        :: List.map (fun (_, (_, states)) -> string_of_int states) points))
    measurements;
  plot ^ "\n" ^ Table.render table
