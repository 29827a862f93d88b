open Vmht
module Workload = Vmht_workloads.Workload
module Addr_space = Vmht_vm.Addr_space

type mode = Sw | Vm | Dma

let mode_name = function Sw -> "sw" | Vm -> "vm" | Dma -> "dma"

type outcome = {
  result : Launch.result;
  correct : bool;
  soc : Soc.t;
  instance : Workload.instance;
  hw : Flow.hw_thread option;
}

(* --- the run ledger -------------------------------------------------- *)

(* One ledger at a time is open process-wide; runs finish on any domain
   of the pool, so its tallies sit behind one mutex.  The tallies are
   integer sums and a list the ledger sorts when it closes, so the
   closed ledger does not depend on the order in which runs finished. *)

type ledger = {
  runs : int;
  counts : (string * int) list;
  mismatches : string list;
}

type tally = {
  mutable run_count : int;
  sums : (string, int) Hashtbl.t;
  mutable wrong : string list;
}

let ledger_mutex = Mutex.create ()

let open_ledger : tally option Atomic.t = Atomic.make None

let record ~label ~correct ~cycles ?attribution soc =
  match Atomic.get open_ledger with
  | None -> ()
  | Some t ->
    Soc.sync_metrics soc;
    let segments =
      match attribution with
      | None -> []
      | Some a ->
        List.map
          (fun (k, v) -> ("attr." ^ k, v))
          (Vmht_obs.Attribution.to_list a)
    in
    let counts =
      (("cycles", cycles) :: segments)
      @ Vmht_obs.Metrics.counters (Soc.metrics soc)
    in
    Mutex.protect ledger_mutex (fun () ->
        t.run_count <- t.run_count + 1;
        List.iter
          (fun (k, v) ->
            Hashtbl.replace t.sums k
              (v + Option.value ~default:0 (Hashtbl.find_opt t.sums k)))
          counts;
        if not correct then t.wrong <- label :: t.wrong)

let with_ledger f =
  let t = { run_count = 0; sums = Hashtbl.create 128; wrong = [] } in
  let saved = Atomic.exchange open_ledger (Some t) in
  let v = Fun.protect ~finally:(fun () -> Atomic.set open_ledger saved) f in
  Mutex.protect ledger_mutex (fun () ->
      ( v,
        {
          runs = t.run_count;
          counts =
            List.sort compare
              (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.sums []);
          mismatches = List.sort compare t.wrong;
        } ))

let rejection = function
  | Invalid_argument msg | Launch.Window_overflow msg -> Some msg
  | Vmht_vm.Frame_alloc.Out_of_frames ->
    Some "out of physical frames: the data does not fit in physical memory"
  | Vmht_rtl.Eval.Edge_budget edges ->
    Some
      (Printf.sprintf
         "edge budget exceeded: the RTL run had not reached done after %d \
          clock edges"
         edges)
  | Vmht_ir.Ir_interp.Runaway steps ->
    Some
      (Printf.sprintf
         "step budget exceeded: the software thread had not returned after \
          %d steps"
         steps)
  | _ -> None

let run ?(config = Config.default) ?(seed = 42) ?trace_events ?(observe = false)
    mode (w : Workload.t) ~size =
  Vmht_obs.Span.with_span ~cat:"eval"
    (Printf.sprintf "run:%s/%s" w.Workload.name (mode_name mode))
    (fun () ->
  (* Refused before set-up, where some workloads would read a size
     below 1 as an empty instance and report a correct run.  The words
     are those of the allocation a zero size reaches. *)
  if size < 1 then invalid_arg "Addr_space.alloc: non-positive size";
  let soc = Soc.create config in
  if observe || Option.is_some trace_events then Soc.enable_tracing soc;
  let instance = w.Workload.setup (Soc.aspace soc) ~size ~seed in
  let request =
    { Launch.args = instance.Workload.args; buffers = instance.Workload.buffers }
  in
  let hw = ref None in
  let result =
    Launch.run_to_completion soc (fun () ->
        match mode with
        | Sw ->
          let func = Flow.compile_sw config (Workload.kernel w) in
          Launch.run_sw soc func request
        | Vm ->
          let t =
            Flow.run_exn
              (Flow.Request.of_kernel ~config ~style:Wrapper.Vm_iface
                 (Workload.kernel w))
          in
          hw := Some t;
          Launch.run_hw soc t request
        | Dma ->
          let t =
            Flow.run_exn
              (Flow.Request.of_kernel ~config ~style:Wrapper.Dma_iface
                 (Workload.kernel w))
          in
          hw := Some t;
          Launch.run_hw soc t request)
  in
  let load = Addr_space.load_word (Soc.aspace soc) in
  let correct =
    result.Launch.ret = instance.Workload.expected_ret
    && instance.Workload.check load
  in
  record
    ~label:
      (Printf.sprintf "%s/%s/size %d" w.Workload.name (mode_name mode) size)
    ~correct ~cycles:result.Launch.total_cycles
    ~attribution:result.Launch.attribution soc;
  { result; correct; soc; instance; hw = !hw })

let host_lines text =
  String.split_on_char '\n' text
  |> List.map (fun line -> if line = "" then line else "host: " ^ line)
  |> String.concat "\n"

let cycles o = o.result.Launch.total_cycles

let speedup ~baseline o = float_of_int (cycles baseline) /. float_of_int (cycles o)

let synthesize ?(config = Config.default) ?cache style (w : Workload.t) =
  Flow.run_exn (Flow.Request.of_kernel ~config ~style ?cache (Workload.kernel w))

let source_lines (w : Workload.t) =
  String.split_on_char '\n' w.Workload.source
  |> List.filter (fun l -> String.trim l <> "")
  |> List.length
