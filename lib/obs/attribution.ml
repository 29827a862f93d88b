type t = {
  translate : int;
  walk : int;
  fault : int;
  bus_wait : int;
  dram : int;
  compute : int;
  dma_stage : int;
  drain : int;
}

let zero =
  {
    translate = 0;
    walk = 0;
    fault = 0;
    bus_wait = 0;
    dram = 0;
    compute = 0;
    dma_stage = 0;
    drain = 0;
  }

let to_list t =
  [
    ("translate", t.translate);
    ("walk", t.walk);
    ("fault", t.fault);
    ("bus_wait", t.bus_wait);
    ("dram", t.dram);
    ("compute", t.compute);
    ("dma_stage", t.dma_stage);
    ("drain", t.drain);
  ]

let total t = List.fold_left (fun acc (_, v) -> acc + v) 0 (to_list t)

let to_json t = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (to_list t))

let waterfall t =
  (* Timeline order: staging happens first, then the translated/compute
     interleaving, then the drain. *)
  let ordered =
    [
      ("dma_stage", t.dma_stage);
      ("translate", t.translate);
      ("walk", t.walk);
      ("fault", t.fault);
      ("bus_wait", t.bus_wait);
      ("dram", t.dram);
      ("compute", t.compute);
      ("drain", t.drain);
    ]
    |> List.filter (fun (_, v) -> v > 0)
    |> List.map (fun (k, v) -> (k, float_of_int v))
  in
  Vmht_util.Ascii_plot.waterfall ~title:"cycle attribution" ~unit:"cycles"
    ordered
