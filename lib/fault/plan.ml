type t = {
  enabled : bool;
  max_injections : int;
  tlb_shootdown_rate : float;
  walk_stall_rate : float;
  walk_stall_cycles : int;
  walk_transient_rate : float;
  walk_retry_limit : int;
  walk_retry_cycles : int;
  bus_error_rate : float;
  bus_error_cycles : int;
  bus_contention_rate : float;
  bus_contention_cycles : int;
  dram_row_failure_rate : float;
  dram_row_failure_cycles : int;
  dma_abort_rate : float;
  dma_abort_cycles : int;
}

let none =
  {
    enabled = false;
    max_injections = 256;
    tlb_shootdown_rate = 0.;
    walk_stall_rate = 0.;
    walk_stall_cycles = 30;
    walk_transient_rate = 0.;
    walk_retry_limit = 3;
    walk_retry_cycles = 200;
    bus_error_rate = 0.;
    bus_error_cycles = 40;
    bus_contention_rate = 0.;
    bus_contention_cycles = 24;
    dram_row_failure_rate = 0.;
    dram_row_failure_cycles = 60;
    dma_abort_rate = 0.;
    dma_abort_cycles = 80;
  }

let uniform ~rate =
  if not (rate >= 0. && rate <= 1.) then
    invalid_arg (Printf.sprintf "Plan.uniform: rate %g is outside 0..1" rate);
  if rate = 0. then none
  else
    {
      none with
      enabled = true;
      tlb_shootdown_rate = rate;
      walk_stall_rate = rate;
      walk_transient_rate = rate;
      bus_error_rate = rate;
      bus_contention_rate = rate;
      dram_row_failure_rate = rate;
      dma_abort_rate = rate;
    }

let to_string (t : t) =
  if not t.enabled then "off"
  else begin
    let rates =
      [
        t.tlb_shootdown_rate; t.walk_stall_rate; t.walk_transient_rate;
        t.bus_error_rate; t.bus_contention_rate; t.dram_row_failure_rate;
        t.dma_abort_rate;
      ]
    in
    match rates with
    | r0 :: rest when List.for_all (fun r -> r = r0) rest ->
      Printf.sprintf "uniform %g" r0
    | _ ->
      Printf.sprintf
        "tlb=%g walk=%g/%g bus=%g/%g dram=%g dma=%g"
        t.tlb_shootdown_rate t.walk_stall_rate t.walk_transient_rate
        t.bus_error_rate t.bus_contention_rate t.dram_row_failure_rate
        t.dma_abort_rate
  end
