(* Fabric cycles: column access (row already open), activate (row
   open) and precharge (row close). *)
let t_cas = 14

let t_rcd = 14

let t_rp = 14

let row_bytes = 2048

let banks = 8

module Fi = Vmht_fault.Injector
module Fp = Vmht_fault.Plan

type stats = { accesses : int; row_hits : int; row_misses : int }

type t = {
  open_rows : int array; (* per bank; -1 = closed *)
  mutable accesses : int;
  mutable row_hits : int;
  mutable row_misses : int;
  mutable observer : Vmht_obs.Event.emitter option;
  mutable fault : Fi.t option;
}

let create () =
  {
    open_rows = Array.make banks (-1);
    accesses = 0;
    row_hits = 0;
    row_misses = 0;
    observer = None;
    fault = None;
  }

let set_observer t f = t.observer <- Some f

let set_fault t inj = t.fault <- Some inj

let row_of addr = addr / row_bytes

let bank_of addr = row_of addr land (banks - 1)

let access_latency t ~addr =
  t.accesses <- t.accesses + 1;
  let row = row_of addr in
  let bank = bank_of addr in
  let base =
    if t.open_rows.(bank) = row then begin
      t.row_hits <- t.row_hits + 1;
      (match t.observer with
      | Some f -> f (Vmht_obs.Event.Dram_row_hit { bank })
      | None -> ());
      t_cas
    end
    else begin
      t.row_misses <- t.row_misses + 1;
      (match t.observer with
      | Some f -> f (Vmht_obs.Event.Dram_row_miss { bank })
      | None -> ());
      let penalty =
        if t.open_rows.(bank) = -1 then t_rcd + t_cas
        else t_rp + t_rcd + t_cas
      in
      t.open_rows.(bank) <- row;
      penalty
    end
  in
  match t.fault with
  | Some inj when Fi.fires inj ~rate:(Fi.plan inj).Fp.dram_row_failure_rate ->
    (* The activation glitches: pay the spike and leave the row closed,
       so the next access to this bank re-activates. *)
    let cycles = (Fi.plan inj).Fp.dram_row_failure_cycles in
    t.open_rows.(bank) <- -1;
    Fi.injected inj ~fault:"dram_row_failure" ~cycles;
    base + cycles
  | _ -> base

let burst_latency t ~addr ~words =
  if words <= 0 then 0
  else begin
    let word = Phys_mem.word_bytes in
    let latency = ref (access_latency t ~addr) in
    for i = 1 to words - 1 do
      let a = addr + (i * word) in
      if row_of a <> row_of (a - word) then
        latency := !latency + access_latency t ~addr:a
      else begin
        t.accesses <- t.accesses + 1;
        t.row_hits <- t.row_hits + 1;
        latency := !latency + 1
      end
    done;
    !latency
  end

let stats (t : t) : stats =
  { accesses = t.accesses; row_hits = t.row_hits; row_misses = t.row_misses }

let row_hit_rate t =
  if t.accesses = 0 then 0.
  else float_of_int t.row_hits /. float_of_int t.accesses
