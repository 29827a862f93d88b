module Fi = Vmht_fault.Injector
module Fp = Vmht_fault.Plan

type stats = { transfers : int; words_in : int; words_out : int }

type t = {
  bus : Bus.t;
  engine : Vmht_sim.Engine.t;
  mutable transfers : int;
  mutable words_in : int;
  mutable words_out : int;
  mutable observer : Vmht_obs.Event.emitter option;
  mutable fault : Fi.t option;
}

(* Driver and descriptor programming, paid once per transfer. *)
let setup_cycles = 120

(* The longest bus transaction a transfer issues. *)
let burst_words = 64

let create bus =
  {
    bus;
    engine = Bus.engine bus;
    transfers = 0;
    words_in = 0;
    words_out = 0;
    observer = None;
    fault = None;
  }

let set_observer t f = t.observer <- Some f

let set_fault t inj = t.fault <- Some inj

(* Run [body], then emit a [Dma_burst] spanning its measured duration.
   [op] is the direction seen from DRAM: [Read] stages in, [Write]
   drains out. *)
let observed t ~op ~words body =
  match t.observer with
  | None -> body ()
  | Some f ->
    let t0 = Vmht_sim.Engine.now t.engine in
    body ();
    let duration = Vmht_sim.Engine.now t.engine - t0 in
    f ~duration (Vmht_obs.Event.Dma_burst { op; words })

(* Transfer aborts are injected on staging (copy-in) bursts only: a
   re-run after an abort re-stages everything from DRAM, which is only
   idempotent if the abort never happened mid-drain with outputs half
   written back over live inputs. *)
let maybe_abort t =
  match t.fault with
  | Some inj when Fi.fires inj ~rate:(Fi.plan inj).Fp.dma_abort_rate ->
    Vmht_sim.Engine.wait_on t.engine (Fi.plan inj).Fp.dma_abort_cycles;
    Fi.abort inj ~fault:"dma_abort"
  | _ -> ()

(* Move [words] from DRAM at [src_phys] into the scratchpad, in bus
   bursts of at most [burst_words].  No setup cost: callers charge it. *)
let burst_in_raw t pad ~src_phys ~dst_word ~words =
  let rec go offset =
    if offset < words then begin
      maybe_abort t;
      let chunk = min burst_words (words - offset) in
      let data =
        Bus.read_burst t.bus
          ~addr:(src_phys + (offset * Phys_mem.word_bytes))
          ~words:chunk
      in
      Array.iteri
        (fun i v -> Scratchpad.write_local pad (dst_word + offset + i) v)
        data;
      go (offset + chunk)
    end
  in
  go 0

let burst_out_raw t pad ~src_word ~dst_phys ~words =
  let rec go offset =
    if offset < words then begin
      let chunk = min burst_words (words - offset) in
      let data =
        Array.init chunk (fun i ->
            Scratchpad.read_local pad (src_word + offset + i))
      in
      Bus.write_burst t.bus
        ~addr:(dst_phys + (offset * Phys_mem.word_bytes))
        data;
      go (offset + chunk)
    end
  in
  go 0

let copy_in_scattered t pad ~chunks ~dst_word =
  t.transfers <- t.transfers + 1;
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 chunks in
  observed t ~op:Vmht_obs.Event.Read ~words:total (fun () ->
      Vmht_sim.Engine.wait_on t.engine setup_cycles;
      let _ =
        List.fold_left
          (fun dst (src_phys, words) ->
            t.words_in <- t.words_in + words;
            burst_in_raw t pad ~src_phys ~dst_word:dst ~words;
            dst + words)
          dst_word chunks
      in
      ())

let copy_out_scattered t pad ~src_word ~chunks =
  t.transfers <- t.transfers + 1;
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 chunks in
  observed t ~op:Vmht_obs.Event.Write ~words:total (fun () ->
      Vmht_sim.Engine.wait_on t.engine setup_cycles;
      let _ =
        List.fold_left
          (fun src (dst_phys, words) ->
            t.words_out <- t.words_out + words;
            burst_out_raw t pad ~src_word:src ~dst_phys ~words;
            src + words)
          src_word chunks
      in
      ())

let stats (t : t) : stats =
  { transfers = t.transfers; words_in = t.words_in; words_out = t.words_out }
