type stats = {
  transactions : int;
  busy_cycles : int;
  wait_cycles : int;
  max_queue : int;
}

type t = {
  engine : Engine.t;
  mutable busy : bool;
  waiters : (unit -> unit) Queue.t;
  mutable acquired_at : int;
  mutable transactions : int;
  mutable busy_cycles : int;
  mutable wait_cycles : int;
  mutable max_queue : int;
}

let create ~engine =
  {
    engine;
    busy = false;
    waiters = Queue.create ();
    acquired_at = 0;
    transactions = 0;
    busy_cycles = 0;
    wait_cycles = 0;
    max_queue = 0;
  }

let acquire t =
  if not t.busy then begin
    t.busy <- true;
    t.acquired_at <- Engine.now t.engine
  end
  else begin
    let enqueued_at = Engine.now t.engine in
    Engine.suspend (fun resume ->
        Queue.add resume t.waiters;
        t.max_queue <- max t.max_queue (Queue.length t.waiters));
    (* Ownership was transferred to us by [release]; busy stays true. *)
    let woke_at = Engine.now t.engine in
    t.wait_cycles <- t.wait_cycles + (woke_at - enqueued_at);
    t.acquired_at <- woke_at
  end

let release t =
  assert t.busy;
  t.transactions <- t.transactions + 1;
  t.busy_cycles <- t.busy_cycles + (Engine.now t.engine - t.acquired_at);
  if Queue.is_empty t.waiters then t.busy <- false
  else (Queue.take t.waiters) () (* hand over ownership without going idle *)

let use t ~cycles =
  acquire t;
  Engine.wait_on t.engine cycles;
  release t

let stats t =
  {
    transactions = t.transactions;
    busy_cycles = t.busy_cycles;
    wait_cycles = t.wait_cycles;
    max_queue = t.max_queue;
  }

let utilization t ~total_cycles =
  if total_cycles = 0 then 0.
  else float_of_int t.busy_cycles /. float_of_int total_cycles
