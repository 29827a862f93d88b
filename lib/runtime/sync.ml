module Engine = Vmht_sim.Engine

module Mutex = struct
  type t = { mutable held : bool; waiters : (unit -> unit) Queue.t }

  let create () = { held = false; waiters = Queue.create () }

  let lock t =
    if not t.held then t.held <- true
    else Engine.suspend (fun resume -> Queue.add resume t.waiters)
  (* Ownership transfers directly from unlock to the first waiter. *)

  let unlock t =
    if not t.held then invalid_arg "Mutex.unlock: not locked";
    match Queue.take_opt t.waiters with
    | Some resume -> resume ()
    | None -> t.held <- false

  let with_lock t f =
    lock t;
    Fun.protect ~finally:(fun () -> unlock t) f
end

module Condvar = struct
  type t = { waiters : (unit -> unit) Queue.t }

  let create () = { waiters = Queue.create () }

  let wait t mutex =
    (* Release and park atomically: both happen before any other
       process can run, because no wait-point separates them. *)
    let parked = ref None in
    Queue.add (fun () -> match !parked with
        | Some resume -> resume ()
        | None -> assert false)
      t.waiters;
    Mutex.unlock mutex;
    Engine.suspend (fun resume -> parked := Some resume);
    Mutex.lock mutex

  let signal t =
    match Queue.take_opt t.waiters with
    | Some wake -> wake ()
    | None -> ()

  let broadcast t =
    let rec go () =
      match Queue.take_opt t.waiters with
      | Some wake ->
        wake ();
        go ()
      | None -> ()
    in
    go ()
end

module Completion = struct
  type 'a t = {
    mutable value : 'a option;
    mutable waiters : (unit -> unit) list;
  }

  let create () = { value = None; waiters = [] }

  let complete t v =
    if t.value <> None then invalid_arg "Completion.complete: already done";
    t.value <- Some v;
    let waiters = List.rev t.waiters in
    t.waiters <- [];
    List.iter (fun wake -> wake ()) waiters

  let await t =
    match t.value with
    | Some v -> v
    | None ->
      Engine.suspend (fun resume -> t.waiters <- resume :: t.waiters);
      (match t.value with
       | Some v -> v
       | None -> assert false)
end

module Barrier = struct
  type t = {
    parties : int;
    mutable arrived : int;
    mutable waiters : (unit -> unit) list;
  }

  let create ~parties =
    if parties <= 0 then invalid_arg "Barrier.create";
    { parties; arrived = 0; waiters = [] }

  let await t =
    t.arrived <- t.arrived + 1;
    if t.arrived >= t.parties then begin
      let waiters = List.rev t.waiters in
      t.waiters <- [];
      t.arrived <- 0;
      List.iter (fun wake -> wake ()) waiters
    end
    else
      Engine.suspend (fun resume -> t.waiters <- resume :: t.waiters)
end
