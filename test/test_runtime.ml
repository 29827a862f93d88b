open Vmht_rt
module Engine = Vmht_sim.Engine

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let run_sim f =
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> f eng);
  Engine.run eng;
  eng

(* ------------------------- Mutex ---------------------------------- *)

let test_mutex_exclusion () =
  let m = Sync.Mutex.create () in
  let inside = ref 0 in
  let max_inside = ref 0 in
  let eng = Engine.create () in
  let worker () =
    Sync.Mutex.lock m;
    incr inside;
    max_inside := max !max_inside !inside;
    Engine.wait_on eng 5;
    decr inside;
    Sync.Mutex.unlock m
  in
  for _ = 1 to 4 do
    Engine.spawn eng worker
  done;
  Engine.run eng;
  check_int "never two holders" 1 !max_inside

let test_mutex_with_lock_releases_on_exn () =
  let m = Sync.Mutex.create () in
  ignore
    (run_sim (fun _ ->
         (try Sync.Mutex.with_lock m (fun () -> failwith "boom")
          with Failure _ -> ());
         (* If the lock leaked, this second lock would deadlock and the
            engine would report a suspended process. *)
         Sync.Mutex.with_lock m (fun () -> ())))

let test_mutex_unlock_unheld () =
  ignore
    (run_sim (fun _ ->
         let m = Sync.Mutex.create () in
         check_bool "raises" true
           (match Sync.Mutex.unlock m with
            | () -> false
            | exception Invalid_argument _ -> true)))

(* ------------------------- Condvar -------------------------------- *)

let test_condvar_signal () =
  let m = Sync.Mutex.create () in
  let cv = Sync.Condvar.create () in
  let ready = ref false in
  let observed_at = ref (-1) in
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      Sync.Mutex.lock m;
      while not !ready do
        Sync.Condvar.wait cv m
      done;
      observed_at := Engine.now eng;
      Sync.Mutex.unlock m);
  Engine.spawn eng (fun () ->
      Engine.wait_on eng 50;
      Sync.Mutex.lock m;
      ready := true;
      Sync.Condvar.signal cv;
      Sync.Mutex.unlock m);
  Engine.run eng;
  check_int "woke after signal" 50 !observed_at

let test_condvar_broadcast () =
  let m = Sync.Mutex.create () in
  let cv = Sync.Condvar.create () in
  let released = ref 0 in
  let go = ref false in
  let eng = Engine.create () in
  for _ = 1 to 3 do
    Engine.spawn eng (fun () ->
        Sync.Mutex.lock m;
        while not !go do
          Sync.Condvar.wait cv m
        done;
        incr released;
        Sync.Mutex.unlock m)
  done;
  Engine.spawn eng (fun () ->
      Engine.wait_on eng 10;
      Sync.Mutex.lock m;
      go := true;
      Sync.Condvar.broadcast cv;
      Sync.Mutex.unlock m);
  Engine.run eng;
  check_int "all released" 3 !released

(* ------------------------- Barrier -------------------------------- *)

let test_barrier_releases_together () =
  let b = Sync.Barrier.create ~parties:3 in
  let times = ref [] in
  let eng = Engine.create () in
  List.iter
    (fun delay ->
      Engine.spawn eng (fun () ->
          Engine.wait_on eng delay;
          Sync.Barrier.await b;
          times := Engine.now eng :: !times))
    [ 5; 20; 35 ];
  Engine.run eng;
  Alcotest.(check (list int)) "all release at the last arrival" [ 35; 35; 35 ]
    !times

(* ------------------------- Completion / Hthreads ------------------ *)

let test_completion_before_and_after () =
  ignore
    (run_sim (fun eng ->
         let c = Sync.Completion.create () in
         Engine.spawn eng (fun () ->
             Engine.wait_on eng 7;
             Sync.Completion.complete c 42);
         check_int "await" 42 (Sync.Completion.await c);
         (* Await after completion returns immediately. *)
         check_int "await again" 42 (Sync.Completion.await c)))

let test_hthreads_join () =
  let joined = ref 0 in
  ignore
    (run_sim (fun eng ->
         let t =
           Hthreads.spawn ~engine:eng (fun () ->
               Engine.wait_on eng 11;
               123)
         in
         joined := Hthreads.join t));
  check_int "joined value" 123 !joined

let test_hthreads_exception_propagates () =
  let caught = ref false in
  ignore
    (run_sim (fun eng ->
         let t =
           Hthreads.spawn ~engine:eng (fun () -> failwith "kaput")
         in
         match Hthreads.join t with
         | _ -> ()
         | exception Failure _ -> caught := true));
  check_bool "exception re-raised at join" true !caught

let test_hthreads_parallel_joins () =
  let total = ref 0 in
  ignore
    (run_sim (fun eng ->
         let threads =
           List.init 5 (fun i ->
               Hthreads.spawn ~engine:eng (fun () ->
                   Engine.wait_on eng (i * 3);
                   i * 10))
         in
         total := List.fold_left (fun acc t -> acc + Hthreads.join t) 0 threads));
  check_int "sum of results" 100 !total

let suite =
  [
    Alcotest.test_case "mutex: exclusion" `Quick test_mutex_exclusion;
    Alcotest.test_case "mutex: with_lock releases on exn" `Quick
      test_mutex_with_lock_releases_on_exn;
    Alcotest.test_case "mutex: unlock unheld" `Quick test_mutex_unlock_unheld;
    Alcotest.test_case "condvar: signal" `Quick test_condvar_signal;
    Alcotest.test_case "condvar: broadcast" `Quick test_condvar_broadcast;
    Alcotest.test_case "barrier: releases together" `Quick
      test_barrier_releases_together;
    Alcotest.test_case "completion: before and after" `Quick
      test_completion_before_and_after;
    Alcotest.test_case "hthreads: join" `Quick test_hthreads_join;
    Alcotest.test_case "hthreads: exception" `Quick
      test_hthreads_exception_propagates;
    Alcotest.test_case "hthreads: parallel joins" `Quick
      test_hthreads_parallel_joins;
  ]
