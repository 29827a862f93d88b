(* The domain pool and the shared-parmap knob: ordering, exception
   selection, nesting (work-helping), and the degenerate widths. *)

open Vmht_par

let check_int = Alcotest.(check int)

let check_ints = Alcotest.(check (list int))

let with_pool ~domains f =
  let pool = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_map_preserves_order () =
  with_pool ~domains:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      check_ints "squares in order"
        (List.map (fun x -> x * x) xs)
        (Pool.map pool (fun x -> x * x) xs))

let test_width_one_is_sequential () =
  with_pool ~domains:1 (fun pool ->
      check_int "no workers at width 1" 1 (Pool.size pool);
      let order = ref [] in
      let ys =
        Pool.map pool
          (fun x ->
            order := x :: !order;
            x + 1)
          [ 1; 2; 3; 4 ]
      in
      check_ints "results" [ 2; 3; 4; 5 ] ys;
      (* Width 1 runs on the caller, strictly left to right. *)
      check_ints "execution order" [ 1; 2; 3; 4 ] (List.rev !order))

let test_empty_and_singleton () =
  with_pool ~domains:3 (fun pool ->
      check_ints "empty" [] (Pool.map pool (fun x -> x) []);
      check_ints "singleton" [ 7 ] (Pool.map pool (fun x -> x) [ 7 ]))

let test_earliest_exception_wins () =
  with_pool ~domains:4 (fun pool ->
      match
        Pool.map pool
          (fun x -> if x mod 3 = 2 then failwith (string_of_int x) else x)
          (List.init 10 Fun.id)
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
        (* 2, 5 and 8 all fail; the earliest submitted must surface. *)
        Alcotest.(check string) "earliest failing element" "2" msg)

let test_nested_map_no_deadlock () =
  (* More outer tasks than lanes, each fanning out again on the same
     pool: only work-helping keeps this from deadlocking. *)
  with_pool ~domains:2 (fun pool ->
      let grid =
        Pool.map pool
          (fun i -> Pool.map pool (fun j -> (10 * i) + j) [ 1; 2; 3 ])
          (List.init 6 Fun.id)
      in
      Alcotest.(check (list (list int)))
        "nested results in order"
        (List.init 6 (fun i -> List.map (fun j -> (10 * i) + j) [ 1; 2; 3 ]))
        grid)

let test_shutdown () =
  let pool = Pool.create ~domains:3 in
  check_ints "works before shutdown" [ 2 ] (Pool.map pool (fun x -> x + 1) [ 1 ]);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Pool.map: pool is shut down") (fun () ->
      ignore (Pool.map pool Fun.id [ 1 ]))

let test_parmap_knob () =
  Parmap.set_jobs 0;
  check_int "clamped below at 1" 1 (Parmap.jobs ());
  Parmap.set_jobs 4;
  check_int "width taken" 4 (Parmap.jobs ());
  Fun.protect ~finally:Parmap.shutdown (fun () ->
      let xs = List.init 64 Fun.id in
      check_ints "parmap matches List.map"
        (List.map (fun x -> (3 * x) + 1) xs)
        (Parmap.map (fun x -> (3 * x) + 1) xs));
  check_int "shutdown resets width" 1 (Parmap.jobs ())

let prop_map_matches_list_map =
  QCheck.Test.make ~count:50 ~name:"pool map = List.map for any f-shape"
    QCheck.(pair (int_range 1 6) (small_list small_int))
    (fun (domains, xs) ->
      let pool = Pool.create ~domains in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          Pool.map pool (fun x -> (x * 7) - 1) xs
          = List.map (fun x -> (x * 7) - 1) xs))

let suite =
  [
    Alcotest.test_case "pool: ordered map" `Quick test_map_preserves_order;
    Alcotest.test_case "pool: width 1 is sequential" `Quick
      test_width_one_is_sequential;
    Alcotest.test_case "pool: empty/singleton" `Quick test_empty_and_singleton;
    Alcotest.test_case "pool: earliest exception wins" `Quick
      test_earliest_exception_wins;
    Alcotest.test_case "pool: nested map (work helping)" `Quick
      test_nested_map_no_deadlock;
    Alcotest.test_case "pool: shutdown semantics" `Quick test_shutdown;
    Alcotest.test_case "parmap: knob + shared pool" `Quick test_parmap_knob;
    QCheck_alcotest.to_alcotest prop_map_matches_list_map;
  ]
