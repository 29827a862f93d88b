(* Synthesis-as-a-service tests: the persistent content-addressed
   store (codec round-trips, corruption and version-skew fallback,
   promotion into the flow memo), the sharded batch server (substrate
   determinism, dedup, retry-on-worker-death, deadlines) and the
   consolidated Flow request API.

   This suite lives in its own executable on purpose: the sharded
   server forks worker processes, which must happen while the process
   is still single-domain — so nothing here ever widens the
   [Vmht_par.Parmap] pool. *)

module Flow = Vmht.Flow
module Store = Vmht_serve.Store
module Proto = Vmht_serve.Proto
module Server = Vmht_serve.Server
module Loadgen = Vmht_eval.Loadgen
open Vmht

let temp_counter = ref 0

let fresh_dir () =
  incr temp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vmht-serve-test-%d-%d" (Unix.getpid ()) !temp_counter)
  in
  (* [Store.open_] creates it. *)
  d

let open_store () =
  match Store.open_ ~dir:(fresh_dir ()) () with
  | Ok s -> s
  | Error e -> Alcotest.failf "store open failed: %s" (Flow.error_to_string e)

let kernel_of w = Vmht_workloads.Workload.kernel (Vmht_workloads.Registry.find w)

let synth ?(unroll = 1) ?(style = Wrapper.Vm_iface) wname =
  let config = Config.with_unroll Config.default unroll in
  let kernel = kernel_of wname in
  let hw = Flow.run_exn (Flow.Request.of_kernel ~config ~style kernel) in
  (config, style, kernel, hw)

(* --- entry codec --------------------------------------------------- *)

let subjects = [ "vecadd"; "mmul"; "spmv"; "list_sum"; "tree_search"; "bfs" ]

let arb_entry_case =
  QCheck.make
    ~print:(fun (w, si, unroll, opt) ->
      Printf.sprintf "(%s, %s, unroll=%d, opt=%d)" (List.nth subjects w)
        (if si = 0 then "vm" else "dma")
        unroll opt)
    QCheck.Gen.(
      quad
        (int_bound (List.length subjects - 1))
        (int_bound 1)
        (oneofl [ 1; 2; 4 ])
        (oneofl [ 0; 1; 2 ]))

let prop_entry_roundtrip =
  QCheck.Test.make ~count:30 ~name:"store entry decode (encode e) = Ok e"
    arb_entry_case
    (fun (wi, si, unroll, opt) ->
      let style = if si = 0 then Wrapper.Vm_iface else Wrapper.Dma_iface in
      let config =
        Config.with_opt_level (Config.with_unroll Config.default unroll) opt
      in
      let kernel = kernel_of (List.nth subjects wi) in
      let hw = Flow.run_exn (Flow.Request.of_kernel ~config ~style kernel) in
      match Store.decode_entry (Store.encode_entry kernel hw) with
      | Error _ -> false
      | Ok (k, hw') ->
        k = kernel
        && hw'.Flow.verilog = hw.Flow.verilog
        && hw'.Flow.total_area = hw.Flow.total_area
        && hw'.Flow.style = hw.Flow.style
        && hw'.Flow.synthesis_seconds = hw.Flow.synthesis_seconds)

let test_decode_total () =
  (* Every malformed byte string is a typed fault, never an exception. *)
  let fault s =
    match Store.decode_entry s with
    | Ok _ -> Alcotest.failf "decoded %S" (String.sub s 0 (min 20 (String.length s)))
    | Error f -> f
  in
  (match fault "" with
  | Flow.Store_corrupt _ -> ()
  | _ -> Alcotest.fail "empty: expected corrupt");
  (match fault "vmht-store/0\nabc\npayload" with
  | Flow.Store_version_mismatch v ->
    Alcotest.(check string) "carried version" "vmht-store/0" v
  | _ -> Alcotest.fail "expected version mismatch");
  let _, _, kernel, hw = synth "vecadd" in
  let good = Store.encode_entry kernel hw in
  (* Truncation at any of a few depths is corrupt, not a crash. *)
  List.iter
    (fun keep ->
      match fault (String.sub good 0 (keep * String.length good / 4)) with
      | Flow.Store_corrupt _ | Flow.Store_version_mismatch _ -> ()
      | Flow.Store_unwritable _ -> Alcotest.fail "unexpected unwritable")
    [ 1; 2; 3 ];
  (* A flipped payload byte fails the checksum before unmarshalling. *)
  let b = Bytes.of_string good in
  let off = String.length good - 7 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 1));
  match fault (Bytes.to_string b) with
  | Flow.Store_corrupt msg ->
    Alcotest.(check bool) "checksum named" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "expected corrupt"

(* --- store --------------------------------------------------------- *)

let test_store_save_load () =
  let s = open_store () in
  let config, style, kernel, hw = synth "vecadd" in
  let key = Flow.cache_key config style kernel in
  Alcotest.(check bool) "absent before save" false (Store.contains s ~key);
  (match Store.save s ~key kernel hw with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %s" (Flow.error_to_string e));
  Alcotest.(check bool) "present after save" true (Store.contains s ~key);
  (match Store.load s ~key kernel with
  | Some hw' ->
    Alcotest.(check string) "verilog survives" hw.Flow.verilog hw'.Flow.verilog
  | None -> Alcotest.fail "load missed after save");
  let st = Store.stats s in
  Alcotest.(check int) "one save" 1 st.Store.saves;
  Alcotest.(check int) "one hit" 1 st.Store.hits

let test_store_corrupt_fallback () =
  let s = open_store () in
  let config, style, kernel, hw = synth "list_sum" in
  let key = Flow.cache_key config style kernel in
  (match Store.save s ~key kernel hw with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %s" (Flow.error_to_string e));
  (* Truncate the entry on disk; the load must fall back to a miss and
     clear the bad file so the next save repairs the store. *)
  let path = Store.path s ~key in
  let oc = open_out_gen [ Open_wronly; Open_trunc ] 0o644 path in
  output_string oc "vmht-store/1\ndead";
  close_out oc;
  (match Store.load s ~key kernel with
  | None -> ()
  | Some _ -> Alcotest.fail "corrupt entry served");
  Alcotest.(check int) "counted corrupt" 1 (Store.stats s).Store.corrupt;
  Alcotest.(check bool) "bad entry dropped" false (Store.contains s ~key);
  (* Version skew: a valid-shape entry from another format version. *)
  let oc = open_out_bin path in
  output_string oc "vmht-store/999\nx\ny";
  close_out oc;
  (match Store.load s ~key kernel with
  | None -> ()
  | Some _ -> Alcotest.fail "foreign version served");
  Alcotest.(check int) "counted skew" 1 (Store.stats s).Store.version_skew;
  (match Store.save s ~key kernel hw with
  | Ok () -> ()
  | Error e -> Alcotest.failf "re-save: %s" (Flow.error_to_string e));
  match Store.load s ~key kernel with
  | Some _ -> ()
  | None -> Alcotest.fail "store did not recover"

let test_store_unwritable () =
  match Store.open_ ~dir:"/proc/vmht-no-such-dir/store" () with
  | Ok _ -> Alcotest.fail "opened an unwritable store"
  | Error (Flow.Store_error { fault = Flow.Store_unwritable _; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Flow.error_to_string e)

let test_flow_promotion () =
  (* A disk hit is promoted into the memo: second process-lifetime
     (simulated by reset_cache) answers from the store, not a fresh
     synthesis. *)
  let s = open_store () in
  Store.install s;
  Fun.protect
    ~finally:(fun () ->
      Flow.set_store None;
      Flow.reset_cache ())
    (fun () ->
      Flow.reset_cache ();
      let config = Config.with_unroll Config.default 2 in
      let kernel = kernel_of "spmv" in
      let req = Flow.Request.of_kernel ~config ~style:Wrapper.Vm_iface kernel in
      let hw1 = Flow.run_exn req in
      Alcotest.(check int) "written through" 1 (Store.stats s).Store.saves;
      Flow.reset_cache ();
      let hw2 = Flow.run_exn req in
      Alcotest.(check int) "served from disk" 1 (Store.stats s).Store.hits;
      Alcotest.(check string) "same hardware" hw1.Flow.verilog hw2.Flow.verilog;
      (* Promotion: now memoized, a third run touches neither. *)
      let before = (Store.stats s).Store.hits in
      let _ = Flow.run_exn req in
      Alcotest.(check int) "memo answered" before (Store.stats s).Store.hits)

(* --- server -------------------------------------------------------- *)

let small_mix requests =
  Loadgen.mix ~config:Config.default ~requests ~seed:7

let reply_sig (r : Proto.reply) =
  (r.Proto.rid, Proto.outcome_to_string r.Proto.outcome)

let test_substrate_determinism () =
  Flow.set_store None;
  let reqs = small_mix 10 in
  let run shards =
    let server = Server.create ~shards ~handle:Loadgen.handle () in
    let replies = Server.run_batch server reqs in
    Server.shutdown server;
    List.map reply_sig replies
  in
  (* Fork the widest fleet first; every substrate must agree, and the
     replies arrive in rid order. *)
  let sharded2 = run 2 in
  let sharded1 = run 1 in
  let inproc = run 0 in
  Alcotest.(check (list (pair int string)))
    "1 shard = 2 shards" sharded2 sharded1;
  Alcotest.(check (list (pair int string)))
    "in-process = sharded" sharded2 inproc;
  Alcotest.(check (list int))
    "rid order" (List.init 10 Fun.id)
    (List.map fst inproc)

let test_server_store_warm () =
  let dir = fresh_dir () in
  let s1 = match Store.open_ ~dir () with
    | Ok s -> s
    | Error e -> Alcotest.failf "open: %s" (Flow.error_to_string e)
  in
  Store.install s1;
  Fun.protect
    ~finally:(fun () ->
      Flow.set_store None;
      Flow.reset_cache ())
    (fun () ->
      Flow.reset_cache ();
      let reqs =
        List.filter
          (fun (r : Proto.request) ->
            Option.is_some (Proto.synthesis_key r.Proto.job))
          (small_mix 16)
      in
      let cold = Server.create ~store:s1 ~handle:Loadgen.handle () in
      let cold_replies = Server.run_batch cold reqs in
      Server.shutdown cold;
      (* A second server over the same directory sees every key. *)
      let s2 = match Store.open_ ~dir () with
        | Ok s -> s
        | Error e -> Alcotest.failf "reopen: %s" (Flow.error_to_string e)
      in
      let warm = Server.create ~store:s2 ~handle:Loadgen.handle () in
      let warm_replies = Server.run_batch warm reqs in
      Server.shutdown warm;
      Alcotest.(check (float 0.0001)) "warm hit rate" 1.0 (Server.hit_rate warm);
      Alcotest.(check bool) "cold hit rate below 1" true
        (Server.hit_rate cold < 1.0);
      Alcotest.(check (list (pair int string)))
        "cold and warm replies identical"
        (List.map reply_sig cold_replies)
        (List.map reply_sig warm_replies))

(* The benchmark's serve rounds in small: a 64-request mix in batches
   of 8 against one store, three rounds with a fresh memo each.  The
   first round synthesizes and fills the store; the other two are
   answered from it, each sending the batches in another order.  Every
   batch's marshaled replies, sharing included, must be the first
   round's bytes. *)
let test_replies_stable_across_rounds () =
  let store = open_store () in
  Store.install store;
  Fun.protect
    ~finally:(fun () ->
      Flow.set_store None;
      Flow.reset_cache ())
    (fun () ->
      let reqs = Array.of_list (small_mix 64) in
      let round order =
        Flow.reset_cache ();
        let server = Server.create ~store ~handle:Loadgen.handle () in
        let replies =
          List.map
            (fun b ->
              let batch = Array.to_list (Array.sub reqs (b * 8) 8) in
              (b, Marshal.to_string (Server.run_batch server batch) []))
            order
        in
        Server.shutdown server;
        List.sort compare replies
      in
      let first = round (List.init 8 Fun.id) in
      let st = Store.stats store in
      Alcotest.(check bool) "the first round filled the store" true
        (st.Store.hits = 0 && st.Store.saves > 0);
      List.iter
        (fun order ->
          List.iter2
            (fun (b, bytes) (_, again) ->
              Alcotest.(check bool)
                (Printf.sprintf "batch %d, order %s" b
                   (String.concat "," (List.map string_of_int order)))
                true (bytes = again))
            first (round order))
        [ [ 7; 6; 5; 4; 3; 2; 1; 0 ]; [ 3; 0; 6; 1; 7; 4; 2; 5 ] ];
      Alcotest.(check bool) "later rounds read the store" true
        ((Store.stats store).Store.hits > 0))

let crash_request rid attempts_to_survive =
  {
    Proto.rid;
    attempt = 1;
    deadline_ms = None;
    job =
      Proto.Execute
        {
          workload = "__crash__";
          mode = Proto.Sw;
          size = attempts_to_survive;
          config = Config.default;
        };
  }

(* Kills the whole worker process below the crash threshold; the
   server must respawn and retry. *)
let crashy_handle (req : Proto.request) =
  match req.Proto.job with
  | Proto.Execute { workload = "__crash__"; size; _ } ->
    if req.Proto.attempt < size then Unix._exit 13
    else
      Proto.Executed
        { cycles = req.Proto.attempt; correct = true; ret = None }
  | _ -> Proto.Failed "unexpected job"

let test_retry_on_worker_death () =
  let server = Server.create ~shards:1 ~handle:crashy_handle () in
  let replies = Server.run_batch server [ crash_request 0 2 ] in
  Server.shutdown server;
  (match replies with
  | [ { Proto.rid = 0; outcome = Proto.Executed { cycles; _ } } ] ->
    Alcotest.(check int) "succeeded on attempt 2" 2 cycles
  | [ { Proto.outcome; _ } ] ->
    Alcotest.failf "unexpected outcome: %s" (Proto.outcome_to_string outcome)
  | _ -> Alcotest.fail "expected one reply");
  let st = Server.stats server in
  Alcotest.(check bool) "retry recorded" true (st.Server.retried >= 1)

let test_gives_up_after_max_attempts () =
  let server = Server.create ~shards:1 ~handle:crashy_handle () in
  let replies =
    Server.run_batch server [ crash_request 0 99; crash_request 1 1 ]
  in
  Server.shutdown server;
  match List.map reply_sig replies with
  | [ (0, msg); (1, ok) ] ->
    Alcotest.(check string) "gave up" "failed: worker died (3 attempts)" msg;
    Alcotest.(check bool) "innocent bystander answered" true
      (String.length ok > 0 && String.sub ok 0 8 = "executed")
  | _ -> Alcotest.fail "expected two replies"

(* Every planner test runs on both substrates: in-process and one
   forked worker. *)
let substrates = [ 0; 1 ]

let test_deadline_expiry () =
  List.iter
    (fun shards ->
      let server = Server.create ~shards ~handle:crashy_handle () in
      let req =
        {
          (crash_request 0 1) with
          Proto.deadline_ms = Some 0 (* expired on arrival *);
        }
      in
      let replies = Server.run_batch server [ req ] in
      Server.shutdown server;
      (match List.map reply_sig replies with
      | [ (0, msg) ] ->
        Alcotest.(check string) "expired without dispatch"
          "failed: deadline of 0 ms exceeded before dispatch" msg
      | _ -> Alcotest.fail "expected one reply");
      Alcotest.(check int)
        (Printf.sprintf "counted expired (shards %d)" shards)
        1 (Server.stats server).Server.expired)
    substrates

let synth_request ?deadline_ms rid wname =
  let job =
    Proto.Synthesize
      { kernel = kernel_of wname; style = Wrapper.Vm_iface; config = Config.default }
  in
  { Proto.rid; attempt = 1; deadline_ms; job }

let test_batch_dedup () =
  Flow.set_store None;
  List.iter
    (fun shards ->
      let reqs = List.init 6 (fun rid -> synth_request rid "vecadd") in
      let server = Server.create ~shards ~handle:Loadgen.handle () in
      let replies = Server.run_batch server reqs in
      Server.shutdown server;
      let st = Server.stats server in
      let label what = Printf.sprintf "%s (shards %d)" what shards in
      Alcotest.(check int) (label "five replies deduped") 5 st.Server.deduped;
      Alcotest.(check int)
        (label "five key hits (in-batch)")
        5 st.Server.key_hits;
      match List.map reply_sig replies with
      | (_, first) :: rest ->
        List.iter
          (fun (_, o) -> Alcotest.(check string) "cloned outcome" first o)
          rest
      | [] -> Alcotest.fail "no replies")
    substrates

(* The planner decides every batch the same way on every substrate.
   A deadline is a member's own: an expired member neither fails its
   live group-mates nor rides on their run. *)
let test_planner_alike () =
  Flow.set_store None;
  let counters deduped expired completed failed key_hits =
    [
      ("deduped", deduped);
      ("expired", expired);
      ("completed", completed);
      ("failed", failed);
      ("key_hits", key_hits);
    ]
  in
  let run shards batch =
    let server = Server.create ~shards ~handle:Loadgen.handle () in
    let replies = Server.run_batch server batch in
    Server.shutdown server;
    let st = Server.stats server in
    ( List.map reply_sig replies,
      counters st.Server.deduped st.Server.expired st.Server.completed
        st.Server.failed st.Server.key_hits )
  in
  let status (rid, msg) =
    (rid, if String.starts_with ~prefix:"synthesized" msg then "synthesized" else msg)
  in
  let expired = "failed: deadline of 0 ms exceeded before dispatch" in
  List.iter
    (fun (name, batch, want_replies, want_counters) ->
      let replies, stats = run 0 batch in
      Alcotest.(check (list (pair int string)))
        (name ^ ": replies") want_replies (List.map status replies);
      Alcotest.(check (list (pair string int)))
        (name ^ ": counters") want_counters stats;
      List.iter
        (fun shards ->
          let label what = Printf.sprintf "%s: %s, shards %d = 0" name what shards in
          let r, st = run shards batch in
          Alcotest.(check (list (pair int string))) (label "replies") replies r;
          Alcotest.(check (list (pair string int))) (label "counters") stats st)
        [ 1; 2 ])
    [
      ( "six vecadd",
        List.init 6 (fun rid -> synth_request rid "vecadd"),
        List.init 6 (fun rid -> (rid, "synthesized")),
        counters 5 0 6 0 5 );
      (* Expired first: its live duplicate still runs. *)
      ( "saxpy",
        [ synth_request ~deadline_ms:0 0 "saxpy"; synth_request 1 "saxpy" ],
        [ (0, expired); (1, "synthesized") ],
        counters 0 1 1 1 1 );
      (* Expired second: it does not ride on its leader's run. *)
      ( "dotprod",
        [ synth_request 0 "dotprod"; synth_request ~deadline_ms:0 1 "dotprod" ],
        [ (0, "synthesized"); (1, expired) ],
        counters 0 1 1 1 1 );
    ]

(* --- request-key config folding ------------------------------------ *)

let test_request_config_folding () =
  let kernel = kernel_of "vecadd" in
  let config = Config.default in
  let base =
    Flow.run_exn
      (Flow.Request.of_kernel ~config ~style:Wrapper.Dma_iface kernel)
  in
  let again =
    Flow.run_exn
      (Flow.Request.of_kernel ~config ~style:Wrapper.Dma_iface kernel)
  in
  Alcotest.(check bool) "same memoized hardware" true (base == again);
  (* The scratchpad size sizes the DMA wrapper (and so its cache key). *)
  let smaller =
    Flow.run_exn
      (Flow.Request.of_kernel
         ~config:{ config with Config.scratchpad_words = 1024 }
         ~style:Wrapper.Dma_iface kernel)
  in
  Alcotest.(check bool) "scratchpad changes the hardware" true
    (smaller.Flow.wrapper_area <> base.Flow.wrapper_area)

let () =
  Alcotest.run "vmht-serve"
    [
      ( "store",
        [
          QCheck_alcotest.to_alcotest prop_entry_roundtrip;
          Alcotest.test_case "decode is total on junk" `Quick test_decode_total;
          Alcotest.test_case "save/load round-trip" `Quick test_store_save_load;
          Alcotest.test_case "corrupt + version-skew fallback" `Quick
            test_store_corrupt_fallback;
          Alcotest.test_case "unwritable dir is typed" `Quick
            test_store_unwritable;
          Alcotest.test_case "flow promotes disk hits" `Quick
            test_flow_promotion;
        ] );
      ( "server",
        [
          Alcotest.test_case "substrates agree byte-for-byte" `Quick
            test_substrate_determinism;
          Alcotest.test_case "warm store answers everything" `Quick
            test_server_store_warm;
          Alcotest.test_case "replies byte-stable across rounds" `Quick
            test_replies_stable_across_rounds;
          Alcotest.test_case "retries across worker death" `Quick
            test_retry_on_worker_death;
          Alcotest.test_case "bounded retry gives up" `Quick
            test_gives_up_after_max_attempts;
          Alcotest.test_case "deadlines expire undispatched" `Quick
            test_deadline_expiry;
          Alcotest.test_case "in-batch dedup fans out" `Quick test_batch_dedup;
          Alcotest.test_case "planner alike on every substrate" `Quick
            test_planner_alike;
        ] );
      ( "flow-api",
        [
          Alcotest.test_case "request key folds the config" `Quick
            test_request_config_folding;
        ] );
    ]
