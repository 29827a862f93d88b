(* Synthesis-as-a-service tests: the persistent content-addressed
   store (codec round-trips, corruption and version-skew fallback,
   promotion into the flow memo), the batch server (the same replies
   and counters at pool widths 1 and 2, dedup, deadlines), the request
   line decoder, the consolidated Flow request API, and mutated
   registry kernels through both. *)

module Flow = Vmht.Flow
module Store = Vmht_serve.Store
module Proto = Vmht_serve.Proto
module Server = Vmht_serve.Server
module Loadgen = Vmht_eval.Loadgen
module Parmap = Vmht_par.Parmap
open Vmht

let temp_counter = ref 0

(* [f] over a fresh store directory ([Store.open_] creates it), which
   is removed afterwards with the entries in it: a store is flat. *)
let with_dir f =
  incr temp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vmht-serve-test-%d-%d" (Unix.getpid ()) !temp_counter)
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let open_at dir =
  match Store.open_ ~dir () with
  | Ok s -> s
  | Error e -> Alcotest.failf "store open failed: %s" (Flow.error_to_string e)

let with_store f = with_dir (fun dir -> f (open_at dir))

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
  with_store @@ fun s ->
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
  with_store @@ fun s ->
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
  with_store @@ fun s ->
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

let counters_of (st : Server.stats) =
  [
    ("submitted", st.Server.submitted);
    ("completed", st.Server.completed);
    ("failed", st.Server.failed);
    ("expired", st.Server.expired);
    ("deduped", st.Server.deduped);
    ("key_hits", st.Server.key_hits);
    ("key_misses", st.Server.key_misses);
  ]

(* One mix through a fresh server and an empty memo on a pool of one
   domain and of two: the same replies in rid order, the same
   counters.  The mix gets two in-batch duplicates and an expired
   copy, and goes in in reverse rid order. *)
let test_pool_widths_agree () =
  Flow.set_store None;
  let mix = small_mix 24 in
  let dups =
    List.filter
      (fun (r : Proto.request) ->
        Option.is_some (Proto.synthesis_key r.Proto.job))
      mix
    |> List.filteri (fun i _ -> i < 2)
    |> List.mapi (fun i (r : Proto.request) -> { r with Proto.rid = 24 + i })
  in
  let expired = { (List.hd dups) with Proto.rid = 26; deadline_ms = Some 0 } in
  let reqs = List.rev (mix @ dups @ [ expired ]) in
  let run jobs =
    Parmap.set_jobs jobs;
    Fun.protect ~finally:Parmap.shutdown (fun () ->
        Flow.reset_cache ();
        let server = Server.create ~handle:Loadgen.handle () in
        let replies = Server.run_batch server reqs in
        (List.map reply_sig replies, counters_of (Server.stats server)))
  in
  let replies1, counters1 = run 1 in
  let replies2, counters2 = run 2 in
  Alcotest.(check (list (pair int string))) "replies" replies1 replies2;
  Alcotest.(check (list (pair string int))) "counters" counters1 counters2;
  Alcotest.(check (list int))
    "rid order" (List.init 27 Fun.id) (List.map fst replies2);
  Alcotest.(check (list int)) "deduped, expired" [ 2; 1 ]
    (List.map (fun k -> List.assoc k counters2) [ "deduped"; "expired" ])

let test_server_store_warm () =
  with_dir @@ fun dir ->
  let s1 = open_at dir in
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
      (* A second server over the same directory sees every key. *)
      let s2 = open_at dir in
      let warm = Server.create ~store:s2 ~handle:Loadgen.handle () in
      let warm_replies = Server.run_batch warm reqs in
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
  with_store @@ fun store ->
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
        List.map
          (fun b ->
            let batch = Array.to_list (Array.sub reqs (b * 8) 8) in
            (b, Marshal.to_string (Server.run_batch server batch) []))
          order
        |> List.sort compare
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

let synth_request ?deadline_ms rid wname =
  let job =
    Proto.Synthesize
      { kernel = kernel_of wname; style = Wrapper.Vm_iface; config = Config.default }
  in
  { Proto.rid; deadline_ms; job }

let test_deadline_expiry () =
  let server =
    Server.create ~handle:(fun _ -> Proto.Failed "ran an expired request") ()
  in
  let req = synth_request ~deadline_ms:0 (* expired on arrival *) 0 "vecadd" in
  (match List.map reply_sig (Server.run_batch server [ req ]) with
  | [ (0, msg) ] ->
    Alcotest.(check string) "expired without running"
      "failed: deadline of 0 ms exceeded before dispatch" msg
  | _ -> Alcotest.fail "expected one reply");
  Alcotest.(check int) "counted expired" 1 (Server.stats server).Server.expired

let test_batch_dedup () =
  Flow.set_store None;
  let reqs = List.init 6 (fun rid -> synth_request rid "vecadd") in
  let server = Server.create ~handle:Loadgen.handle () in
  let replies = Server.run_batch server reqs in
  let st = Server.stats server in
  Alcotest.(check int) "five replies deduped" 5 st.Server.deduped;
  Alcotest.(check int) "five key hits (in-batch)" 5 st.Server.key_hits;
  match List.map reply_sig replies with
  | (_, first) :: rest ->
    List.iter
      (fun (_, o) -> Alcotest.(check string) "cloned outcome" first o)
      rest
  | [] -> Alcotest.fail "no replies"

(* The planner's decisions on three small batches.  A deadline is a
   member's own: an expired member neither fails its live group-mates
   nor rides on their run. *)
let test_planner_decisions () =
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
  let status (rid, msg) =
    (rid, if String.starts_with ~prefix:"synthesized" msg then "synthesized" else msg)
  in
  let expired = "failed: deadline of 0 ms exceeded before dispatch" in
  List.iter
    (fun (name, batch, want_replies, want_counters) ->
      let server = Server.create ~handle:Loadgen.handle () in
      let replies = Server.run_batch server batch in
      let st = Server.stats server in
      Alcotest.(check (list (pair int string)))
        (name ^ ": replies") want_replies
        (List.map (fun r -> status (reply_sig r)) replies);
      Alcotest.(check (list (pair string int)))
        (name ^ ": counters") want_counters
        (counters st.Server.deduped st.Server.expired st.Server.completed
           st.Server.failed st.Server.key_hits))
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

(* --- request lines ------------------------------------------------- *)

let decode line =
  match Proto.job_of_line line with
  | Ok _ -> "ok"
  | Error (`Frontend msg) -> "frontend: " ^ msg
  | Error (`Request msg) -> "request: " ^ msg

(* A repeated key rejects its line: no value of the two wins unseen. *)
let test_repeated_key () =
  List.iter
    (fun (line, want) -> Alcotest.(check string) line want (decode line))
    [
      ( {|{"op":"run","workload":"list_sum","size":64,"size":-1}|},
        {|request: duplicate key "size"|} );
      ( {|{"op":"synth","workload":"vecadd","op":"run"}|},
        {|request: duplicate key "op"|} );
      ({|{"op":"run","workload":"list_sum","size":64}|}, "ok");
    ]

(* Well-formed lines over the registry: both ops, with and without the
   config keys. *)
let gen_valid_line =
  let open QCheck.Gen in
  let* w = oneofl Vmht_workloads.Registry.all in
  let name = Printf.sprintf "%S" w.Vmht_workloads.Workload.name in
  let* knobs =
    flatten_l
      [
        map (Printf.sprintf {|"unroll":%d|}) (oneofl [ 1; 2; 4; 64 ]);
        map (Printf.sprintf {|"opt":%d|}) (int_bound 2);
        map (Printf.sprintf {|"tlb":%d|}) (oneofl [ 16; 64 ]);
      ]
  in
  let* n = int_bound 3 in
  let knobs = List.filteri (fun i _ -> i < n) knobs in
  let* op =
    oneof
      [
        map
          (fun style ->
            [ {|"op":"synth"|}; {|"workload":|} ^ name; {|"style":|} ^ style ])
          (oneofl [ {|"vm"|}; {|"dma"|} ]);
        map
          (fun (mode, size) ->
            [
              {|"op":"run"|};
              {|"workload":|} ^ name;
              {|"mode":|} ^ mode;
              Printf.sprintf {|"size":%d|} size;
            ])
          (pair (oneofl [ {|"sw"|}; {|"vm"|}; {|"dma"|} ]) (int_range 1 512));
        return
          [
            {|"op":"synth"|};
            {|"source":|}
            ^ Vmht_obs.Json.(
                to_string (String w.Vmht_workloads.Workload.source));
          ];
      ]
  in
  return ("{" ^ String.concat "," (op @ knobs) ^ "}")

(* A valid line with one key's value replaced by one of another type. *)
let retype line =
  let open QCheck.Gen in
  let module J = Vmht_obs.Json in
  match J.of_string line with
  | J.Obj fields ->
    let* i = int_bound (List.length fields - 1) in
    let* v =
      oneofl
        [
          J.Null;
          J.Bool true;
          J.Int (-1);
          J.Int max_int;
          J.Float 2.5;
          J.String "vm";
          J.String "";
          J.List [ J.Int 1 ];
          J.Obj [ ("op", J.String "run") ];
        ]
    in
    let fields =
      List.mapi (fun j (k, x) -> (k, if i = j then v else x)) fields
    in
    return (J.to_string (J.Obj fields))
  | _ -> return line

let gen_line =
  let open QCheck.Gen in
  let mutate line =
    let n = String.length line in
    frequency
      [
        (2, map (fun k -> String.sub line 0 k) (int_bound n));
        ( 3,
          let* flips =
            list_size (int_range 1 4)
              (pair (int_bound (n - 1)) (int_range 1 255))
          in
          let b = Bytes.of_string line in
          List.iter
            (fun (i, x) ->
              Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x)))
            flips;
          return (Bytes.to_string b) );
        (3, retype line);
      ]
  in
  frequency
    [
      (1, string_size ~gen:char (int_bound 256));
      (1, gen_valid_line);
      (6, gen_valid_line >>= mutate);
    ]
  |> map (fun s -> if String.length s < 2048 then s else String.sub s 0 2047)

let prop_line_decoder_total =
  QCheck.Test.make ~count:1000 ~name:"job_of_line is total"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_line)
    (fun line ->
      match Proto.job_of_line line with Ok _ | Error _ -> true)

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

(* --- mutated registry kernels --------------------------------------- *)

(* Kernel source from outside — a [vmht serve] synth line, a file given
   to the CLI — reaches the front end, the optimizer and the HLS back
   end.  Registry kernels with a few mutations each must come back from
   [Flow.run] and from the line decoder as [Ok] or a typed [Error],
   never as an exception. *)

let binary_ops =
  [
    "+"; "-"; "*"; "/"; "%"; "<<"; ">>"; "<"; "<="; ">"; ">="; "=="; "!=";
    "&"; "|"; "^"; "&&"; "||";
  ]

let mutant_literals = [ 0; -1; 63; 64; 1 lsl 40; max_int ]

(* [(start, length)] of every binary operator in [src], the longest
   that matches at each place. *)
let operator_spans src =
  let n = String.length src in
  let at i op =
    let k = String.length op in
    i + k <= n && String.sub src i k = op
  in
  let rec scan i acc =
    if i >= n then List.rev acc
    else if not (String.contains "+-*/%<>=!&|^" src.[i]) then scan (i + 1) acc
    else
      match
        List.filter (at i) binary_ops
        |> List.sort (fun a b -> compare (String.length b) (String.length a))
      with
      | op :: _ -> scan (i + String.length op) ((i, String.length op) :: acc)
      | [] -> scan (i + 1) acc
  in
  scan 0 []

(* [(start, length)] of every decimal literal that does not end a name. *)
let literal_spans src =
  let n = String.length src in
  let digit i = i < n && src.[i] >= '0' && src.[i] <= '9' in
  let name_char i =
    i >= 0
    && (digit i
       || src.[i] = '_'
       || (src.[i] >= 'a' && src.[i] <= 'z')
       || (src.[i] >= 'A' && src.[i] <= 'Z'))
  in
  let rec scan i acc =
    if i >= n then List.rev acc
    else if digit i && not (name_char (i - 1)) then begin
      let j = ref i in
      while digit !j do
        incr j
      done;
      scan !j ((i, !j - i) :: acc)
    end
    else scan (i + 1) acc
  in
  scan 0 []

(* One mutation: a byte set to a printable character, a truncation, a
   deleted span, a binary operator swapped for another, or a literal
   replaced by an edge value. *)
let mutate src =
  let open QCheck.Gen in
  let n = String.length src in
  let replace (i, len) by =
    String.sub src 0 i ^ by ^ String.sub src (i + len) (n - i - len)
  in
  let in_span spans f =
    match spans with [] -> return src | _ -> oneofl spans >>= f
  in
  if n = 0 then return src
  else
    (* The operator and literal mutations keep most kernels well formed,
       so they get twice the weight of the three that mostly break
       the syntax. *)
    int_bound 6 >>= function
    | 0 ->
      map2
        (fun i c -> replace (i, 1) (String.make 1 c))
        (int_bound (n - 1)) printable
    | 1 -> map (fun k -> String.sub src 0 k) (int_bound n)
    | 2 ->
      let* i = int_bound (n - 1) in
      map (fun len -> replace (i, min len (n - i)) "") (int_range 1 64)
    | 3 | 4 ->
      in_span (operator_spans src) (fun span ->
          map (replace span) (oneofl binary_ops))
    | _ ->
      in_span (literal_spans src) (fun span ->
          map (fun v -> replace span (string_of_int v)) (oneofl mutant_literals))

let rec mutate_n k src =
  if k = 0 then QCheck.Gen.return src
  else QCheck.Gen.(mutate src >>= mutate_n (k - 1))

let gen_mutant =
  let open QCheck.Gen in
  let* w = oneofl Vmht_workloads.Registry.all in
  let* k = int_range 1 3 in
  mutate_n k w.Vmht_workloads.Workload.source

(* Up to 400 copies of one registry kernel, each renamed, with up to
   three mutations: synth lines far over 2 KB. *)
let gen_big_source =
  let open QCheck.Gen in
  let* w = oneofl Vmht_workloads.Registry.all in
  let* copies = int_range 2 400 in
  let* k = int_bound 3 in
  let source = w.Vmht_workloads.Workload.source in
  let name = (Vmht_workloads.Workload.kernel w).Vmht_lang.Ast.kname in
  let header = "kernel " ^ name ^ "(" in
  let at = ref 0 in
  while String.sub source !at (String.length header) <> header do
    incr at
  done;
  let renamed i =
    String.sub source 0 !at
    ^ Printf.sprintf "kernel %s_%d(" name i
    ^ String.sub source
        (!at + String.length header)
        (String.length source - !at - String.length header)
  in
  mutate_n k (String.concat "\n" (List.init copies renamed))

let synth_line source =
  Vmht_obs.Json.(
    to_string (Obj [ ("op", String "synth"); ("source", String source) ]))

let decodes source =
  match Proto.job_of_line (synth_line source) with Ok _ | Error _ -> true

(* Both styles, at O2 unroll 1 and at O0 unroll 4 pipelined. *)
let mutant_configs =
  let o0 = Config.with_opt_level Config.default 0 in
  [
    Config.default;
    Config.with_pipelining (Config.with_unroll o0 4) true;
  ]

let prop_mutated_kernels_total =
  QCheck.Test.make ~count:400
    ~name:"mutated registry kernels: flow and decoder are total"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_mutant)
    (fun source ->
      List.for_all
        (fun config ->
          List.for_all
            (fun style ->
              match
                Flow.run
                  (Flow.Request.of_source ~cache:false ~config ~style source)
              with
              | Ok _ | Error _ -> true)
            [ Wrapper.Vm_iface; Wrapper.Dma_iface ])
        mutant_configs
      && decodes source)

let prop_big_lines_total =
  QCheck.Test.make ~count:40
    ~name:"synth lines of up to 400 mutated kernels decode"
    (QCheck.make
       ~print:(fun s -> Printf.sprintf "%d bytes: %S" (String.length s) s)
       gen_big_source)
    decodes

let store_suite =
  [
    QCheck_alcotest.to_alcotest prop_entry_roundtrip;
    Alcotest.test_case "decode is total on junk" `Quick test_decode_total;
    Alcotest.test_case "save/load round-trip" `Quick test_store_save_load;
    Alcotest.test_case "corrupt + version-skew fallback" `Quick
      test_store_corrupt_fallback;
    Alcotest.test_case "unwritable dir is typed" `Quick test_store_unwritable;
    Alcotest.test_case "flow promotes disk hits" `Quick test_flow_promotion;
  ]

let server_suite =
  [
    Alcotest.test_case "pool widths one and two agree" `Quick
      test_pool_widths_agree;
    Alcotest.test_case "warm store answers everything" `Quick
      test_server_store_warm;
    Alcotest.test_case "replies byte-stable across rounds" `Quick
      test_replies_stable_across_rounds;
    Alcotest.test_case "deadlines expire undispatched" `Quick
      test_deadline_expiry;
    Alcotest.test_case "in-batch dedup fans out" `Quick test_batch_dedup;
    Alcotest.test_case "planner decides each batch" `Quick
      test_planner_decisions;
    Alcotest.test_case "a repeated key rejects the line" `Quick
      test_repeated_key;
    QCheck_alcotest.to_alcotest prop_line_decoder_total;
  ]

let flow_api_suite =
  [
    Alcotest.test_case "request key folds the config" `Quick
      test_request_config_folding;
    QCheck_alcotest.to_alcotest prop_mutated_kernels_total;
    QCheck_alcotest.to_alcotest prop_big_lines_total;
  ]
