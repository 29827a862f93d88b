open Vmht_hls
module Parser = Vmht_lang.Parser
module Ast_interp = Vmht_lang.Ast_interp
module Engine = Vmht_sim.Engine

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* A memory with [ports] one-cycle ports: untimed accesses, a group of
   [n] issued together held for [ceil (n / ports)] cycles. *)
let ported_port ~ports data =
  {
    (Accel.untimed_port (Ast_interp.array_memory data)) with
    Accel.hold = (fun n -> Vmht_util.Bits.ceil_div n ports);
  }

(* Run a synthesized accelerator inside a private engine over [data]
   and return (result, stats). *)
let accel_run ?resources ?(unroll = 1) ?(ports = 1) kernel ~data ~args =
  let hw = Fsm.synthesize ?resources ~unroll kernel in
  let eng = Engine.create () in
  let result = ref None in
  let stats = Accel.fresh_stats () in
  Engine.spawn eng (fun () ->
      let port = ported_port ~ports data in
      result := Some (Accel.run ~stats ~engine:eng hw ~port ~args));
  Engine.run eng;
  (Option.get !result, stats)

let vecadd_kernel =
  Parser.parse_kernel
    {|kernel vecadd(a: int*, b: int*, c: int*, n: int) {
        var i: int;
        for (i = 0; i < n; i = i + 1) { c[i] = a[i] + b[i]; }
      }|}

(* ----------------------- scheduling ------------------------------- *)

let schedule_of ?resources kernel =
  let f = Vmht_ir.Lower.lower_kernel kernel in
  ignore (Vmht_ir.Pass_manager.optimize f);
  Schedule.schedule_func ?resources f

let test_schedule_valid () =
  let s = schedule_of vecadd_kernel in
  Schedule.validate s;
  check_bool "has states" true (Schedule.total_states s > 0)

let test_schedule_respects_mem_port () =
  let s = schedule_of vecadd_kernel in
  check_bool "at most 1 mem op per cycle" true
    (Schedule.max_concurrency s Optypes.Mem <= 1)

let test_unlimited_not_slower () =
  let constrained = schedule_of vecadd_kernel in
  let unlimited =
    schedule_of ~resources:Schedule.unlimited_resources vecadd_kernel
  in
  check_bool "unlimited resources never lengthen the schedule" true
    (Schedule.total_states unlimited <= Schedule.total_states constrained)

let test_div_latency_in_makespan () =
  let k = Parser.parse_kernel "kernel f(x: int) : int { return x / 3; }" in
  let s = schedule_of k in
  check_bool "division latency covered" true
    (Schedule.total_states s >= Optypes.latency Optypes.Div)

(* ----------------------- binding ---------------------------------- *)

let test_bind_counts () =
  let s = schedule_of vecadd_kernel in
  let b = Bind.bind s in
  check_bool "has at least one ALU or mem unit" true (Bind.total_fus b >= 1);
  check_bool "registers sized" true (b.Bind.reg_count >= 1)

let test_bind_respects_schedule () =
  let s = schedule_of vecadd_kernel in
  let b = Bind.bind s in
  List.iter
    (fun (cls, n) ->
      check_bool
        (Printf.sprintf "units for %s cover peak" (Optypes.class_name cls))
        true
        (n >= Schedule.max_concurrency s cls))
    b.Bind.fu_counts

(* ----------------------- area ------------------------------------- *)

let test_area_positive () =
  let hw = Fsm.synthesize vecadd_kernel in
  check_bool "lut > 0" true (hw.Fsm.area.Optypes.lut > 0);
  check_bool "ff > 0" true (hw.Fsm.area.Optypes.ff > 0)

let test_area_grows_with_unroll () =
  let a1 = (Fsm.synthesize ~unroll:1 vecadd_kernel).Fsm.area in
  let a8 = (Fsm.synthesize ~unroll:8 vecadd_kernel).Fsm.area in
  check_bool "unrolled datapath is bigger" true
    (a8.Optypes.lut > a1.Optypes.lut)

(* ----------------------- accelerator simulation ------------------- *)

let test_accel_vecadd () =
  let data = Array.make 24 0 in
  for i = 0 to 7 do
    data.(i) <- i + 1;
    data.(8 + i) <- 2 * (i + 1)
  done;
  let ret, stats = accel_run vecadd_kernel ~data ~args:[ 0; 64; 128; 8 ] in
  check_bool "void" true (ret = None);
  for i = 0 to 7 do
    check_int "c[i]" (3 * (i + 1)) data.(16 + i)
  done;
  check_int "16 loads" 16 stats.Accel.loads;
  check_int "8 stores" 8 stats.Accel.stores;
  check_bool "cycles counted" true (stats.Accel.fsm_cycles > 0)

let test_accel_matches_interp_unrolled () =
  List.iter
    (fun unroll ->
      let data = Array.init 40 (fun i -> i * 3) in
      let reference = Array.copy data in
      ignore
        (Ast_interp.run_kernel
           (Ast_interp.array_memory reference)
           vecadd_kernel ~args:[ 0; 80; 160; 10 ]);
      let _, _ = accel_run ~unroll vecadd_kernel ~data ~args:[ 0; 80; 160; 10 ] in
      check_bool
        (Printf.sprintf "unroll=%d matches" unroll)
        true (data = reference))
    [ 1; 2; 4; 8 ]

let test_accel_timed_port_stalls () =
  (* A port with latency 5 per access: total time must include the
     stalls. *)
  let k =
    Parser.parse_kernel
      "kernel f(p: int*) : int { return p[0] + p[1] + p[2]; }"
  in
  let hw = Fsm.synthesize k in
  let eng = Engine.create () in
  let finished = ref 0 in
  Engine.spawn eng (fun () ->
      let data = [| 10; 20; 30 |] in
      let mem = Ast_interp.array_memory data in
      let port =
        {
          Accel.load =
            (fun a ->
              Engine.wait_on eng 5;
              mem.Ast_interp.load a);
          Accel.store =
            (fun a v ->
              Engine.wait_on eng 5;
              mem.Ast_interp.store a v);
          Accel.hold = Fun.const 0;
        }
      in
      let ret = Accel.run ~engine:eng hw ~port ~args:[ 0 ] in
      check_bool "sum" true (ret = Some 60);
      finished := Engine.now eng);
  Engine.run eng;
  check_bool "3 loads stall >= 15 cycles" true (!finished >= 15)

let test_dual_port_overlaps () =
  (* Two loads whose addresses are both argument registers are ready in
     cycle 0; with 2 ports they issue together and the port holds them
     for one 10-cycle access, with 1 port for two. *)
  let k =
    Parser.parse_kernel
      "kernel f(p: int*, q: int*) : int { return p[0] + q[0]; }"
  in
  let resources =
    { Schedule.default_resources with Schedule.mem = Schedule.flat_mem 2 }
  in
  let hw = Fsm.synthesize ~resources k in
  let run_with ports =
    let eng = Engine.create () in
    let span = ref 0 in
    Engine.spawn eng (fun () ->
        let data = [| 1; 2 |] in
        let mem = Ast_interp.array_memory data in
        let port =
          {
            Accel.load = mem.Ast_interp.load;
            Accel.store = (fun _ _ -> ());
            Accel.hold = (fun n -> 10 * Vmht_util.Bits.ceil_div n ports);
          }
        in
        ignore (Accel.run ~engine:eng hw ~port ~args:[ 0; 8 ]);
        span := Engine.now eng);
    Engine.run eng;
    !span
  in
  check_bool "dual port faster than single" true (run_with 2 < run_with 1)

(* ----------------------- verilog ---------------------------------- *)

let test_verilog_emission () =
  let hw = Fsm.synthesize vecadd_kernel in
  let rtl = Verilog.emit hw in
  check_bool "module header" true
    (String.length rtl > 200
     && String.index_opt rtl 'm' <> None
     &&
     let has s sub =
       let n = String.length sub in
       let rec go i =
         i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
       in
       go 0
     in
     has rtl "module ht_vecadd" && has rtl "endmodule" && has rtl "case (state)")

(* ----------------------- qcheck ----------------------------------- *)

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100000)

let prop_accel_matches_reference =
  QCheck.Test.make ~count:120 ~name:"accelerator simulation matches AST semantics"
    seed_arb (fun seed ->
      let kernel = Gen_prog.gen_kernel seed in
      let a = seed mod 11 and b = seed mod 7 in
      let reference, ret_ref = Gen_prog.reference_run kernel ~a ~b in
      let data = Array.init Gen_prog.mem_words (fun i -> (i * 37) mod 101) in
      let ret, _ = accel_run kernel ~data ~args:[ 0; a; b ] in
      ret = ret_ref && data = reference)

let prop_schedule_always_valid =
  QCheck.Test.make ~count:120 ~name:"schedules satisfy dependences and resources"
    seed_arb (fun seed ->
      let kernel = Gen_prog.gen_kernel seed in
      let f = Vmht_ir.Lower.lower_kernel kernel in
      ignore (Vmht_ir.Pass_manager.optimize f);
      let s = Schedule.schedule_func f in
      match Schedule.validate s with () -> true | exception Failure _ -> false)

let prop_dual_port_equivalence =
  QCheck.Test.make ~count:60
    ~name:"dual-ported accelerator matches single-ported" seed_arb
    (fun seed ->
      let kernel = Gen_prog.gen_kernel seed in
      let a = seed mod 9 and b = seed mod 5 in
      let resources =
        { Schedule.default_resources with Schedule.mem = Schedule.flat_mem 2 }
      in
      let d1 = Array.init Gen_prog.mem_words (fun i -> (i * 37) mod 101) in
      let d2 = Array.copy d1 in
      let hw = Fsm.synthesize ~resources kernel in
      let run ports data =
        let eng = Engine.create () in
        let result = ref None in
        Engine.spawn eng (fun () ->
            let port = ported_port ~ports data in
            result := Some (Accel.run ~engine:eng hw ~port ~args:[ 0; a; b ]));
        Engine.run eng;
        Option.get !result
      in
      let r1 = run 1 d1 in
      let r2 = run 2 d2 in
      r1 = r2 && d1 = d2)

let prop_unroll_accel_equivalence =
  QCheck.Test.make ~count:60 ~name:"unrolled accelerator matches rolled"
    seed_arb (fun seed ->
      let kernel = Gen_prog.gen_kernel seed in
      let a = seed mod 13 and b = seed mod 17 in
      let d1 = Array.init Gen_prog.mem_words (fun i -> (i * 37) mod 101) in
      let d2 = Array.copy d1 in
      let r1, _ = accel_run ~unroll:1 kernel ~data:d1 ~args:[ 0; a; b ] in
      let r2, _ = accel_run ~unroll:4 kernel ~data:d2 ~args:[ 0; a; b ] in
      r1 = r2 && d1 = d2)

(* The scheduler against its all-pairs oracle (schedule_oracle.ml):
   random kernels x unroll {1,4} x opt {0,2} x banks {1,2,4} x
   {default resources, one unit per class}.  Per block, the oracle's
   priority function over the library's nearest edges gives the
   oracle's priorities; the library's starts and makespans are the
   oracle's and satisfy every all-pairs edge; and every all-pairs edge
   the builder drops or weakens is implied by a path of its edges
   inside the edge's own index range (the range the pipeliner filters
   by), at least as long as the argument for each rule behind it
   promises. *)
let check_block_against_oracle ~banked regs (lib : Schedule.block_schedule)
    (oracle : Schedule.block_schedule) =
  let fail fmt =
    Printf.ksprintf
      (fun msg -> QCheck.Test.fail_report (Printf.sprintf "L%d: %s" lib.label msg))
      fmt
  in
  let instrs = lib.Schedule.instrs in
  let n = Array.length instrs in
  if lib.Schedule.starts <> oracle.Schedule.starts then fail "starts differ";
  if lib.Schedule.makespan <> oracle.Schedule.makespan then fail "makespans differ";
  let addrs = Schedule.Bank.addr_forms regs instrs in
  let addrs = if banked then Some addrs else None in
  let near = Schedule.dependence_edges ?addrs regs instrs in
  let all = Schedule_oracle.dependence_edges ?addrs instrs in
  let prio edges =
    Schedule_oracle.priorities instrs (Schedule_oracle.successors edges)
  in
  if prio near <> prio all then fail "priorities differ";
  let lat = Schedule_oracle.lat in
  let def i = Vmht_ir.Ir.def_reg instrs.(i) in
  let reads i r =
    let found = ref false in
    Vmht_ir.Ir.iter_uses (fun u -> if u = r then found := true) instrs.(i);
    !found
  in
  let between i j p =
    let rec go k = k < j && (p k || go (k + 1)) in
    go (i + 1)
  in
  (* the longest path of nearest edges from [i] to each later
     instruction, through instructions at or after [i] only; computed
     once per source, at its first dropped or weakened edge *)
  let paths = Array.make n [||] in
  let longest i =
    if Array.length paths.(i) = 0 then begin
      let dist = Array.make n min_int in
      dist.(i) <- 0;
      for v = i + 1 to n - 1 do
        List.iter
          (fun (u, d) ->
            if u >= i && dist.(u) > min_int then
              dist.(v) <- max dist.(v) (dist.(u) + d))
          near.(v)
      done;
      paths.(i) <- dist
    end;
    paths.(i)
  in
  Array.iteri
    (fun j preds ->
      if lib.Schedule.starts.(j) < 0 then fail "instruction %d unscheduled" j;
      List.iter
        (fun (i, d) ->
          if lib.Schedule.starts.(j) < lib.Schedule.starts.(i) + d then
            fail "all-pairs edge %d -> %d (%d) violated" i j d;
          (* the nearest builder's delay on [i -> j], -1 for none *)
          let kept = Option.value ~default:(-1) (List.assoc_opt i near.(j)) in
          if kept < d then begin
            let path = (longest i).(j) in
            (* each rule behind the pair: its delay, whether an
               intervening instruction cuts it, and the path length the
               argument through that instruction promises *)
            let rules =
              (if def i >= 0 && reads j (def i) then
                 [ ("RAW", lat instrs.(i), between i j (fun k -> def k = def i),
                    lat instrs.(i) + 1) ]
               else [])
              @ (if def j >= 0 && reads i (def j) then
                   [ ("WAR", 0, between i j (fun k -> def k = def j), 1) ]
                 else [])
              @ (if def i >= 0 && def i = def j then
                   [ ("WAW", max 1 (lat instrs.(i) - lat instrs.(j) + 1),
                      between i j (fun k -> def k = def i),
                      max 2 (lat instrs.(i) - lat instrs.(j) + 2)) ]
                 else [])
              @
              if
                (not banked)
                && Schedule_oracle.is_mem instrs.(i)
                && Schedule_oracle.is_mem instrs.(j)
                && (Schedule_oracle.is_store instrs.(i)
                   || Schedule_oracle.is_store instrs.(j))
              then
                [ ("memory", 1,
                   between i j (fun k -> Schedule_oracle.is_store instrs.(k)),
                   2) ]
              else []
            in
            if rules = [] then fail "edge %d -> %d (%d) has no rule" i j d;
            List.iter
              (fun (rule, delay, cut, bound) ->
                if delay > kept && not (cut && path >= bound && bound >= delay)
                then
                  fail "%s edge %d -> %d (%d) dropped, path %d" rule i j delay path)
              rules
          end)
        preds)
    all

let prop_schedule_matches_oracle =
  QCheck.Test.make ~count:100
    ~name:"nearest-edge schedules match the all-pairs oracle" seed_arb
    (fun seed ->
      let kernel = Gen_prog.gen_kernel seed in
      let ( let* ) l f = List.iter f l in
      (let* unroll = [ 1; 4 ] in
      let* opt = [ 0; 2 ] in
      let unrolled, _ = Vmht_ir.Ast_unroll.unroll_kernel ~factor:unroll kernel in
      let f = Vmht_ir.Lower.lower_kernel unrolled in
      ignore
        (Vmht_ir.Pass_manager.optimize
           ~schedule:
             (Vmht.Config.schedule (Vmht.Config.with_opt_level Vmht.Config.default opt))
           f);
      let regs = Schedule.regs f in
      let* banks = [ 1; 2; 4 ] in
      let mem = Schedule.banked_mem banks in
      let* resources =
        [
          { Schedule.default_resources with Schedule.mem };
          { Schedule.alu = 1; cmp = 1; mul = 1; div = 1; shift = 1; mem };
        ]
      in
      let lib = Schedule.schedule_func ~resources f in
      let oracle = Schedule_oracle.schedule_func ~resources f in
      List.iter2 (check_block_against_oracle ~banked:(banks > 1) regs)
        lib.Schedule.blocks oracle.Schedule.blocks);
      true)

(* A write nothing reads before the next write to its register: only
   the WAW edge orders the two, and its delay covers the first
   writer's longer latency (a division's 16 cycles, a multiply's 3).
   Optimized random kernels rarely keep such a write. *)
let test_dead_writes_match_oracle () =
  let open Vmht_ir in
  let f = Ir.create_func ~name:"dead" ~arg_count:2 ~returns_value:true in
  let b = Ir.add_block f (Ir.fresh_label f) in
  let r = Ir.fresh_reg f in
  b.Ir.instrs <-
    [
      Ir.Bin (Vmht_lang.Ast.Div, r, Ir.Reg 0, Ir.Reg 1);
      Ir.Mov (r, Ir.Reg 0);
      Ir.Bin (Vmht_lang.Ast.Mul, r, Ir.Reg 0, Ir.Reg 1);
      Ir.Mov (r, Ir.Imm 3);
    ];
  b.Ir.term <- Ir.Ret (Some (Ir.Reg r));
  let resources = Schedule.default_resources in
  let lib = Schedule.schedule_func ~resources f in
  let oracle = Schedule_oracle.schedule_func ~resources f in
  List.iter2
    (check_block_against_oracle ~banked:false (Schedule.regs f))
    lib.Schedule.blocks oracle.Schedule.blocks;
  (* div at 0, mov at 16, mul at 17, mov at 20 *)
  check_int "writes commit in program order" 21 (Schedule.total_states lib)

(* ----------------------- memory model ----------------------------- *)

(* Bank arbitration in isolation: every non-memory resource is
   plentiful, so co-issue is decided by the bank model alone. *)
let ample_mem mem = { Schedule.unlimited_resources with Schedule.mem = mem }

let mem_peak mem src =
  let s = schedule_of ~resources:(ample_mem mem) (Parser.parse_kernel src) in
  Schedule.validate s;
  Schedule.max_concurrency s Optypes.Mem

let test_bank_arbitration () =
  (* Indices 1/2/3 keep every address chain one add deep, so both
     loads become ready in the same cycle and the bank model alone
     decides co-issue. *)
  let adjacent = "kernel f(m: int*) : int { return m[1] + m[2]; }" in
  let stride2 = "kernel f(m: int*) : int { return m[1] + m[3]; }" in
  let unknown = "kernel f(m: int*, i: int, j: int) : int { return m[i] + m[j]; }" in
  check_int "flat single port serializes" 1
    (mem_peak (Schedule.flat_mem 1) adjacent);
  check_int "adjacent words co-issue on 2 banks" 2
    (mem_peak (Schedule.banked_mem 2) adjacent);
  check_int "stride 2 collides on 2 banks" 1
    (mem_peak (Schedule.banked_mem 2) stride2);
  check_int "stride 2 co-issues on 4 banks" 2
    (mem_peak (Schedule.banked_mem 4) stride2);
  check_int "statically-unknown pair serializes" 1
    (mem_peak (Schedule.banked_mem 4) unknown)

let prop_banked_accel_matches_reference =
  QCheck.Test.make ~count:120
    ~name:"banked accelerator matches AST semantics (banks x unroll)"
    seed_arb (fun seed ->
      let kernel = Gen_prog.gen_kernel seed in
      let banks = [| 1; 2; 4 |].(seed mod 3) in
      let unroll = [| 1; 2; 4 |].(seed / 3 mod 3) in
      let resources =
        {
          Schedule.default_resources with
          Schedule.mem = Schedule.banked_mem ~ports_per_bank:2 banks;
        }
      in
      let f = Vmht_ir.Lower.lower_kernel kernel in
      ignore (Vmht_ir.Pass_manager.optimize f);
      (match Schedule.validate (Schedule.schedule_func ~resources f) with
       | () -> ()
       | exception Failure msg -> QCheck.Test.fail_report msg);
      let a = seed mod 11 and b = seed mod 7 in
      let reference, ret_ref = Gen_prog.reference_run kernel ~a ~b in
      let data = Array.init Gen_prog.mem_words (fun i -> (i * 37) mod 101) in
      let ret, _ =
        accel_run ~resources ~unroll
          ~ports:(Schedule.mem_total_ports resources.Schedule.mem)
          kernel ~data ~args:[ 0; a; b ]
      in
      ret = ret_ref && data = reference)

let test_multibank_strictly_faster () =
  List.iter
    (fun name ->
      let w = Vmht_workloads.Registry.find name in
      let cycles banks =
        let config =
          Vmht.Config.with_banks
            (Vmht.Config.with_unroll Vmht.Config.default 4)
            banks
        in
        let o = Vmht_eval.Common.run ~config Vmht_eval.Common.Vm w ~size:256 in
        check_bool (name ^ " correct") true o.Vmht_eval.Common.correct;
        Vmht_eval.Common.cycles o
      in
      check_bool
        (Printf.sprintf "%s: 4 banks strictly faster than 1" name)
        true
        (cycles 4 < cycles 1))
    [ "saxpy"; "stencil3" ]

let suite =
  [
    Alcotest.test_case "schedule: valid" `Quick test_schedule_valid;
    Alcotest.test_case "schedule: mem port limit" `Quick
      test_schedule_respects_mem_port;
    Alcotest.test_case "schedule: unlimited not slower" `Quick
      test_unlimited_not_slower;
    Alcotest.test_case "schedule: div latency" `Quick
      test_div_latency_in_makespan;
    Alcotest.test_case "bind: counts" `Quick test_bind_counts;
    Alcotest.test_case "bind: covers peaks" `Quick test_bind_respects_schedule;
    Alcotest.test_case "area: positive" `Quick test_area_positive;
    Alcotest.test_case "area: grows with unroll" `Quick
      test_area_grows_with_unroll;
    Alcotest.test_case "accel: vecadd" `Quick test_accel_vecadd;
    Alcotest.test_case "accel: unrolled matches interp" `Quick
      test_accel_matches_interp_unrolled;
    Alcotest.test_case "accel: timed port stalls" `Quick
      test_accel_timed_port_stalls;
    Alcotest.test_case "accel: dual port overlaps" `Quick
      test_dual_port_overlaps;
    Alcotest.test_case "verilog: emission" `Quick test_verilog_emission;
    Alcotest.test_case "mem model: bank arbitration" `Quick
      test_bank_arbitration;
    Alcotest.test_case "mem model: multi-bank strictly faster" `Quick
      test_multibank_strictly_faster;
    QCheck_alcotest.to_alcotest prop_accel_matches_reference;
    QCheck_alcotest.to_alcotest prop_banked_accel_matches_reference;
    QCheck_alcotest.to_alcotest prop_schedule_always_valid;
    QCheck_alcotest.to_alcotest prop_dual_port_equivalence;
    QCheck_alcotest.to_alcotest prop_unroll_accel_equivalence;
    QCheck_alcotest.to_alcotest prop_schedule_matches_oracle;
    Alcotest.test_case "schedule: dead writes match the oracle" `Quick
      test_dead_writes_match_oracle;
  ]
