type schedule = { sname : string; passes : Pass.t list }

let preset sname names =
  { sname; passes = List.map (fun n -> Option.get (Pass.find n)) names }

let o0 = { sname = "O0"; passes = [] }

let o1 = preset "O1" [ "const_fold"; "copy_prop"; "dce"; "simplify_cfg" ]

let o2 =
  preset "O2"
    [
      "const_fold";
      "copy_prop";
      "cse";
      "store_forward";
      "strength_reduce";
      "licm";
      "dce";
      "coalesce";
      "simplify_cfg";
    ]

let of_opt_level n = if n <= 0 then o0 else if n = 1 then o1 else o2

let of_names names =
  let rec resolve acc = function
    | [] -> Ok (List.rev acc)
    | n :: rest -> (
      match Pass.find n with
      | Some p -> resolve (p :: acc) rest
      | None ->
        Error
          (Printf.sprintf "unknown pass %S (known: %s)" n
             (String.concat ", "
                (List.map (fun (p : Pass.t) -> p.name) Pass.all))))
  in
  match resolve [] names with
  | Ok passes -> Ok { sname = "custom:" ^ String.concat "," names; passes }
  | Error _ as e -> e

type pass_stat = { pass : string; runs : int; rewrites : int }

type report = {
  schedule_name : string;
  iterations : int;
  stats : pass_stat list;
  instrs_before : int;
  instrs_after : int;
  blocks_before : int;
  blocks_after : int;
}

(* Process-wide per-pass totals for the bench manifest.  Guarded by a
   mutex because synthesis runs on the domain pool; sums commute, so
   the result is independent of evaluation order. *)
let totals_mutex = Mutex.create ()

let totals_tbl : (string, int * int) Hashtbl.t = Hashtbl.create 16

let account stats =
  Mutex.protect totals_mutex (fun () ->
      List.iter
        (fun s ->
          let runs0, rw0 =
            Option.value (Hashtbl.find_opt totals_tbl s.pass) ~default:(0, 0)
          in
          Hashtbl.replace totals_tbl s.pass (runs0 + s.runs, rw0 + s.rewrites))
        stats)

let totals () =
  Mutex.protect totals_mutex (fun () ->
      Hashtbl.fold (fun p (runs, rw) acc -> (p, runs, rw) :: acc) totals_tbl [])
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  |> List.sort compare

let reset_totals () =
  Mutex.protect totals_mutex (fun () -> Hashtbl.reset totals_tbl)

(* Rounds a schedule may start before it stops short of a fixpoint. *)
let max_iterations = 20

let run sched (f : Ir.func) =
  let instrs_before = Ir.instr_count f in
  let blocks_before = Ir.block_count f in
  (match Verify.run f with
   | () -> ()
   | exception Verify.Error msg -> failwith ("input IR invalid: " ^ msg));
  let n = List.length sched.passes in
  let runs = Array.make n 0 in
  let rewrites = Array.make n 0 in
  let iterations = ref 0 in
  (* Applications in a row that rewrote nothing.  A pass that reports
     no rewrite leaves the IR as it found it, so once every pass of the
     schedule has been quiet in turn, the round under way would end
     with zero rewrites as well: stop there instead of re-applying (and
     re-verifying) passes on IR they have already left alone.
     [iterations] counts rounds started, the one cut short included,
     so it reads as if that round had run to its end. *)
  let quiet = ref 0 in
  let rec round () =
    incr iterations;
    apply 0 sched.passes
  and apply i = function
    | [] -> if !iterations < max_iterations then round ()
    | (p : Pass.t) :: rest ->
      let c = p.run f in
      (match Verify.run f with
       | () -> ()
       | exception Verify.Error msg ->
         failwith
           (Printf.sprintf "pass %s broke the IR invariants: %s" p.name msg));
      runs.(i) <- runs.(i) + 1;
      rewrites.(i) <- rewrites.(i) + c;
      if c = 0 then incr quiet else quiet := 0;
      if !quiet < n then apply (i + 1) rest
  in
  if n > 0 then round ();
  let stats =
    List.mapi
      (fun i (p : Pass.t) ->
        { pass = p.name; runs = runs.(i); rewrites = rewrites.(i) })
      sched.passes
  in
  account stats;
  {
    schedule_name = sched.sname;
    iterations = !iterations;
    stats;
    instrs_before;
    instrs_after = Ir.instr_count f;
    blocks_before;
    blocks_after = Ir.block_count f;
  }

let optimize ?(schedule = o2) f = run schedule f

let rewrites report name =
  match List.find_opt (fun s -> s.pass = name) report.stats with
  | Some s -> s.rewrites
  | None -> 0

(* The header line every emitted module carries, written into the
   caller's buffer: no format string and no intermediate string. *)
let add_report buf r =
  let str = Buffer.add_string buf and int = Vmht_util.Buf.add_int buf in
  str "opt[";
  str r.schedule_name;
  str "]: ";
  int r.iterations;
  str " iter(s), ";
  (match r.stats with
   | [] -> str "no passes"
   | first :: rest ->
     let stat s =
       str s.pass;
       Buffer.add_char buf '=';
       int s.rewrites
     in
     stat first;
     List.iter
       (fun s ->
         Buffer.add_char buf ' ';
         stat s)
       rest);
  str ", instrs ";
  int r.instrs_before;
  str " -> ";
  int r.instrs_after

let report_to_string r =
  let buf = Buffer.create 160 in
  add_report buf r;
  Buffer.contents buf
