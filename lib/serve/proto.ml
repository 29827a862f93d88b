type mode = Sw | Vm | Dma

let mode_name = function Sw -> "sw" | Vm -> "vm" | Dma -> "dma"

type job =
  | Synthesize of {
      kernel : Vmht_lang.Ast.kernel;
      style : Vmht.Wrapper.style;
      config : Vmht.Config.t;
    }
  | Execute of {
      workload : string;
      mode : mode;
      size : int;
      config : Vmht.Config.t;
    }

let synthesis_key = function
  | Synthesize { kernel; style; config } ->
    Some (Vmht.Flow.cache_key config style kernel)
  | Execute _ -> None

(* The keys each op takes.  A key outside its op's list rejects the
   line, so a misspelt or misplaced field never falls back to a default
   unseen. *)
let op_keys =
  [
    ( "synth",
      [ "op"; "workload"; "source"; "name"; "style"; "unroll"; "opt"; "tlb" ] );
    ("run", [ "op"; "workload"; "mode"; "size"; "unroll"; "opt"; "tlb" ]);
  ]

let job_of_line line =
  let module J = Vmht_obs.Json in
  let ( let* ) = Result.bind in
  let reject fmt = Printf.ksprintf (fun msg -> Error (`Request msg)) fmt in
  let if_some set v config =
    match v with Some v -> set config v | None -> config
  in
  match J.of_string line with
  | exception J.Parse_error msg -> Error (`Frontend msg)
  | J.Obj fields -> (
    (* [None] when the key is absent; a present key must convert. *)
    let field key conv expected =
      match List.assoc_opt key fields with
      | None -> Ok None
      | Some v -> (
        match conv v with
        | Some x -> Ok (Some x)
        | None -> reject "%S must be %s" key expected)
    in
    let str key = field key J.to_str "a string" in
    let int key = field key J.to_int "an integer" in
    let choice key name values =
      let choices = List.map (fun v -> (name v, v)) values in
      field key
        (fun v -> Option.bind (J.to_str v) (fun s -> List.assoc_opt s choices))
        ("one of "
        ^ String.concat ", "
            (List.map (fun (n, _) -> Printf.sprintf "%S" n) choices))
    in
    let workload wname =
      match Vmht_workloads.Registry.find wname with
      | w -> Ok w
      | exception Not_found -> reject "unknown workload %S" wname
    in
    (* A key that repeats an earlier one, found in one pass: a line's
       length is the client's to choose. *)
    let seen = Hashtbl.create 8 in
    let repeated (k, _) =
      Hashtbl.mem seen k || (Hashtbl.replace seen k (); false)
    in
    match List.find_opt repeated fields with
    | Some (k, _) -> reject "duplicate key %S" k
    | None -> (
      let* op = str "op" in
      match Option.map (fun op -> (op, List.assoc_opt op op_keys)) op with
      | None -> reject "missing \"op\""
      | Some (op, None) -> reject "unknown op %S" op
      | Some (op, Some keys) -> (
        match List.find_opt (fun (k, _) -> not (List.mem k keys)) fields with
        | Some (k, _) -> reject "unknown key %S for op %S" k op
        | None -> (
          let* unroll = int "unroll" in
          let* opt = int "opt" in
          let* tlb = int "tlb" in
          (* An unroll factor or optimization level out of range, and
             the TLB geometry the SoC would refuse, refused for
             synthesis too (with the message [vmht run] gives), so no
             reply prices hardware that cannot exist and no line
             synthesizes an unroll without bound. *)
          let* config =
            match
              let config =
                Vmht.Config.default
                |> if_some Vmht.Config.with_unroll unroll
                |> if_some Vmht.Config.with_opt_level opt
                |> if_some Vmht.Config.with_tlb_entries tlb
              in
              Vmht_vm.Tlb.validate config.Vmht.Config.mmu.Vmht_vm.Mmu.tlb;
              config
            with
            | config -> Ok config
            | exception Invalid_argument msg -> Error (`Request msg)
          in
          let* wname = str "workload" in
          match op with
          | "synth" -> (
            let* style =
              choice "style" Vmht.Wrapper.style_name
                [ Vmht.Wrapper.Vm_iface; Vmht.Wrapper.Dma_iface ]
            in
            let style = Option.value style ~default:Vmht.Wrapper.Vm_iface in
            let* source = str "source" in
            let* name = str "name" in
            match (wname, source) with
            | Some wname, _ ->
              let* w = workload wname in
              Ok
                (Synthesize
                   { kernel = Vmht_workloads.Workload.kernel w; style; config })
            | None, Some source -> (
              match Vmht.Flow.frontend_program source with
              | Error e -> Error (`Frontend (Vmht.Flow.error_to_string e))
              | Ok [] -> reject "source contains no kernels"
              | Ok (first :: _ as program) -> (
                let kernel =
                  match name with
                  | None -> Some first
                  | Some n ->
                    List.find_opt
                      (fun (k : Vmht_lang.Ast.kernel) ->
                        k.Vmht_lang.Ast.kname = n)
                      program
                in
                match kernel with
                | None -> reject "no kernel with the requested name"
                | Some kernel -> Ok (Synthesize { kernel; style; config })))
            | None, None -> reject "synth needs \"workload\" or \"source\"")
          | _ (* run *) -> (
            let* mode = choice "mode" mode_name [ Sw; Vm; Dma ] in
            let* size = int "size" in
            match wname with
            | None -> reject "run needs \"workload\""
            | Some wname ->
              let* w = workload wname in
              Ok
                (Execute
                   {
                     workload = wname;
                     mode = Option.value mode ~default:Vm;
                     size =
                       Option.value size
                         ~default:w.Vmht_workloads.Workload.default_size;
                     config;
                   }))))))
  | _ -> reject "a request must be a JSON object"

type request = {
  rid : int;
  deadline_ms : int option;
  job : job;
}

type outcome =
  | Synthesized of {
      kname : string;
      states : int;
      total_area : Vmht_hls.Optypes.area;
      verilog_bytes : int;
    }
  | Executed of { cycles : int; correct : bool; ret : int option }
  | Failed of string

type reply = { rid : int; outcome : outcome }

let outcome_to_string = function
  | Synthesized { kname; states; total_area = a; verilog_bytes } ->
    Printf.sprintf
      "synthesized %s: %d states, %d LUT %d FF %d DSP %d BRAM, %d bytes of \
       Verilog"
      kname states a.Vmht_hls.Optypes.lut a.ff a.dsp a.bram verilog_bytes
  | Executed { cycles; correct; ret } ->
    Printf.sprintf "executed: %d cycles, ret %s, %s" cycles
      (match ret with Some r -> string_of_int r | None -> "-")
      (if correct then "correct" else "MISMATCH")
  | Failed msg -> Printf.sprintf "failed: %s" msg

(* --- framing ------------------------------------------------------- *)

let write_all fd buf =
  let n = Bytes.length buf in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd buf !off (n - !off)
  done

(* [None] on EOF at any point — a half-frame from a peer that died
   mid-write is EOF, not an exception. *)
let really_read fd n =
  let buf = Bytes.create n in
  let off = ref 0 in
  let eof = ref false in
  while (not !eof) && !off < n do
    match Unix.read fd buf !off (n - !off) with
    | 0 -> eof := true
    | k -> off := !off + k
  done;
  if !eof then None else Some buf

let write_msg fd v =
  let payload = Marshal.to_bytes v [] in
  let hdr = Bytes.create 8 in
  Bytes.set_int64_le hdr 0 (Int64.of_int (Bytes.length payload));
  write_all fd hdr;
  write_all fd payload

let read_msg fd =
  match really_read fd 8 with
  | None -> None
  | Some hdr -> (
    let n = Int64.to_int (Bytes.get_int64_le hdr 0) in
    match really_read fd n with
    | None -> None
    | Some payload -> Some (Marshal.from_bytes payload 0))
