module Flow = Vmht.Flow

(* Any change to a type inside a stored entry (the kernel AST, the
   [Flow.hw_thread] and everything it holds: FSM, schedule, binding,
   plans) bumps the version.  Keys digest only the input and the
   kernel, so without a bump a new build would unmarshal an old
   build's entries under unchanged keys as the new type.  Version 2:
   [Bind.t]'s unit map became per-label arrays. *)
let format_version = "vmht-store/2"

type t = {
  dir : string;
  hits : int Atomic.t;
  misses : int Atomic.t;
  saves : int Atomic.t;
  corrupt : int Atomic.t;
  version_skew : int Atomic.t;
}

type stats = {
  hits : int;
  misses : int;
  saves : int;
  corrupt : int;
  version_skew : int;
}

let default_dir () =
  match Sys.getenv_opt "VMHT_STORE_DIR" with
  | Some d when d <> "" -> d
  | _ -> (
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some c when c <> "" -> Filename.concat c (Filename.concat "vmht" "store")
    | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" ->
        Filename.concat h (Filename.concat ".cache" (Filename.concat "vmht" "store"))
      | _ -> "_vmht_store"))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let unwritable path msg =
  Error (Flow.Store_error { path; fault = Flow.Store_unwritable msg })

let open_ ?dir () =
  let dir = match dir with Some d -> d | None -> default_dir () in
  match
    mkdir_p dir;
    (* Probe writability now so the CLI can fail with a clean exit code
       instead of erroring on the first save deep inside a batch. *)
    let probe =
      Filename.concat dir (Printf.sprintf ".probe.%d" (Unix.getpid ()))
    in
    let oc = open_out_bin probe in
    close_out oc;
    Sys.remove probe
  with
  | () ->
    Ok
      {
        dir;
        hits = Atomic.make 0;
        misses = Atomic.make 0;
        saves = Atomic.make 0;
        corrupt = Atomic.make 0;
        version_skew = Atomic.make 0;
      }
  | exception Sys_error msg -> unwritable dir msg
  | exception Unix.Unix_error (e, fn, arg) ->
    unwritable dir (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e))

let dir t = t.dir

let path t ~key = Filename.concat t.dir key

let contains t ~key = Sys.file_exists (path t ~key)

(* --- entry codec ---------------------------------------------------

   version line \n payload-digest line \n marshalled (kernel, hw).
   The digest is checked before [Marshal.from_string] ever runs, so a
   damaged payload cannot crash the unmarshaller. *)

let encode_entry kernel (hw : Flow.hw_thread) =
  let payload = Marshal.to_string (kernel, hw) [] in
  String.concat "\n"
    [ format_version; Digest.to_hex (Digest.string payload); payload ]

let decode_entry s =
  let corrupt msg = Error (Flow.Store_corrupt msg) in
  match String.index_opt s '\n' with
  | None -> corrupt "no version line"
  | Some nl1 -> (
    let version = String.sub s 0 nl1 in
    if version <> format_version then Error (Flow.Store_version_mismatch version)
    else
      match String.index_from_opt s (nl1 + 1) '\n' with
      | None -> corrupt "no digest line"
      | Some nl2 -> (
        let digest = String.sub s (nl1 + 1) (nl2 - nl1 - 1) in
        let payload = String.sub s (nl2 + 1) (String.length s - nl2 - 1) in
        if Digest.to_hex (Digest.string payload) <> digest then
          corrupt "payload checksum mismatch"
        else
          match
            (Marshal.from_string payload 0
              : Vmht_lang.Ast.kernel * Flow.hw_thread)
          with
          | entry -> Ok entry
          | exception _ -> corrupt "unmarshal failure"))

(* ------------------------------------------------------------------ *)

let read_file path =
  match open_in_bin path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | s -> Some s
        | exception End_of_file -> Some "" (* truncated to nothing *))
  | exception Sys_error _ -> None

let load t ~key kernel =
  let file = path t ~key in
  match read_file file with
  | None ->
    Atomic.incr t.misses;
    None
  | Some raw -> (
    let drop counter =
      Atomic.incr counter;
      (try Sys.remove file with Sys_error _ -> ());
      None
    in
    match decode_entry raw with
    | Error (Flow.Store_version_mismatch _) -> drop t.version_skew
    | Error _ -> drop t.corrupt
    | Ok (k, hw) ->
      if k = kernel then begin
        Atomic.incr t.hits;
        Some hw
      end
      else
        (* A key collision between different kernels: treat the entry
           as foreign and re-synthesize. *)
        drop t.misses)

let save t ~key kernel hw =
  let file = path t ~key in
  let tmp =
    Filename.concat t.dir (Printf.sprintf ".%s.tmp.%d" key (Unix.getpid ()))
  in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (encode_entry kernel hw));
    Unix.rename tmp file
  with
  | () ->
    Atomic.incr t.saves;
    Ok ()
  | exception Sys_error msg ->
    (try Sys.remove tmp with Sys_error _ -> ());
    unwritable file msg
  | exception Unix.Unix_error (e, fn, arg) ->
    (try Sys.remove tmp with Sys_error _ -> ());
    unwritable file
      (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e))

let backend t =
  {
    Flow.store_load = (fun ~key kernel -> load t ~key kernel);
    store_save = (fun ~key kernel hw -> save t ~key kernel hw);
  }

let install t = Flow.set_store (Some (backend t))

let stats (t : t) =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    saves = Atomic.get t.saves;
    corrupt = Atomic.get t.corrupt;
    version_skew = Atomic.get t.version_skew;
  }

let reset_stats (t : t) =
  Atomic.set t.hits 0;
  Atomic.set t.misses 0;
  Atomic.set t.saves 0;
  Atomic.set t.corrupt 0;
  Atomic.set t.version_skew 0
