let loop ~handle ~in_fd ~out_fd =
  let running = ref true in
  while !running do
    match Proto.read_msg in_fd with
    | None -> running := false
    | Some (req : Proto.request) -> (
      let outcome =
        try handle req
        with e -> Proto.Failed (Printexc.to_string e)
      in
      match Proto.write_msg out_fd { Proto.rid = req.Proto.rid; outcome } with
      | () -> ()
      | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
        (* Server is gone; nothing left to serve. *)
        running := false)
  done
