type series = { label : string; points : (float * float) list }

let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@'; '%'; '&' |]

(* Chart area in characters. *)
let width = 64

let height = 18

let render ?(logx = false) ?(logy = false) ~title ~xlabel ~ylabel series =
  let tx v = if logx then log10 v else v in
  let ty v = if logy then log10 v else v in
  let keep (x, y) = (not (logx && x <= 0.)) && not (logy && y <= 0.) in
  let pts =
    List.concat_map (fun s -> List.filter keep s.points) series
    |> List.map (fun (x, y) -> (tx x, ty y))
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (title ^ "\n");
  (match pts with
   | [] -> Buffer.add_string buf "  (no data)\n"
   | (x0, y0) :: _ ->
     let fold f init = List.fold_left f init pts in
     let xmin = fold (fun a (x, _) -> min a x) x0 in
     let xmax = fold (fun a (x, _) -> max a x) x0 in
     let ymin = fold (fun a (_, y) -> min a y) y0 in
     let ymax = fold (fun a (_, y) -> max a y) y0 in
     let xspan = if xmax -. xmin = 0. then 1. else xmax -. xmin in
     let yspan = if ymax -. ymin = 0. then 1. else ymax -. ymin in
     let grid = Array.make_matrix height width ' ' in
     let plot_series idx s =
       let g = glyphs.(idx mod Array.length glyphs) in
       List.iter
         (fun (x, y) ->
           if keep (x, y) then begin
             let x = tx x and y = ty y in
             let cx =
               int_of_float ((x -. xmin) /. xspan *. float_of_int (width - 1))
             in
             let cy =
               height - 1
               - int_of_float ((y -. ymin) /. yspan *. float_of_int (height - 1))
             in
             if cx >= 0 && cx < width && cy >= 0 && cy < height then
               grid.(cy).(cx) <- g
           end)
         s.points
     in
     List.iteri plot_series series;
     let untx v = if logx then (10. ** v) else v in
     let unty v = if logy then (10. ** v) else v in
     Buffer.add_string buf
       (Printf.sprintf "  %s (top=%.4g, bottom=%.4g)%s\n" ylabel (unty ymax)
          (unty ymin)
          (if logy then " [log]" else ""));
     Array.iter
       (fun row ->
         Buffer.add_string buf "  |";
         Array.iter (Buffer.add_char buf) row;
         Buffer.add_char buf '\n')
       grid;
     Buffer.add_string buf ("  +" ^ String.make width '-' ^ "\n");
     Buffer.add_string buf
       (Printf.sprintf "   %s: %.4g .. %.4g%s\n" xlabel (untx xmin) (untx xmax)
          (if logx then " [log]" else "")));
  List.iteri
    (fun i s ->
      Buffer.add_string buf
        (Printf.sprintf "   %c = %s\n" glyphs.(i mod Array.length glyphs)
           s.label))
    series;
  (* Data listing so the figure's numbers are machine-readable too. *)
  List.iter
    (fun s ->
      Buffer.add_string buf (Printf.sprintf "   data[%s]:" s.label);
      List.iter
        (fun (x, y) -> Buffer.add_string buf (Printf.sprintf " (%g, %g)" x y))
        s.points;
      Buffer.add_char buf '\n')
    series;
  Buffer.contents buf

let waterfall ~title ~unit segments =
  let width = 48 in
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0. segments in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%s (total %.0f %s)\n" title total unit);
  if total <= 0. then Buffer.add_string buf "  (no cycles attributed)\n"
  else begin
    let label_w =
      List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 segments
    in
    (* Cumulative offsets: each segment's bar starts where the previous
       one ended, so the chart reads as a timeline left to right. *)
    let cells v = v /. total *. float_of_int width in
    let _ =
      List.fold_left
        (fun offset (label, v) ->
          let start = int_of_float (Float.round (cells offset)) in
          let stop = int_of_float (Float.round (cells (offset +. v))) in
          let start = min start width and stop = min stop width in
          (* Non-zero segments always get at least one cell. *)
          let stop = if v > 0. && stop <= start then start + 1 else stop in
          let stop = min stop width in
          let bar =
            String.make start ' '
            ^ String.make (max 0 (stop - start)) '#'
            ^ String.make (max 0 (width - stop)) ' '
          in
          Buffer.add_string buf
            (Printf.sprintf "  %-*s |%s| %12.0f  %5.1f%%\n" label_w label bar
               v
               (100. *. v /. total));
          offset +. v)
        0. segments
    in
    ()
  end;
  Buffer.contents buf
