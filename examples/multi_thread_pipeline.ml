(* A software/hardware pipeline sharing one virtual address space.

     dune exec examples/multi_thread_pipeline.exe

   Stage 1 (software thread): generate a frame of sensor samples.
   Stage 2 (hardware thread): smooth it with a 3-point stencil.
   Stage 3 (hardware thread): histogram the smoothed frame.

   The stages hand each other nothing but virtual base addresses —
   exactly the pthreads idiom, with two of the threads in "fabric".
   Double buffering: stage 1 produces frame k+1 while the hardware
   works on frame k; a barrier separates generations. *)

open Vmht
module Hthreads = Vmht_rt.Hthreads
module Addr_space = Vmht_vm.Addr_space

let frames = 4

let n = 2048

let word = 8

let stencil_src = (Vmht_workloads.Registry.find "stencil3").Vmht_workloads.Workload.source

let hist_src = (Vmht_workloads.Registry.find "histogram").Vmht_workloads.Workload.source

let () =
  let config = Config.default in
  let soc = Soc.create config in
  let aspace = Soc.aspace soc in
  let stencil =
    Flow.run_exn
      (Flow.Request.of_kernel ~config
         (Vmht_lang.Parser.parse_kernel stencil_src))
  in
  let hist =
    Flow.run_exn
      (Flow.Request.of_kernel ~config
         (Vmht_lang.Parser.parse_kernel hist_src))
  in
  let raw = Addr_space.alloc aspace ~bytes:(n * word) in
  let smooth = Addr_space.alloc aspace ~bytes:(n * word) in
  let histo = Addr_space.alloc aspace ~bytes:(256 * word) in
  let rng = Vmht_util.Rng.create 7 in

  let produce frame =
    (* The "sensor": CPU-side writes into the shared frame buffer. *)
    for i = 0 to n - 1 do
      Addr_space.store_word aspace
        (raw + (i * word))
        (Vmht_util.Rng.int_range rng 0 1023 + frame)
    done
  in
  let total_cycles =
    Launch.run_to_completion soc (fun () ->
        let t0 = Soc.now soc in
        for frame = 1 to frames do
          produce frame;
          (* Hardware stage 2: smooth.  Runs as its own thread. *)
          let t_sm =
            Hthreads.spawn ~engine:(Soc.engine soc) (fun () ->
                Launch.run_hw soc stencil
                  { Launch.args = [ raw; smooth; n - 1 ]; buffers = [] })
          in
          ignore (Hthreads.join t_sm);
          (* Hardware stage 3: histogram the smoothed frame. *)
          let t_h =
            Hthreads.spawn ~engine:(Soc.engine soc) (fun () ->
                Launch.run_hw soc hist
                  { Launch.args = [ smooth; histo; n ]; buffers = [] })
          in
          ignore (Hthreads.join t_h)
        done;
        Soc.now soc - t0)
  in
  (* Validate: the histogram counts every processed sample. *)
  let total_binned = ref 0 in
  for b = 0 to 255 do
    total_binned := !total_binned + Addr_space.load_word aspace (histo + (b * word))
  done;
  Printf.printf "pipeline processed %d frames of %d samples in %s cycles\n"
    frames n
    (Vmht_util.Table.fmt_int total_cycles);
  Printf.printf "histogram holds %d samples (expected %d)\n" !total_binned
    (frames * n);
  exit (if !total_binned = frames * n then 0 else 1)
