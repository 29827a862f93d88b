(* Multi-process isolation: two processes, two hardware threads, one
   fabric.

     dune exec examples/isolation.exe

   Each process gets its own page table and ASID; the hardware threads
   attached to them can use the *same virtual addresses* for different
   physical data, and a TLB shootdown closes the stale-translation
   window when the kernel unmaps a page. *)

open Vmht
module Addr_space = Vmht_vm.Addr_space
module Mmu = Vmht_vm.Mmu

let sum_kernel =
  {|
kernel sum4(p: int*) : int {
  return p[0] + p[1] + p[2] + p[3];
}
|}

let () =
  let config = Config.default in
  let soc = Soc.create config in
  let space_a = Soc.aspace soc in
  let space_b, asid_b = Soc.create_process soc in

  (* Same allocation order => the two processes use the SAME virtual
     address for their private buffers. *)
  let va = Addr_space.alloc space_a ~bytes:4096 in
  let vb = Addr_space.alloc space_b ~bytes:4096 in
  assert (va = vb);
  for i = 0 to 3 do
    Addr_space.store_word space_a (va + (i * 8)) (100 + i);
    Addr_space.store_word space_b (vb + (i * 8)) (900 + i)
  done;

  let hw = Flow.run_exn (Flow.Request.of_source ~config sum_kernel) in
  let mmu_a = Soc.make_mmu soc in
  let mmu_b = Soc.make_mmu ~aspace:(space_b, asid_b) soc in
  let run mmu =
    let port, flush, _meter = Soc.vm_port_metered soc mmu in
    let r =
      Vmht_hls.Accel.run ~engine:(Soc.engine soc) hw.Flow.fsm ~port
        ~args:[ va ]
    in
    flush ();
    r
  in
  let ra, rb =
    Launch.run_to_completion soc (fun () ->
        let spawn mmu =
          Vmht_rt.Hthreads.spawn ~engine:(Soc.engine soc) (fun () -> run mmu)
        in
        let ta = spawn mmu_a in
        let tb = spawn mmu_b in
        (Vmht_rt.Hthreads.join ta, Vmht_rt.Hthreads.join tb))
  in
  Printf.printf
    "virtual address 0x%x:\n  process A's thread (asid 0) read %s\n\
    \  process B's thread (asid %d) read %s\n"
    va
    (match ra with Some v -> string_of_int v | None -> "?")
    asid_b
    (match rb with Some v -> string_of_int v | None -> "?");
  assert (ra = Some (100 + 101 + 102 + 103));
  assert (rb = Some (900 + 901 + 902 + 903));

  (* The kernel unmaps A's page and shoots the TLBs down; the thread's
     next access faults instead of reading stale data. *)
  Soc.unmap_page soc space_a ~vaddr:va;
  let faulted =
    Launch.run_to_completion soc (fun () ->
        match run mmu_a with
        | _ -> false
        | exception Mmu.Mmu_fault _ -> true)
  in
  Printf.printf "after unmap + shootdown: process A's access %s\n"
    (if faulted then "faults (as it must)" else "DID NOT FAULT");
  exit (if faulted then 0 else 1)
