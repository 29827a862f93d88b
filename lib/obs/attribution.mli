(** Per-phase cycle attribution for one launched thread.

    Every [Launch] run splits its total cycles into disjoint segments
    that sum exactly to the run's [total_cycles] (a property the test
    suite asserts for every workload in every interface style):

    - [translate]: address-translation pipeline time excluding walks —
      for DMA threads, the host's page pinning;
    - [walk]: hardware page-table walks (or software TLB refills);
    - [fault]: demand-page fault handling;
    - [bus_wait]: queueing for the shared bus behind other masters;
    - [dram]: memory-system service time below translation (bus
      arbitration + DRAM + stream-buffer hits);
    - [compute]: FSM stepping / CPU execution not overlapped with the
      above;
    - [dma_stage]: pin + copy-in staging of a copy-based thread;
    - [drain]: copy-out / write-back / cache maintenance at the end. *)

type t = {
  translate : int;
  walk : int;
  fault : int;
  bus_wait : int;
  dram : int;
  compute : int;
  dma_stage : int;
  drain : int;
}

val zero : t

val total : t -> int
(** Sum of every segment — equals the run's total cycles. *)

val to_list : t -> (string * int) list

val to_json : t -> Json.t

val waterfall : t -> string
(** ASCII waterfall (cumulative horizontal bars) of the non-zero
    segments in timeline order. *)
