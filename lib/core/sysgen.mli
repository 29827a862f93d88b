(** System generation: composing synthesized hardware threads into a
    full SoC design against a concrete device budget.

    This is the "system level" of the flow: given wrapped hardware
    threads (and how many instances of each), it lays out the MMIO
    address map, adds the static infrastructure (interconnect, host
    interface, reset/clock), sums resources against a device, and
    emits a top-level RTL stub that instantiates everything. *)

type device = {
  device_name : string;
  lut : int;
  ff : int;
  dsp : int;
  bram : int; (** 18 Kb halves, as the area model counts them *)
}

val zynq_7020 : device
(** 53,200 LUT / 106,400 FF / 220 DSP / 280 BRAM halves. *)

val zynq_7045 : device
(** 218,600 LUT / 437,200 FF / 900 DSP / 1,090 BRAM halves. *)

type placement = {
  thread : Flow.hw_thread;
  instances : int;
  mmio_base : int; (** control registers of instance 0 *)
}

type design = {
  device : device;
  placements : placement list;
  static_area : Vmht_hls.Optypes.area;
  total_area : Vmht_hls.Optypes.area;
  fits : bool;
  utilization : (string * float) list; (** resource -> fraction used *)
}

val static_overhead : Vmht_hls.Optypes.area
(** Bus interconnect, host bridge, clocking — paid once per design. *)

val compose : ?device:device -> (Flow.hw_thread * int) list -> design
(** Lay out [(thread, instance-count)] pairs into a design.  Never
    raises on over-budget; [fits]/[utilization] report it. *)

val max_instances : ?device:device -> Flow.hw_thread -> int
(** How many instances of one thread the device can host beside the
    static infrastructure — the thread-density metric of Table 6. *)

val summary : design -> string

val top_verilog : design -> string
(** The top-level RTL stub: one instance per copy of each thread,
    about 300 bytes each, built when called. *)
