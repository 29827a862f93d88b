module Optypes = Vmht_hls.Optypes

type device = {
  device_name : string;
  lut : int;
  ff : int;
  dsp : int;
  bram : int;
}

let zynq_7020 =
  { device_name = "zynq-7020"; lut = 53200; ff = 106400; dsp = 220; bram = 280 }

let zynq_7045 =
  {
    device_name = "zynq-7045";
    lut = 218600;
    ff = 437200;
    dsp = 900;
    bram = 1090;
  }

type placement = {
  thread : Flow.hw_thread;
  instances : int;
  mmio_base : int;
}

type design = {
  device : device;
  placements : placement list;
  static_area : Optypes.area;
  total_area : Optypes.area;
  fits : bool;
  utilization : (string * float) list;
}

(* AXI interconnect, host (PS-PL) bridge, clock/reset infrastructure. *)
let static_overhead = { Optypes.lut = 2100; ff = 2600; dsp = 0; bram = 4 }

let mmio_base0 = 0x4000_0000

let mmio_stride = 0x1000

let fits_device device (a : Optypes.area) =
  a.Optypes.lut <= device.lut
  && a.Optypes.ff <= device.ff
  && a.Optypes.dsp <= device.dsp
  && a.Optypes.bram <= device.bram

let utilization_of device (a : Optypes.area) =
  let frac used cap = if cap = 0 then 0. else float_of_int used /. float_of_int cap in
  [
    ("LUT", frac a.Optypes.lut device.lut);
    ("FF", frac a.Optypes.ff device.ff);
    ("DSP", frac a.Optypes.dsp device.dsp);
    ("BRAM", frac a.Optypes.bram device.bram);
  ]

let total_of placements =
  List.fold_left
    (fun acc p ->
      Optypes.add_area acc
        (Optypes.scale_area p.instances p.thread.Flow.total_area))
    static_overhead placements

let top_verilog { device; placements; _ } =
  let buf = Buffer.create 2048 in
  let bp fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bp "// System top generated by vmht sysgen — target %s\n" device.device_name;
  bp "module system_top (\n";
  bp "  input wire clk,\n  input wire rst,\n";
  bp "  // host (PS) interface\n";
  bp "  input  wire [31:0] s_axi_awaddr,\n  input  wire [63:0] s_axi_wdata,\n";
  bp "  output wire [63:0] s_axi_rdata\n);\n\n";
  bp "  // shared memory bus to DRAM + page tables\n";
  bp "  wire [63:0] m_axi_addr, m_axi_wdata, m_axi_rdata;\n\n";
  List.iter
    (fun p ->
      let name = p.thread.Flow.kernel.Vmht_lang.Ast.kname in
      for i = 0 to p.instances - 1 do
        bp "  // %s instance %d: MMIO 0x%08x (%s interface)\n" name i
          (p.mmio_base + (i * mmio_stride))
          (Wrapper.style_name p.thread.Flow.style);
        bp "  ht_%s u_%s_%d (\n" name name i;
        bp "    .clk(clk), .rst(rst),\n";
        bp "    .start(start_%s_%d), .done(done_%s_%d),\n" name i name i;
        bp "    .mem_addr(m_axi_addr), .mem_rdata(m_axi_rdata)\n";
        bp "    /* remaining ports elided: see the thread's module */\n";
        bp "  );\n\n"
      done)
    placements;
  bp "endmodule\n";
  Buffer.contents buf

let compose ?(device = zynq_7020) threads =
  let _, placements =
    List.fold_left
      (fun (next_base, acc) (thread, instances) ->
        ( next_base + (instances * mmio_stride),
          { thread; instances; mmio_base = next_base } :: acc ))
      (mmio_base0, []) threads
  in
  let placements = List.rev placements in
  let total_area = total_of placements in
  {
    device;
    placements;
    static_area = static_overhead;
    total_area;
    fits = fits_device device total_area;
    utilization = utilization_of device total_area;
  }

let max_instances ?(device = zynq_7020) thread =
  let rec grow n =
    let d = compose ~device [ (thread, n + 1) ] in
    if d.fits then grow (n + 1) else n
  in
  grow 0

let summary d =
  let buf = Buffer.create 1024 in
  let bp fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bp "system design on %s: %s\n" d.device.device_name
    (if d.fits then "FITS" else "DOES NOT FIT");
  List.iter
    (fun p ->
      bp "  %dx %-14s [%s]  %s each, MMIO from 0x%08x\n" p.instances
        p.thread.Flow.kernel.Vmht_lang.Ast.kname
        (Wrapper.style_name p.thread.Flow.style)
        (Optypes.area_to_string p.thread.Flow.total_area)
        p.mmio_base)
    d.placements;
  bp "  static infrastructure: %s\n" (Optypes.area_to_string d.static_area);
  bp "  total: %s\n" (Optypes.area_to_string d.total_area);
  List.iter
    (fun (resource, frac) -> bp "  %-5s %5.1f%%\n" resource (100. *. frac))
    d.utilization;
  Buffer.contents buf
