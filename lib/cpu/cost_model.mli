(** Cycle costs of the simulated in-order scalar CPU.

    The CPU shares the fabric clock with the accelerators (as on a
    Zynq-class SoC after normalizing clock ratios into per-instruction
    costs).  Loads/stores pay the issue cost here plus the timed cache
    access.  The costs are constants: 1 cycle for an ALU operation, a
    comparison, a shift, a move or a load/store issue, 3 for a multiply
    and 20 for a division or remainder. *)

val branch : int
(** Per conditional branch, mispredicts amortized: 2 cycles. *)

val fault_penalty : int
(** Demand-page fault handling on the CPU: 3,000 cycles. *)

val instr_cycles : Vmht_ir.Ir.instr -> int
(** Cost of one instruction, memory access time excluded. *)
