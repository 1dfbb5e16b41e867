(** Simulator fast-path A/B benchmark (§ DESIGN 14).

    The other experiments measure the modelled guest; this one measures
    the interpreter itself. Each workload is a real guest loop assembled
    with [Riscv.Asm] and stepped instruction by instruction — once with
    the fast path off, once on. The fast path must be architecturally
    invisible: registers, pc, minstret and the full cycle ledger must
    match exactly between the two arms; only the wall clock may differ. *)

type workload =
  | Rv8_mix  (** mul/xor/store/load/shift/AMO mix, machine mode, bare *)
  | Coremark_mix  (** pointer-chase + CRC-rotate + branchy state machine *)
  | Rv8_mix_paged  (** the rv8 mix in HS mode under an Sv39 megapage *)

val all : workload list
val name : workload -> string

type ab = {
  workload : workload;
  baseline_ips : float;
  fast_ips : float;
  speedup : float;
  identical : bool;
      (** registers, pc, minstret and the full cycle ledger equal between
          the two arms *)
}

val ab_compare : workload -> steps:int -> ab
(** Run [workload] with the fast path off then on; compare. *)

val to_json : steps:int -> ab list -> Metrics.Export.json
(** The BENCH_sim.json document: [steps_per_run] and one [workloads]
    row per A/B. *)
