(* The SM's cost compositions (see DESIGN.md §5): pure sums of
   [Riscv.Cost] units, one per path the SM charges. The executed
   handlers charge exactly these, and the event-priced experiments price
   with them, so the two never drift apart. *)

open Riscv
open Sm_state

type mmio_kind = No_mmio | Shared_mmio | Unshared_mmio

let long_path_entry_extra c =
  c.Cost.sechyp_trap + c.Cost.sechyp_xret + c.Cost.sechyp_ctx
  + c.Cost.sechyp_dispatch_entry + c.Cost.sechyp_barrier

let long_path_exit_extra c =
  c.Cost.sechyp_trap + c.Cost.sechyp_xret + c.Cost.sechyp_ctx
  + c.Cost.sechyp_dispatch_exit + c.Cost.sechyp_barrier

(* [pmp]/[tlb_flush] record the work the switch actually performed: a
   skipped PMP toggle (epoch cache) or a retained TLB costs nothing.
   The defaults describe the steady-state path of the configured mode,
   so [path_cost] stays honest in both. *)
let entry_cost ?(pmp = true) ?tlb_flush c cfg ~mmio ~validated_ptes =
  let tlb_flush = Option.value tlb_flush ~default:(not cfg.tlb_retention) in
  let base =
    c.Cost.trap_entry + c.Cost.gpr_all + c.Cost.csr_ctx_host
    + c.Cost.deleg_reprogram
    + (if pmp then c.Cost.pmp_toggle else 0)
    + c.Cost.hgatp_write
    + (if tlb_flush then c.Cost.tlb_full_flush else 0)
    + c.Cost.csr_ctx_guest + c.Cost.gpr_all
    + c.Cost.vcpu_integrity + c.Cost.irq_scan + c.Cost.timer_prog
    + c.Cost.xret
  in
  let mmio_extra =
    match mmio with
    | No_mmio -> 0
    | Shared_mmio ->
        (4 * (c.Cost.shared_item_load + c.Cost.check_after_load))
        + c.Cost.resume_merge
    | Unshared_mmio ->
        (2 * c.Cost.ecall_roundtrip)
        + (6 * c.Cost.secure_copy_item)
        + c.Cost.resume_merge
  in
  let long = if cfg.long_path then long_path_entry_extra c else 0 in
  base + mmio_extra + long + (validated_ptes * 2)

let exit_cost ?(pmp = true) ?tlb_flush c cfg ~mmio =
  let tlb_flush = Option.value tlb_flush ~default:(not cfg.tlb_retention) in
  let base =
    c.Cost.trap_entry + c.Cost.gpr_all + c.Cost.csr_ctx_guest
    + c.Cost.exit_cause_decode
    + (if pmp then c.Cost.pmp_toggle else 0)
    + c.Cost.hgatp_write
    + (if tlb_flush then c.Cost.tlb_full_flush else 0)
    + c.Cost.gpr_all + c.Cost.csr_ctx_host
    + c.Cost.deleg_reprogram + c.Cost.xret
  in
  let mmio_extra =
    match mmio with
    | No_mmio -> 0
    | Shared_mmio -> (4 * c.Cost.shared_item_store) + c.Cost.shared_classify
    | Unshared_mmio ->
        c.Cost.ecall_roundtrip
        + (8 * c.Cost.secure_copy_item)
        + c.Cost.unshared_validate
  in
  let long = if cfg.long_path then long_path_exit_extra c else 0 in
  base + mmio_extra + long

(* Stage 3's extra over stage 2: the expansion round trip — exit to the
   host, its registration work, the region setup (PMP resync plus the
   global fence, on one hart) and the re-entry. Each part is charged
   where it runs: cvm_exit, expand_host_work, sm_region_setup,
   cvm_entry. *)
let expansion_round_trip c cfg =
  exit_cost c cfg ~mmio:No_mmio
  + entry_cost c cfg ~mmio:No_mmio ~validated_ptes:0
  + c.Cost.expand_host_work + c.Cost.pmp_toggle + c.Cost.pmp_toggle
  + c.Cost.tlb_full_flush

(* One private fault, trap to xret. A page the SM already holds zeroed
   ([prezeroed]) skips the scrub; stage 2 adds the block grab; stage 3
   adds the expansion round trip. *)
let fault_composition ?(prezeroed = false) c cfg stage =
  let base =
    c.Cost.trap_entry + c.Cost.sm_fault_decode + c.Cost.sm_fault_validate
    + c.Cost.page_cache_alloc
    + (if prezeroed then 0 else c.Cost.page_scrub)
    + (3 * c.Cost.page_walk_step)
    + c.Cost.gstage_map + c.Cost.sm_fault_bookkeeping + c.Cost.xret
  in
  match stage with
  | Hier_alloc.Stage1 -> base
  | Hier_alloc.Stage2 -> base + c.Cost.block_grab
  | Hier_alloc.Stage3_retry ->
      base + c.Cost.block_grab + expansion_round_trip c cfg

let fault_cost ?prezeroed t stage =
  fault_composition ?prezeroed t.cost t.cfg stage

(* One coalesced MMIO store, trap to xret: classify, post the store's
   items to the shared-vCPU ring, one xret. No PMP toggle, TLB flush,
   register save or host-context restore. *)
let coalesce_cost t =
  let c = t.cost in
  c.Cost.trap_entry + c.Cost.exit_cause_decode
  + (Vcpu.coalesced_items * c.Cost.shared_item_store)
  + c.Cost.xret

type path = Entry_plain | Entry_with_mmio | Exit_plain | Exit_with_mmio

let path_cost t path =
  let mmio_kind () =
    if t.cfg.shared_vcpu then Shared_mmio else Unshared_mmio
  in
  match path with
  | Entry_plain -> entry_cost t.cost t.cfg ~mmio:No_mmio ~validated_ptes:0
  | Entry_with_mmio ->
      entry_cost t.cost t.cfg ~mmio:(mmio_kind ()) ~validated_ptes:0
  | Exit_plain -> exit_cost t.cost t.cfg ~mmio:No_mmio
  | Exit_with_mmio -> exit_cost t.cost t.cfg ~mmio:(mmio_kind ())
