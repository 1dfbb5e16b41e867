(* Crash consistency: the modeled crash-and-reboot, the roll-back
   helpers, and [recover], which replays every pending journal record
   through the same transition bodies the live calls run. *)

open Riscv
open Sm_state
open Sm_chan
open Sm_lifecycle
open Sm_migrate

(* Model a host/SM crash on the same monitor value: everything volatile
   — hart CSRs (PMP, TLB, delegation, translation roots), the IOPMP's
   device registers, the guard's epoch caches, and the SM's scratch
   tables — is wiped; everything durable (secure-NVRAM model: the pool
   list, the CVM table, page ownership, sessions, seals, freed-page
   pools, the journal itself) survives untouched. *)
let crash_reboot t =
  Journal.disarm t.journal;
  fence_harts t Tlb.flush_all;
  Array.iteri
    (fun i hart ->
      let csr = hart.Hart.csr in
      for e = 0 to 15 do
        Pmp.clear csr.Csr.pmp e
      done;
      csr.Csr.satp <- 0L;
      csr.Csr.hgatp <- 0L;
      csr.Csr.medeleg <- 0L;
      csr.Csr.mideleg <- 0L;
      csr.Csr.hedeleg <- 0L;
      csr.Csr.hideleg <- 0L;
      hart.Hart.mode <- Priv.M;
      hart.Hart.pc <- 0L;
      t.host.(i) <- boot_host_ctx ())
    t.machine.Machine.harts;
  Pmp_guard.reset t.guard;
  (* IOPMP config registers reset to the deny-by-default power-on
     state: standing deny entries and the permissive default are gone
     until [recover] reprograms them. *)
  let iopmp = Bus.iopmp t.machine.Machine.bus in
  List.iter
    (fun (base, size) -> Iopmp.remove_deny iopmp ~base ~size)
    (Secmem.regions t.sm);
  Iopmp.allow_all_default iopmp false;
  Hashtbl.reset t.pending_mmio;
  Hashtbl.reset t.expand_retry;
  Hashtbl.reset t.staged_reg;
  Hashtbl.reset t.coalesced_zones;
  Hashtbl.reset t.last_seen;
  (* The clean-page record is SM scratch: after a reboot nothing vouches
     for any page, so recovery and the faults after it zero every page
     they touch. *)
  Hashtbl.reset t.prezeroed;
  Metrics.Registry.inc t.registry "sm.crash_reboot"

type recovery_report = {
  rr_pending : int;
  rr_rolled_forward : int;
  rr_rolled_back : int;
  rr_parked : int;
  rr_pmp_synced : int;
  rr_detail : string list;
}

let pinned_by_active_out_session t id =
  Hashtbl.fold
    (fun _ s acc ->
      acc
      || (s.mg_role = Mig_out && s.mg_phase = Mig_active
         && s.mg_cvm = Some id))
    t.sessions false

(* ---- the roll-back helpers: one per distinct rollback ---- *)

(* Destroy the half-built CVM [id] (create, load, import, migrate-in
   prepare). The destroy body re-runs even on a CVM a previous recovery
   already marked destroyed, to finish whatever that pass was torn at.
   Returns whether the CVM was still alive. *)
let rollback_cvm t record id =
  match find_cvm t id with
  | Some cvm ->
      let alive = cvm.Cvm.state <> Cvm.Destroyed in
      destroy_body ~record t cvm;
      alive
  | None -> false

(* A pool block popped for an object that never reached its table:
   scrub it and re-link it. Returns whether anything was reclaimed. *)
let reclaim_orphan_block t base =
  Secmem.contains t.sm base
  && (not (Secmem.is_free_base t.sm base))
  && begin
       zero_phys t base (Secmem.block_size t.sm);
       ignore (Hier_alloc.reclaim_base t.sm ~base);
       true
     end

(* A migrate-out lock whose session record never landed: the host never
   learned a session existed, so release the CVM. *)
let release_out_lock t id =
  match find_cvm t id with
  | Some cvm
    when cvm.Cvm.state = Cvm.Migrating_out
         && not (pinned_by_active_out_session t id) ->
      cvm.Cvm.state <- Cvm.Suspended;
      true
  | _ -> false

(* A torn re-prepare may have destroyed the session's old instance
   before the new one landed: detach the session from it. *)
let detach_dead_instance t s =
  match s.mg_cvm with
  | Some id when s.mg_phase = Mig_active && find_alive t id = None ->
      s.mg_cvm <- None
  | _ -> ()

type direction = Forward | Back

(* Replay one pending record: pick the direction and call the transition
   body or rollback helper above; return the direction and an optional
   line for the report. Every body is idempotent and emits its own
   checkpoints, so recovery may itself crash at any of them and the next
   recovery replays the same record again. *)
let replay_record t (r : Journal.record) =
  let seq = r.Journal.seq in
  let say fmt = Printf.ksprintf Option.some fmt in
  match r.Journal.op with
  | Journal.Op_create { cvm = id; block_base; nvcpus = _ } ->
      (* Never mint the journaled id again, even though the op dies. *)
      if t.next_cvm_id <= id then t.next_cvm_id <- id + 1;
      ( Back,
        if rollback_cvm t r id then
          say "create #%d: rolled back half-built CVM %d" seq id
        else if reclaim_orphan_block t block_base then
          say "create #%d: reclaimed orphaned block 0x%Lx" seq block_base
        else None )
  | Journal.Op_load { cvm = id; _ } ->
      (* The measurement is torn mid-extend and can never seal to
         anything attestable: the host rebuilds from the original
         image. *)
      ( Back,
        if rollback_cvm t r id then
          say "load #%d: rolled back torn CVM %d" seq id
        else None )
  | Journal.Op_expand { base; size } ->
      (* A linked region is finished by the PMP/IOPMP resync every
         recovery performs. *)
      if List.mem (base, size) (Secmem.regions t.sm) then
        (Forward, say "expand #%d: region 0x%Lx kept (PMP resynced)" seq base)
      else (Back, say "expand #%d: region 0x%Lx never linked; dropped" seq base)
  | Journal.Op_relinquish { cvm = id; gpa; pa } -> (
      match find_alive t id with
      | Some cvm ->
          relinquish_body ~record:r t cvm ~gpa ~pa;
          ( Forward,
            say "relinquish #%d: CVM %d page 0x%Lx scrubbed and pooled" seq id
              pa )
      | None -> (Back, None))
  | Journal.Op_destroy { cvm = id } ->
      ( Forward,
        Option.bind (find_cvm t id) (fun cvm ->
            destroy_body ~record:r t cvm;
            say "destroy #%d: finished scrubbing CVM %d" seq id) )
  | Journal.Op_quarantine { cvm = id; reason } ->
      ( Forward,
        Option.bind (find_alive t id) (fun cvm ->
            quarantine_body ~record:r t cvm ~reason;
            say "quarantine #%d: CVM %d re-parked" seq id) )
  | Journal.Op_mig_out_begin { session; cvm = id } ->
      if find_session t Mig_out session <> None then (Forward, None)
      else if release_out_lock t id then
        (Back, say "out-begin #%d: released CVM %d" seq id)
      else (Back, None)
  | Journal.Op_mig_out_abort { session } -> (
      match find_session t Mig_out session with
      | Some s when s.mg_phase <> Mig_committed ->
          out_abort_body ~record:r t s;
          (Forward, say "out-abort #%d: session %s aborted" seq session)
      | _ -> (Forward, None))
  | Journal.Op_mig_out_commit { session } -> (
      match find_session t Mig_out session with
      | Some s when s.mg_phase <> Mig_aborted ->
          out_commit_body ~record:r t s;
          ( Forward,
            say "out-commit #%d: session %s committed, source scrubbed" seq
              session )
      | _ -> (Forward, None))
  | Journal.Op_mig_in_prepare { session; built; _ } ->
      let line =
        match built with
        | Some id when rollback_cvm t r id ->
            say "in-prepare #%d: rolled back half-restored CVM %d" seq id
        | _ -> None
      in
      Option.iter (detach_dead_instance t) (find_session t Mig_in session);
      (Back, line)
  | Journal.Op_mig_in_commit { session } -> (
      match find_session t Mig_in session with
      | Some ({ mg_phase = Mig_active; mg_cvm = Some id; _ } as s) -> (
          match find_cvm t id with
          | Some cvm
            when cvm.Cvm.state = Cvm.Migrating_in
                 || cvm.Cvm.state = Cvm.Suspended ->
              in_commit_body ~record:r t s cvm;
              (Forward, say "in-commit #%d: CVM %d activated" seq id)
          | _ -> (Forward, None))
      | _ -> (Forward, None))
  | Journal.Op_mig_in_abort { session } -> (
      match find_session t Mig_in session with
      | Some s when s.mg_phase <> Mig_committed ->
          in_abort_body ~record:r t s;
          (Forward, say "in-abort #%d: session %s aborted" seq session)
      | _ -> (Forward, None))
  | Journal.Op_chan_grant { chan; a = _; b = _; block_base } -> (
      (* Channel ids double as slot indices: never mint this one
         again. *)
      if t.next_chan_id <= chan then t.next_chan_id <- chan + 1;
      match find_channel t chan with
      | Some ch ->
          chan_teardown ~record:r t ch ~phase:Chan_revoked
            ~reason:"offer rolled back";
          (Back, say "chan-grant #%d: rolled back torn offer %d" seq chan)
      | None ->
          ( Back,
            if reclaim_orphan_block t block_base then
              say "chan-grant #%d: reclaimed orphaned ring block 0x%Lx" seq
                block_base
            else None ))
  | Journal.Op_chan_accept { chan } -> (
      (* The accepting side never learned the establishment happened. *)
      match find_channel t chan with
      | Some ch when chan_live ch ->
          chan_unaccept t ch;
          ( Back,
            say "chan-accept #%d: rolled channel %d back to offered" seq chan
          )
      | _ -> (Back, None))
  | Journal.Op_chan_revoke { chan; degraded } -> (
      match find_channel t chan with
      | Some ch when chan_live ch ->
          chan_teardown ~record:r t ch
            ~phase:(if degraded then Chan_degraded else Chan_revoked)
            ~reason:
              (if degraded then "degraded (recovery replay)"
               else "revoked (recovery replay)");
          (Forward, say "chan-revoke #%d: finished tearing down %d" seq chan)
      | _ -> (Forward, None))

let recover t =
  let detail = ref [] in
  let note m = detail := m :: !detail in
  let fwd = ref 0 and back = ref 0 in
  let observing = obs t in
  if observing then Metrics.Trace.span_begin t.trace "sm.recover";
  (* 1. Rebuild the volatile security state from durable ground truth:
     boot-equivalent delegation, PMP closure over every registered
     region, IOPMP denies, and cold TLBs on every hart. *)
  let synced = ref 0 in
  Array.iter
    (fun hart ->
      Deleg_policy.apply_normal hart;
      if Pmp_guard.sync_hart t.guard hart t.sm ~cvm_open:false then
        incr synced;
      hart.Hart.mode <- Priv.HS)
    t.machine.Machine.harts;
  fence_harts t Tlb.flush_all;
  let iopmp = Bus.iopmp t.machine.Machine.bus in
  Iopmp.allow_all_default iopmp true;
  Pmp_guard.guard_iopmp t.guard iopmp t.sm;
  charge t "sm_recover"
    ((!synced * t.cost.Cost.pmp_toggle) + t.cost.Cost.pmp_toggle
    + (Array.length t.machine.Machine.harts * t.cost.Cost.tlb_full_flush));
  (* 2. Park anything the crash caught mid-run. The secure vCPU image
     is only written at world-switch-out, so the seal taken at the last
     legitimate exit (or at creation) still matches — parking is safe
     without re-sealing. *)
  let parked = ref 0 in
  Hashtbl.iter
    (fun _ cvm ->
      if cvm.Cvm.state = Cvm.Running then begin
        cvm.Cvm.state <- Cvm.Suspended;
        incr parked;
        note (Printf.sprintf "parked CVM %d (was Running)" cvm.Cvm.id)
      end)
    t.cvms;
  (* 3. Replay every pending intent in sequence order. A record is
     marked done only after its replay completed, so a crash during
     recovery (the replay's own journal points) re-replays it. *)
  let pending = Journal.pending t.journal in
  List.iter
    (fun r ->
      let direction, line = replay_record t r in
      incr (match direction with Forward -> fwd | Back -> back);
      Option.iter note line;
      Journal.mark_done t.journal r)
    pending;
  Journal.compact t.journal;
  Metrics.Registry.inc t.registry "sm.recover";
  Metrics.Registry.inc t.registry ~by:!fwd "sm.recover.rolled_forward";
  Metrics.Registry.inc t.registry ~by:!back "sm.recover.rolled_back";
  if observing then
    Metrics.Trace.span_end t.trace
      ~args:
        [
          ("pending", string_of_int (List.length pending));
          ("forward", string_of_int !fwd);
          ("back", string_of_int !back);
        ]
      "sm.recover";
  {
    rr_pending = List.length pending;
    rr_rolled_forward = !fwd;
    rr_rolled_back = !back;
    rr_parked = !parked;
    rr_pmp_synced = !synced;
    rr_detail = List.rev !detail;
  }
