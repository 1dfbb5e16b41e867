(* Secure Monitor state: the types every SM module shares, the state
   record, [create], the accessors, and the host-interface boundary
   ([host_call]). The SM is split by concern into a chain of
   library-private modules, each using only those before it:
   Sm_state, Sm_cost, Sm_chan, Sm_lifecycle, Sm_migrate, Sm_audit,
   Sm_recover; [Monitor] includes them all behind monitor.mli. *)

open Riscv

type config = {
  shared_vcpu : bool;
  long_path : bool;
  validate_shared_on_entry : bool;
  tlb_retention : bool;
}

let default_config =
  {
    shared_vcpu = true;
    long_path = false;
    validate_shared_on_entry = false;
    tlb_retention = false;
  }

type exit_reason =
  | Exit_timer
  | Exit_limit
  | Exit_mmio of Vcpu.mmio
  | Exit_shared_fault of int64
  | Exit_need_memory of { bytes : int64 }
  | Exit_shutdown
  | Exit_error of string

(* Saved Normal-mode context of one hart while a CVM occupies it. *)
type host_ctx = {
  mutable h_satp : int64;
  mutable h_hgatp : int64;
  mutable h_medeleg : int64;
  mutable h_mideleg : int64;
  mutable h_hedeleg : int64;
  mutable h_hideleg : int64;
  mutable h_mode : Priv.t;
  mutable h_pc : int64;
}

(* One end of a crash-safe migration session (see Migrate_proto). The
   record lives in the SM so it survives crashes of the untrusted
   courier endpoints: recovery re-derives everything from here. *)
type migration_role = Mig_out | Mig_in
type migration_phase = Mig_active | Mig_committed | Mig_aborted

type migration_session = {
  mg_role : migration_role;
  mutable mg_phase : migration_phase;
  mutable mg_cvm : int option;
  mutable mg_epoch : int;
  mutable mg_nonce : string;
      (* export nonce, fixed for the session's lifetime so recovery
         re-exports byte-identical chunks *)
  mutable mg_blob_tag : string;  (* SHA-256 of the sealed blob *)
  mutable mg_stalls : int;
      (* consecutive unacknowledged retransmits, maintained by the
         protocol endpoint; audited against the budget *)
  mg_budget : int;
}

(* One attested inter-CVM channel: a secure ring page the SM maps into
   both endpoints' private halves once each side has verified the
   other's attestation report. The record is the ownership ground truth
   for the ring page (channel pages never enter [page_owner]): the
   audit's channel section derives every invariant from here. *)
type chan_phase =
  | Chan_offered  (** granted, ring allocated, nothing mapped yet *)
  | Chan_established  (** both sides verified; ring live in both SPTs *)
  | Chan_revoked  (** torn down by an endpoint or an endpoint's death *)
  | Chan_degraded  (** torn down by the SM: strike budget exhausted *)

type channel = {
  ch_id : int;
  ch_a : int;  (** granting endpoint (owns the a→b half) *)
  ch_b : int;  (** accepting endpoint (owns the b→a half) *)
  mutable ch_phase : chan_phase;
  mutable ch_page : int64 option;
      (** ring page PA while the channel holds its block *)
  ch_gpa : int64;  (** slot GPA, identical in both private halves *)
  ch_epoch_a : int;
  ch_epoch_b : int;
      (** endpoint lifecycle epochs captured at the offer; [chan_accept]
          refuses if either endpoint has transitioned since — a stale
          pre-migration report cannot establish a channel *)
  mutable ch_seq_ab : int64;  (** last a→b seq delivered to b *)
  mutable ch_seq_ba : int64;  (** last b→a seq delivered to a *)
  mutable ch_strikes : int;
  mutable ch_reason : string option;
}

(* ABI constant: coalesced-MMIO zones one CVM may hold. *)
let max_coalesced_zones = 8

type t = {
  machine : Machine.t;
  cfg : config;
  cost : Cost.t;
  sm : Secmem.t;
  guard : Pmp_guard.t;
  trace : Metrics.Trace.t;
  registry : Metrics.Registry.t;
  cvms : (int, Cvm.t) Hashtbl.t;
  sessions : (string, migration_session) Hashtbl.t;
      (** keyed by "out:<id>" / "in:<id>" so one monitor can hold both
          ends of a loopback migration *)
  journal : Journal.t;
      (** write-ahead intent journal: every multi-step transition below
          records an intent before its first durable mutation, so
          [recover] can roll a crashed operation forward or back *)
  mutable next_cvm_id : int;
  channels : (int, channel) Hashtbl.t;
  mutable next_chan_id : int;
      (** channel ids double as slot indices in the channel GPA window,
          so they are never reused — recovery bumps past journaled ids *)
  host : host_ctx array;
  pending_mmio : (int * int, Vcpu.mmio) Hashtbl.t;
  expand_retry : (int * int, unit) Hashtbl.t;
      (** vCPUs whose next private fault is a stage-3 retry *)
  staged_reg : (int * int, int * int64) Hashtbl.t;
      (** SET_REG value awaiting Check-after-Load, unshared mode *)
  coalesced_zones : (int, (int64 * int64) list) Hashtbl.t;
      (** CVM id -> coalesced-MMIO zones as (first, last) GPA: soft
          state, never journaled, dropped by [crash_reboot] *)
  page_owner : (int64, int) Hashtbl.t;
      (** physical page -> CVM id: the exclusivity ground truth *)
  freed_pages : (int, int64 list ref) Hashtbl.t;
      (** per-CVM pages returned by the guest (relinquish), reused before
          the page cache *)
  prezeroed : (int64, int) Hashtbl.t;
      (** secure page -> its [Physmem.page_gen] right after the SM zeroed
          it. The page is known-zero only while its generation is
          unchanged: every write path bumps it, so a stale entry can
          never vouch for a modified page. Volatile SM state, dropped by
          [crash_reboot]. *)
  vcpu_seal : (int * int, int64) Hashtbl.t;
      (** (CVM id, vCPU) -> checksum of the secure vCPU taken at the last
          legitimate SM write; [audit] recomputes and compares *)
  mutable entry_hist : int list;
  mutable exit_hist : int list;
  mutable faults : (Hier_alloc.stage * int) list;
  mutable rand_counter : int;
  mutable profiler : Metrics.Profile.t option;
  last_seen : (int, int) Hashtbl.t;
      (** CVM id -> ledger cycles at its last world-switch progress
          (entry or exit); the telemetry plane's stall detector *)
}

(* A hart's host context at power-on: Normal-mode delegation, HS. *)
let boot_host_ctx () =
  {
    h_satp = 0L;
    h_hgatp = 0L;
    h_medeleg = Deleg_policy.normal_medeleg;
    h_mideleg = Deleg_policy.normal_mideleg;
    h_hedeleg = Deleg_policy.normal_hedeleg;
    h_hideleg = Deleg_policy.normal_hideleg;
    h_mode = Priv.HS;
    h_pc = 0L;
  }

let create ?(config = default_config) machine =
  let nharts = Array.length machine.Machine.harts in
  let ledger = machine.Machine.ledger in
  let trace =
    Metrics.Trace.create ~clock:(fun () -> Metrics.Ledger.now ledger) ()
  in
  let t =
    {
      machine;
      cfg = config;
      cost = machine.Machine.cost;
      sm = Secmem.create ();
      guard = Pmp_guard.create ~trace ();
      trace;
      registry = Metrics.Registry.create ();
      cvms = Hashtbl.create 16;
      sessions = Hashtbl.create 8;
      journal = Journal.create ();
      next_cvm_id = 1;
      channels = Hashtbl.create 8;
      next_chan_id = 1;
      host =
        Array.init nharts (fun _ -> boot_host_ctx ());
      pending_mmio = Hashtbl.create 8;
      expand_retry = Hashtbl.create 8;
      staged_reg = Hashtbl.create 8;
      coalesced_zones = Hashtbl.create 8;
      page_owner = Hashtbl.create 1024;
      freed_pages = Hashtbl.create 8;
      prezeroed = Hashtbl.create 1024;
      vcpu_seal = Hashtbl.create 8;
      entry_hist = [];
      exit_hist = [];
      faults = [];
      rand_counter = 0;
      profiler = None;
      last_seen = Hashtbl.create 8;
    }
  in
  (* Boot-time setup: normal delegation and an all-open PMP backdrop so
     Normal mode works before any secure region exists. *)
  Array.iter
    (fun hart ->
      Deleg_policy.apply_normal hart;
      ignore (Pmp_guard.sync_hart t.guard hart t.sm ~cvm_open:false);
      hart.Hart.mode <- Priv.HS)
    machine.Machine.harts;
  (* The IOPMP runs with a permissive default over normal memory;
     standing deny entries cover each secure region as it registers. *)
  Iopmp.allow_all_default (Bus.iopmp machine.Machine.bus) true;
  t

let machine t = t.machine
let config t = t.cfg
let secmem t = t.sm
let ledger t = t.machine.Machine.ledger
let charge t cat cycles = Metrics.Ledger.charge (ledger t) cat cycles
let trace t = t.trace
let registry t = t.registry
let journal t = t.journal

(* Observability is recorded only while the flight recorder is switched
   on, so the disabled-path cost of every instrumentation site below is
   one load and branch. *)
let obs t = Metrics.Trace.is_enabled t.trace

(* Record an internal fault the ABI boundary absorbed. Counted even with
   the flight recorder off: a hardened SM never loses sight of these. *)
let internal_fault t name e =
  Metrics.Registry.inc t.registry "sm.internal_fault";
  if obs t then
    Metrics.Trace.instant t.trace
      ~args:[ ("site", name); ("exn", Printexc.to_string e) ]
      "sm.internal_fault";
  Error (Ecall.Internal (Printexc.to_string e))

(* The host-interface ABI boundary: span + counter around one ecall, and
   the totality guard — no exception may escape to the hypervisor. *)
let host_call t name ?cvm f =
  let observing = obs t in
  let ev = "ecall." ^ name in
  if observing then begin
    Metrics.Trace.span_begin t.trace ?cvm ev;
    Metrics.Registry.inc t.registry ev
  end;
  (* The injected SM death is not an internal fault: it models the whole
     monitor dying, so it must escape the ABI boundary to the reboot
     driver instead of being absorbed into an error reply. *)
  let r =
    try f () with
    | Journal.Crashed as c -> raise c
    | e -> internal_fault t name e
  in
  if observing then begin
    let status =
      match r with Ok _ -> "ok" | Error e -> Ecall.error_to_string e
    in
    Metrics.Trace.span_end t.trace ?cvm ~args:[ ("status", status) ] ev
  end;
  r

(* One journal window: the intent [op] lands before [f]'s first durable
   mutation and the completion mark after its last, whatever [f]
   returns. A crash inside [f] leaves the record pending for recovery,
   which replays it; [f] receives the record for its checkpoints. *)
let journaled t op f =
  let record = Journal.append t.journal op in
  let r = f record in
  Journal.mark_done t.journal record;
  r

let find_cvm t id = Hashtbl.find_opt t.cvms id

(* Finalized and not stopped: runnable, running or suspended. *)
let cvm_live (cvm : Cvm.t) =
  match cvm.Cvm.state with
  | Cvm.Runnable | Cvm.Running | Cvm.Suspended -> true
  | _ -> false

(* A CVM whose tables and pages are still its own. A destroyed CVM's
   tables are reclaimed memory and must never be written again. *)
let find_alive t id =
  match find_cvm t id with
  | Some cvm when cvm.Cvm.state <> Cvm.Destroyed -> Some cvm
  | _ -> None

(* Zero [bytes] of DRAM from physical address [pa]. *)
let zero_phys t pa bytes =
  Physmem.zero_range
    (Bus.dram t.machine.Machine.bus)
    (Int64.sub pa Bus.dram_base)
    bytes

(* Apply [flush] to every hart's TLB and drop the hart's fetch/decode
   fast path with it, which caches translations too. *)
let fence_harts t flush =
  Array.iter
    (fun hart ->
      flush hart.Hart.tlb;
      Hart.invalidate_fast_path hart)
    t.machine.Machine.harts

(* Precise cross-hart shootdown: drop one VMID's translations from every
   hart's TLB — the VMID-tagged hfence.gvma. Used wherever a whole
   guest-physical space dies at once (destroy, quarantine, migrate-out
   commit): any hart may hold retained entries for the CVM, and those
   must not outlive its pages. Charged per hart actually fenced. *)
let shootdown_vmid t ~vmid ~reason =
  let nharts = Array.length t.machine.Machine.harts in
  fence_harts t (fun tlb -> Tlb.flush_vmid tlb vmid);
  charge t "sm_shootdown" (nharts * t.cost.Cost.tlb_vmid_flush);
  if obs t then begin
    Metrics.Registry.inc t.registry ~by:nharts "tlb.vmid_flush";
    Metrics.Trace.instant t.trace
      ~args:[ ("vmid", string_of_int vmid); ("reason", reason) ]
      "tlb.shootdown"
  end

let cvm_state t ~cvm:id =
  Option.map (fun c -> c.Cvm.state) (find_cvm t id)

let cvm_count t =
  Hashtbl.fold
    (fun _ c n -> if c.Cvm.state <> Cvm.Destroyed then n + 1 else n)
    t.cvms 0

let cvm_measurement t ~cvm:id =
  Option.bind (find_cvm t id) (fun c -> c.Cvm.measurement)

let entry_cycles t = t.entry_hist
let exit_cycles t = t.exit_hist
let fault_log t = t.faults

let alloc_stats t ~cvm:id =
  Option.map (fun c -> c.Cvm.alloc_stats) (find_cvm t id)

let console_output t = Machine.console_output t.machine

let pmp_counters t =
  [
    ("pmp.syncs", Pmp_guard.sync_count t.guard);
    ("pmp.sync_skips", Pmp_guard.sync_skip_count t.guard);
    ("pmp.world_toggles", Pmp_guard.world_toggle_count t.guard);
    ("pmp.world_skips", Pmp_guard.world_skip_count t.guard);
  ]

(* The SM's DRBG: guest [random] calls and migration export nonces. *)
let next_random t =
  t.rand_counter <- t.rand_counter + 1;
  let h =
    Attest.hmac_sha256 ~key:Attest.platform_key
      (Printf.sprintf "rng:%d" t.rand_counter)
  in
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code h.[i]))
  done;
  !v
