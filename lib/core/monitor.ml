(* The Secure Monitor. Its state and each concern live in the
   library-private modules below, each using only those before it;
   this file adds the guest SBI, the world switch, coalesced MMIO zones,
   [run_vcpu], the vCPU register calls, health and the profiler.
   monitor.mli is the one public interface. *)

open Riscv
include Sm_state
include Sm_cost
include Sm_chan
include Sm_lifecycle
include Sm_migrate
include Sm_audit
include Sm_recover

(* ---------- guest PC-sampling profiler ---------- *)

let enable_profiler ?interval t =
  let p =
    match (t.profiler, interval) with
    | Some p, None -> p
    | Some p, Some i when Metrics.Profile.interval p = i -> p
    | _ ->
        let p =
          Metrics.Profile.create ?interval
            ~nharts:(Array.length t.machine.Machine.harts) ()
        in
        t.profiler <- Some p;
        p
  in
  Exec.set_profile (Some p)

let disable_profiler _t = Exec.set_profile None
let profiler t = t.profiler

(* ---------- per-tenant health rollups ---------- *)

type tenant_health = {
  th_cvm : int;
  th_state : string;
  th_entries : int;
  th_exits : int;
  th_switch_rate : float;
  th_request_p50 : float;
  th_request_p99 : float;
  th_faults : int;
  th_quarantined : bool;
  th_quarantine_reason : string option;
  th_stalled : bool;
  th_last_progress : int;
  th_io_kicks_suppressed : int;
  th_io_coalesced : int;
  th_io_cal_rejections : int;
  th_io_fallbacks : int;
  th_mmio_coalesced : int;
  th_chan_grants : int;
  th_chan_accepts : int;
  th_chan_revokes : int;
  th_chan_peer_rejects : int;
  th_chan_degradations : int;
}

type health = {
  h_now : int;
  h_cvms : tenant_health list;
  h_total_switches : int;
  h_internal_faults : int;
}

let health_snapshot ?(stall_cycles = 10_000_000) ?(clock_hz = 1e8) t =
  let now = Metrics.Ledger.now (ledger t) in
  let seconds = float_of_int now /. clock_hz in
  let quantile id name p =
    match
      Metrics.Registry.histogram ~scope:(Metrics.Registry.Cvm id) t.registry
        name
    with
    | Some h when Metrics.Histogram.count h > 0 -> Metrics.Histogram.quantile h p
    | _ -> 0.
  in
  let tenants =
    Hashtbl.fold
      (fun id (cvm : Cvm.t) acc ->
        let counter name =
          Metrics.Registry.counter ~scope:(Metrics.Registry.Cvm id) t.registry
            name
        in
        let last = Hashtbl.find_opt t.last_seen id in
        let stalled =
          cvm_live cvm
          &&
          match last with
          | Some seen -> now - seen > stall_cycles
          | None -> false
        in
        {
          th_cvm = id;
          th_state = Cvm.state_to_string cvm.Cvm.state;
          th_entries = cvm.Cvm.entry_count;
          th_exits = cvm.Cvm.exit_count;
          th_switch_rate =
            (if seconds > 0. then float_of_int cvm.Cvm.exit_count /. seconds
             else 0.);
          th_request_p50 = quantile id "request_cycles" 50.;
          th_request_p99 = quantile id "request_cycles" 99.;
          th_faults = cvm.Cvm.fault_count;
          th_quarantined = cvm.Cvm.state = Cvm.Quarantined;
          th_quarantine_reason = cvm.Cvm.quarantine_reason;
          th_stalled = stalled;
          th_last_progress = (match last with Some c -> c | None -> -1);
          th_io_kicks_suppressed = counter "sm.io.kicks_suppressed";
          th_io_coalesced = counter "sm.io.completions_coalesced";
          th_io_cal_rejections = counter "sm.io.cal_rejections";
          th_io_fallbacks = counter "sm.io.fallbacks";
          th_mmio_coalesced = counter "sm.mmio.coalesced";
          th_chan_grants = counter "sm.chan.grants";
          th_chan_accepts = counter "sm.chan.accepts";
          th_chan_revokes = counter "sm.chan.revokes";
          th_chan_peer_rejects = counter "sm.chan.peer_rejects";
          th_chan_degradations = counter "sm.chan.degradations";
        }
        :: acc)
      t.cvms []
    |> List.sort (fun a b -> compare a.th_cvm b.th_cvm)
  in
  {
    h_now = now;
    h_cvms = tenants;
    h_total_switches =
      List.fold_left (fun acc th -> acc + th.th_exits) 0 tenants;
    h_internal_faults = Metrics.Registry.counter t.registry "sm.internal_fault";
  }

let exit_reason_label = function
  | Exit_timer -> "timer"
  | Exit_limit -> "limit"
  | Exit_mmio _ -> "mmio"
  | Exit_shared_fault _ -> "shared_fault"
  | Exit_need_memory _ -> "need_memory"
  | Exit_shutdown -> "shutdown"
  | Exit_error _ -> "error"

(* ---------- guest SBI handling ---------- *)

(* Walk [len] bytes of guest memory from [gpa] through the CVM's own
   G-stage table, calling [f ~off pa n] on each page-bounded chunk. *)
let guest_chunks cvm ~gpa len f =
  let rec go off =
    if off >= len then Ok ()
    else
      let g = Int64.add gpa (Int64.of_int off) in
      match Spt.lookup cvm.Cvm.spt ~gpa:g with
      | None -> Error "guest buffer not mapped"
      | Some pa ->
          let n = min (4096 - Int64.to_int (Int64.logand g 0xFFFL)) (len - off) in
          f ~off pa n;
          go (off + n)
  in
  go 0

let write_guest t cvm ~gpa data =
  guest_chunks cvm ~gpa (String.length data) (fun ~off pa n ->
      Bus.write_bytes t.machine.Machine.bus pa (String.sub data off n))

let read_guest t cvm ~gpa len =
  let buf = Buffer.create len in
  guest_chunks cvm ~gpa len (fun ~off:_ pa n ->
      Buffer.add_string buf (Bus.read_bytes t.machine.Machine.bus pa n))
  |> Result.map (fun () -> Buffer.contents buf)

type sbi_outcome = Resume | Stop of exit_reason

let handle_guest_ecall t cvm (hart : Hart.t) =
  let reg = Hart.get_reg hart in
  let a7 = reg 17 and a6 = reg 16 in
  let a0 = reg 10 and a1 = reg 11 and a2 = reg 12 in
  let ret ?(value = 0L) code =
    Hart.set_reg hart 10 code;
    Hart.set_reg hart 11 value;
    Resume
  in
  let ok ?value () = ret ?value 0L in
  let err e = ret (Ecall.error_code e) in
  if a7 = Ecall.sbi_legacy_putchar then begin
    Bus.write t.machine.Machine.bus Bus.uart_base 1 (Int64.logand a0 0xFFL);
    ok ()
  end
  else if a7 = Ecall.sbi_legacy_shutdown then Stop Exit_shutdown
  else if a7 = Ecall.ext_zion then begin
    if a6 = Ecall.fid_guest_putchar then begin
      Bus.write t.machine.Machine.bus Bus.uart_base 1 (Int64.logand a0 0xFFL);
      ok ()
    end
    else if a6 = Ecall.fid_guest_shutdown then Stop Exit_shutdown
    else if a6 = Ecall.fid_guest_random then ok ~value:(next_random t) ()
    else if a6 = Ecall.fid_guest_report then begin
      (* a0 = report buffer GPA, a1 = 32-byte nonce GPA *)
      match read_guest t cvm ~gpa:a1 32 with
      | Error _ -> err Ecall.Invalid_param
      | Ok nonce -> begin
          match cvm.Cvm.measurement with
          | None -> err Ecall.Bad_state
          | Some measurement ->
              let report =
                Attest.make_report ~cvm_id:cvm.Cvm.id ~epoch:cvm.Cvm.epoch
                  ~measurement ~nonce
              in
              let bytes = Attest.report_to_bytes report in
              (match write_guest t cvm ~gpa:a0 bytes with
              | Ok () -> ok ~value:(Int64.of_int (String.length bytes)) ()
              | Error _ -> err Ecall.Invalid_param)
        end
    end
    else if a6 = Ecall.fid_guest_seal then begin
      (* a0 = source GPA, a1 = length, a2 = destination GPA. The sealed
         blob is bound to this CVM's measurement. *)
      let len = Int64.to_int a1 in
      if len <= 0 || len > 65536 then err Ecall.Invalid_param
      else begin
        match (cvm.Cvm.measurement, read_guest t cvm ~gpa:a0 len) with
        | None, _ -> err Ecall.Bad_state
        | _, Error _ -> err Ecall.Invalid_param
        | Some measurement, Ok data -> begin
            let blob = Attest.seal_data ~measurement data in
            charge t "sm_seal" (t.cost.Cost.page_scrub * ((len / 4096) + 1));
            match write_guest t cvm ~gpa:a2 blob with
            | Ok () -> ok ~value:(Int64.of_int (String.length blob)) ()
            | Error _ -> err Ecall.Invalid_param
          end
      end
    end
    else if a6 = Ecall.fid_guest_unseal then begin
      (* a0 = blob GPA, a1 = blob length, a2 = destination GPA. *)
      let len = Int64.to_int a1 in
      if len <= 0 || len > 131072 then err Ecall.Invalid_param
      else begin
        match (cvm.Cvm.measurement, read_guest t cvm ~gpa:a0 len) with
        | None, _ -> err Ecall.Bad_state
        | _, Error _ -> err Ecall.Invalid_param
        | Some measurement, Ok blob -> begin
            charge t "sm_seal" (t.cost.Cost.page_scrub * ((len / 4096) + 1));
            match Attest.unseal_data ~measurement blob with
            | Error _ -> err Ecall.Denied
            | Ok data -> begin
                match write_guest t cvm ~gpa:a2 data with
                | Ok () -> ok ~value:(Int64.of_int (String.length data)) ()
                | Error _ -> err Ecall.Invalid_param
              end
          end
      end
    end
    else if a6 = Ecall.fid_guest_relinquish then begin
      (* Guest returns a private page to the SM: unmap, scrub, keep it
         for this CVM's future faults (ballooning-style). *)
      let gpa = Xword.align_down a0 4096L in
      if not (Layout.is_private_gpa gpa) then err Ecall.Invalid_param
      else begin
        (* Learn the physical page before the first mutation so the
           intent can name it — recovery re-scrubs by address even when
           the mapping is already gone. *)
        match Spt.lookup cvm.Cvm.spt ~gpa with
        | None -> err Ecall.Not_found
        | Some pa ->
            journaled t (Journal.Op_relinquish { cvm = cvm.Cvm.id; gpa; pa })
              (fun record -> relinquish_body ~record t cvm ~gpa ~pa);
            ok ()
      end
    end
    else if a6 = Ecall.fid_guest_chan_send then begin
      (* a0 = channel id, a1 = source GPA, a2 = length. The SM writes
         the caller's own directional half on its behalf: payload and
         length land before the seq bump that publishes them. (A guest
         may equally store into its mapped half directly — the SM's
         consume-side shadow only ever trusts what Check-after-Load
         admits.) *)
      let len = Int64.to_int a2 in
      if len < 1 || len > Layout.chan_max_msg then err Ecall.Invalid_param
      else begin
        match find_channel t (Int64.to_int a0) with
        | None -> err Ecall.Not_found
        | Some ch ->
            if ch.ch_a <> cvm.Cvm.id && ch.ch_b <> cvm.Cvm.id then
              err Ecall.Denied
            else if ch.ch_phase <> Chan_established then err Ecall.Bad_state
            else begin
              match read_guest t cvm ~gpa:a1 len with
              | Error _ -> err Ecall.Invalid_param
              | Ok payload ->
                  let bus = t.machine.Machine.bus in
                  let base = chan_dir_base ch ~from_a:(ch.ch_a = cvm.Cvm.id) in
                  let seq = Bus.read bus base 8 in
                  Bus.write_bytes bus
                    (Int64.add base (Int64.of_int Layout.chan_hdr_size))
                    payload;
                  Bus.write bus (Int64.add base 8L) 8 (Int64.of_int len);
                  Bus.write bus base 8 (Int64.add seq 1L);
                  (* Bulk payload copy: a plain M-mode word copy, not
                     the per-register validated transfer — only the
                     header goes through Check-after-Load. *)
                  charge t "sm_chan"
                    (t.cost.Cost.ecall_roundtrip
                    + ((len + 7) / 8 * (t.cost.Cost.load + t.cost.Cost.store)));
                  ok ~value:(Int64.of_int len) ()
            end
      end
    end
    else if a6 = Ecall.fid_guest_chan_recv then begin
      (* a0 = channel id, a1 = destination GPA, a2 = max length. The
         peer-writable half goes through Check-after-Load against the
         SM's delivery shadow; a rejected header is a strike against the
         peer, and the strike budget degrades the channel — never the
         consuming CVM. *)
      match find_channel t (Int64.to_int a0) with
      | None -> err Ecall.Not_found
      | Some ch ->
          if ch.ch_a <> cvm.Cvm.id && ch.ch_b <> cvm.Cvm.id then
            err Ecall.Denied
          else if ch.ch_phase <> Chan_established then err Ecall.Bad_state
          else begin
            let consumer_is_b = ch.ch_b = cvm.Cvm.id in
            let from_a = consumer_is_b in
            let shadow = if consumer_is_b then ch.ch_seq_ab else ch.ch_seq_ba in
            charge t "sm_chan" t.cost.Cost.ecall_roundtrip;
            match chan_check_dir t ch ~from_a ~shadow with
            | Chan_idle -> ok ~value:0L ()
            | Chan_bad verdict ->
                chan_strike t ch ~victim:cvm.Cvm.id verdict;
                err Ecall.Denied
            | Chan_msg (seq, len) ->
                if Int64.of_int len > a2 then err Ecall.Invalid_param
                else begin
                  let bus = t.machine.Machine.bus in
                  let base = chan_dir_base ch ~from_a in
                  let payload =
                    Bus.read_bytes bus
                      (Int64.add base (Int64.of_int Layout.chan_hdr_size))
                      len
                  in
                  match write_guest t cvm ~gpa:a1 payload with
                  | Error _ -> err Ecall.Invalid_param
                  | Ok () ->
                      if consumer_is_b then ch.ch_seq_ab <- seq
                      else ch.ch_seq_ba <- seq;
                      charge t "sm_chan"
                        ((len + 7) / 8 * (t.cost.Cost.load + t.cost.Cost.store));
                      ok ~value:(Int64.of_int len) ()
                end
          end
    end
    else if a6 = Ecall.fid_guest_share || a6 = Ecall.fid_guest_unshare then
      (* The static split-page-table design needs no per-page work: the
         shared window is always backed by hypervisor mappings. *)
      ok ()
    else err Ecall.Not_found
  end
  else err Ecall.Not_found

(* ---------- world switch ---------- *)

let save_host_ctx t hart_id =
  let hart = t.machine.Machine.harts.(hart_id) in
  let h = t.host.(hart_id) in
  let csr = hart.Hart.csr in
  h.h_satp <- csr.Csr.satp;
  h.h_hgatp <- csr.Csr.hgatp;
  h.h_medeleg <- csr.Csr.medeleg;
  h.h_mideleg <- csr.Csr.mideleg;
  h.h_hedeleg <- csr.Csr.hedeleg;
  h.h_hideleg <- csr.Csr.hideleg;
  h.h_mode <- hart.Hart.mode;
  h.h_pc <- hart.Hart.pc

let restore_host_ctx t hart_id =
  let hart = t.machine.Machine.harts.(hart_id) in
  let h = t.host.(hart_id) in
  let csr = hart.Hart.csr in
  csr.Csr.satp <- h.h_satp;
  csr.Csr.hgatp <- h.h_hgatp;
  csr.Csr.medeleg <- h.h_medeleg;
  csr.Csr.mideleg <- h.h_mideleg;
  csr.Csr.hedeleg <- h.h_hedeleg;
  csr.Csr.hideleg <- h.h_hideleg;
  hart.Hart.mode <- h.h_mode;
  hart.Hart.pc <- h.h_pc;
  (* Every path that leaves CVM mode comes through here, so this is
     the single point where profiler samples stop being attributed to
     the guest. *)
  match t.profiler with
  | Some p -> Metrics.Profile.set_context p ~hart:hart_id ~cvm:(-1)
  | None -> ()

let note_progress t cvm_id =
  Hashtbl.replace t.last_seen cvm_id (Metrics.Ledger.now (ledger t))

(* The world-switch TLB policy, entry and exit alike: a full flush,
   unless VMID-tagged retention keeps the guest's entries cached across
   the switch — precise shootdowns keep them coherent — and the host
   never pays the refill walks. Returns whether it flushed. *)
let switch_flush t hart =
  (not t.cfg.tlb_retention)
  && begin
       Tlb.flush_all hart.Hart.tlb;
       Hart.invalidate_fast_path hart;
       true
     end

(* Back out of an aborted run on [hart_id]: restore the host context,
   close the PMP window, and drop [vmid]'s translations on this hart. *)
let abort_entry t hart_id ~vmid =
  let hart = t.machine.Machine.harts.(hart_id) in
  restore_host_ctx t hart_id;
  ignore (Pmp_guard.set_world t.guard hart ~cvm_open:false);
  Tlb.flush_vmid hart.Hart.tlb vmid;
  Hart.invalidate_fast_path hart

let world_switch_out t hart_id cvm vcpu_idx ~mmio_kind =
  let hart = t.machine.Machine.harts.(hart_id) in
  let sv = Cvm.vcpu cvm vcpu_idx in
  Vcpu.save_from_hart hart sv;
  (* When the exit came through a trap, the hart's pc already points at
     the M-mode vector; the guest's architectural resume point is mepc. *)
  if hart.Hart.mode = Priv.M then sv.Vcpu.pc <- hart.Hart.csr.Csr.mepc;
  let pmp_work = Pmp_guard.set_world t.guard hart ~cvm_open:false in
  restore_host_ctx t hart_id;
  let flushed = switch_flush t hart in
  let cycles =
    exit_cost ~pmp:pmp_work ~tlb_flush:flushed t.cost t.cfg ~mmio:mmio_kind
  in
  (* Trap.take already charged trap_entry when the guest trapped. *)
  let observing = obs t in
  if observing then
    Metrics.Trace.span_begin t.trace ~hart:hart_id ~cvm:cvm.Cvm.id
      ~vcpu:vcpu_idx "cvm_exit";
  charge t "cvm_exit" (cycles - t.cost.Cost.trap_entry);
  if observing then begin
    Metrics.Trace.span_end t.trace ~hart:hart_id ~cvm:cvm.Cvm.id
      ~vcpu:vcpu_idx "cvm_exit";
    let scope = Metrics.Registry.Cvm cvm.Cvm.id in
    Metrics.Registry.inc t.registry ~scope "exits";
    Metrics.Registry.observe t.registry ~scope "exit_cycles" cycles;
    if flushed then Metrics.Registry.inc t.registry "tlb.full_flush"
  end;
  t.exit_hist <- cycles :: t.exit_hist;
  cvm.Cvm.exit_count <- cvm.Cvm.exit_count + 1;
  cvm.Cvm.state <- Cvm.Suspended;
  note_progress t cvm.Cvm.id;
  seal_vcpu t cvm vcpu_idx

(* Resume the guest after an SM-internal service (fault, SBI) without
   leaving CVM mode. [skip] advances past the trapping instruction. *)
let resume_guest t hart ~skip =
  let csr = hart.Hart.csr in
  let target_virt = Csr.get_mpv csr in
  let target_level = Csr.get_mpp csr in
  hart.Hart.mode <- Priv.of_level ~virt:target_virt target_level;
  hart.Hart.pc <-
    (if skip then Int64.add csr.Csr.mepc 4L else csr.Csr.mepc);
  charge t "xret" t.cost.Cost.xret

(* Handle a guest-page fault on a private GPA inside the SM.
   Returns the serving stage (and whether the page came prezeroed) or
   the exit the fault escalates to. *)
type fault_outcome =
  | Fault_served of { stage : Hier_alloc.stage; prezeroed : bool }
  | Fault_spurious

let handle_private_fault t cvm vcpu_idx gpa =
  let key = (cvm.Cvm.id, vcpu_idx) in
  let after_expand = Hashtbl.mem t.expand_retry key in
  let cache = Cvm.cache cvm vcpu_idx in
  let page_gpa = Xword.align_down gpa 4096L in
  (* Another vCPU may have mapped the page between the fault and our
     handling (or the fault was a stale-TLB artifact): just resume. *)
  if Spt.lookup cvm.Cvm.spt ~gpa:page_gpa <> None then Ok Fault_spurious
  else
  match provide_private_page t cvm cache ~gpa:page_gpa ~after_expand with
  | Ok (_, stage, prezeroed) ->
      Hashtbl.remove t.expand_retry key;
      Ok (Fault_served { stage; prezeroed })
  | Error `Need_expand ->
      Hashtbl.replace t.expand_retry key ();
      Error (Exit_need_memory { bytes = Secmem.block_size t.sm })
  | Error (`Map_error e) -> Error (Exit_error e)

let record_fault t cvm stage ~prezeroed =
  let cycles = fault_cost ~prezeroed t stage in
  (* The architectural trap already charged trap_entry; stage 3's round
     trip was charged by the switches and the registration that ran it. *)
  let already =
    t.cost.Cost.trap_entry
    +
    match stage with
    | Hier_alloc.Stage3_retry -> expansion_round_trip t.cost t.cfg
    | Hier_alloc.Stage1 | Hier_alloc.Stage2 -> 0
  in
  charge t "sm_fault" (cycles - already);
  if obs t then begin
    let label = Hier_alloc.stage_to_string stage in
    Metrics.Trace.instant t.trace ~cvm:cvm.Cvm.id
      ~args:[ ("prezeroed", string_of_bool prezeroed) ]
      ("fault." ^ label);
    let scope = Metrics.Registry.Cvm cvm.Cvm.id in
    Metrics.Registry.inc t.registry ~scope ("faults." ^ label);
    if prezeroed then
      Metrics.Registry.inc t.registry ~scope "faults.prezeroed";
    Metrics.Registry.observe t.registry ~scope "fault_cycles" cycles
  end;
  t.faults <- (stage, cycles) :: t.faults;
  cvm.Cvm.fault_count <- cvm.Cvm.fault_count + 1;
  let s = cvm.Cvm.alloc_stats in
  match stage with
  | Hier_alloc.Stage1 -> s.Hier_alloc.stage1 <- s.Hier_alloc.stage1 + 1
  | Hier_alloc.Stage2 -> s.Hier_alloc.stage2 <- s.Hier_alloc.stage2 + 1
  | Hier_alloc.Stage3_retry -> s.Hier_alloc.stage3 <- s.Hier_alloc.stage3 + 1

(* ---------- coalesced MMIO zones ---------- *)

let zones_of t id =
  Option.value ~default:[] (Hashtbl.find_opt t.coalesced_zones id)

let register_coalesced_mmio t ~cvm:id ~gpa ~size =
  host_call t "register_coalesced_mmio" ~cvm:id (fun () ->
      match find_alive t id with
      | None -> Error Ecall.Not_found
      | Some cvm when cvm.Cvm.state = Cvm.Quarantined -> Error Ecall.Quarantined
      | Some _ ->
          let zones = zones_of t id in
          if size < 1 || Int64.of_int size > Layout.virtio_mmio_size then
            Error Ecall.Invalid_param
          else
            let last = Int64.add gpa (Int64.of_int (size - 1)) in
            (* Both ends inside the window: no RAM GPA, private or shared,
               can ever be a zone. *)
            if not (Layout.is_virtio_gpa gpa && Layout.is_virtio_gpa last) then
              Error Ecall.Invalid_address
            else if
              List.exists
                (fun (f, l) -> not (Xword.ult last f || Xword.ult l gpa))
                zones
            then Error Ecall.Already_exists
            else if List.length zones >= max_coalesced_zones then
              Error Ecall.Denied
            else begin
              Hashtbl.replace t.coalesced_zones id ((gpa, last) :: zones);
              Ok ()
            end)

(* A guest store inside a registered zone, with room left in the ring:
   post it to the shared vCPU and resume the guest without leaving
   M-mode. [posted] is the SM-private ring count, reset on every entry;
   the SM never reads the ring back. Anything else returns [false] and
   takes the ordinary MMIO exit. *)
let try_coalesce t cvm hart sh zones ~posted ~gpa =
  if zones = [] || !posted >= Vcpu.coalesced_ring_capacity then false
  else
    let inside (m : Vcpu.mmio) (first, last) =
      let m_last = Int64.add gpa (Int64.of_int (m.Vcpu.mmio_size - 1)) in
      not (Xword.ult gpa first || Xword.ult last m_last)
    in
    match
      Vcpu.decode_mmio hart.Hart.regs ~htinst:hart.Hart.csr.Csr.htinst ~gpa
    with
    | Ok m when m.Vcpu.mmio_write && List.exists (inside m) zones ->
        Vcpu.post_coalesced sh ~slot:!posted m;
        incr posted;
        (* The trap already charged trap_entry; [resume_guest] charges
           the one xret. *)
        charge t "sm_mmio_coalesce"
          (coalesce_cost t - t.cost.Cost.trap_entry - t.cost.Cost.xret);
        if obs t then begin
          Metrics.Trace.instant t.trace ~cvm:cvm.Cvm.id
            ~args:[ ("gpa", Printf.sprintf "0x%Lx" gpa) ]
            "sm.mmio.coalesced";
          Metrics.Registry.inc t.registry
            ~scope:(Metrics.Registry.Cvm cvm.Cvm.id) "sm.mmio.coalesced"
        end;
        resume_guest t hart ~skip:true;
        true
    | Ok _ | Error _ -> false

let run_vcpu t ~hart:hart_id ~cvm:id ~vcpu:vcpu_idx ~max_steps =
  host_call t "run_vcpu" ~cvm:id (fun () ->
  if hart_id < 0 || hart_id >= Array.length t.machine.Machine.harts then
    Error Ecall.Invalid_param
  else if max_steps <= 0 then Error Ecall.Invalid_param
  else
  match find_cvm t id with
  | None -> Error Ecall.Not_found
  | Some cvm when vcpu_idx < 0 || vcpu_idx >= Cvm.nvcpus cvm ->
      Error Ecall.Invalid_param
  | Some cvm -> begin
      match cvm.Cvm.state with
      | Cvm.Quarantined -> Error Ecall.Quarantined
      | Cvm.Created | Cvm.Destroyed | Cvm.Running
      | Cvm.Migrating_out | Cvm.Migrating_in ->
          Error Ecall.Bad_state
      | Cvm.Runnable | Cvm.Suspended ->
        let entered = ref false in
        (* Refuse the run and quarantine: the hypervisor broke the exit
           protocol before any guest instruction ran. *)
        let refuse ~reason =
          if obs t then
            Metrics.Trace.span_end t.trace ~hart:hart_id ~cvm:id ~vcpu:vcpu_idx
              ~args:[ ("exit", "denied") ]
              "run_vcpu";
          quarantine t cvm ~reason;
          seal_all_vcpus t cvm;
          Error Ecall.Denied
        in
        try
          if obs t then
            Metrics.Trace.span_begin t.trace ~hart:hart_id ~cvm:id
              ~vcpu:vcpu_idx "run_vcpu";
          let hart = t.machine.Machine.harts.(hart_id) in
          let sv = Cvm.vcpu cvm vcpu_idx in
          let sh = Cvm.shared_vcpu cvm vcpu_idx in
          let key = (id, vcpu_idx) in
          (* The coalesced ring lives in the shared vCPU, so it needs the
             shared-vCPU transfer mode. *)
          let zones = if t.cfg.shared_vcpu then zones_of t id else [] in
          let posted = ref 0 in
          (* Absorb a pending MMIO reply before entering. *)
          let mmio_kind = ref No_mmio in
          let absorb_error = ref None in
          (match Hashtbl.find_opt t.pending_mmio key with
          | None -> ()
          | Some mmio ->
              Hashtbl.remove t.pending_mmio key;
              if t.cfg.shared_vcpu then begin
                mmio_kind := Shared_mmio;
                match Vcpu.absorb_mmio_result sh sv mmio with
                | Ok _ -> ()
                | Error e -> absorb_error := Some e
              end
              else begin
                mmio_kind := Unshared_mmio;
                (* Unshared path: apply the staged SET_REG value. *)
                (match Hashtbl.find_opt t.staged_reg key with
                | Some (reg, value) when reg = mmio.Vcpu.mmio_reg ->
                    if (not mmio.Vcpu.mmio_write) && reg <> 0 then
                      sv.Vcpu.regs.(reg) <- value
                | Some _ -> absorb_error := Some "SET_REG to wrong register"
                | None ->
                    if not mmio.Vcpu.mmio_write then
                      absorb_error := Some "missing SET_REG before resume");
                Hashtbl.remove t.staged_reg key;
                sv.Vcpu.pc <- Int64.add sv.Vcpu.pc 4L
              end);
          (match !absorb_error with
          | Some msg ->
              (* Check-after-Load rejected the reply. *)
              if obs t then begin
                Metrics.Trace.instant t.trace ~hart:hart_id ~cvm:id
                  ~vcpu:vcpu_idx
                  ~args:[ ("reason", msg) ]
                  "check_after_load.reject";
                Metrics.Registry.inc t.registry
                  ~scope:(Metrics.Registry.Cvm id) "check_after_load.reject"
              end;
              refuse ~reason:("check-after-load: " ^ msg)
          | None ->
              if obs t && !mmio_kind <> No_mmio then begin
                Metrics.Trace.instant t.trace ~hart:hart_id ~cvm:id
                  ~vcpu:vcpu_idx "check_after_load.accept";
                Metrics.Registry.inc t.registry
                  ~scope:(Metrics.Registry.Cvm id) "check_after_load.accept"
              end;
              (* --- CVM entry --- *)
              save_host_ctx t hart_id;
              entered := true;
              Deleg_policy.apply_cvm hart;
              let pmp_work =
                Pmp_guard.set_world t.guard hart ~cvm_open:true
              in
              hart.Hart.csr.Csr.hgatp <-
                Sv39.hgatp_of ~vmid:id ~root:(Spt.root cvm.Cvm.spt);
              let flushed = switch_flush t hart in
              let validated =
                if t.cfg.validate_shared_on_entry then
                  Spt.validate_shared cvm.Cvm.spt
                    ~is_secure:(Secmem.contains t.sm)
                else Ok 0
              in
              match validated with
              | Error msg ->
                  (* Hypervisor planted a hostile shared subtree: abort
                     the entry before any guest instruction runs (so only
                     this CVM's possibly retained entries are suspect),
                     and quarantine so the subtree is disowned. *)
                  abort_entry t hart_id ~vmid:id;
                  if obs t then
                    Metrics.Trace.instant t.trace ~hart:hart_id ~cvm:id
                      ~vcpu:vcpu_idx "shared_subtree.reject";
                  refuse ~reason:("hostile shared subtree: " ^ msg)
              | Ok validated -> begin
                let ec =
                  entry_cost ~pmp:pmp_work ~tlb_flush:flushed t.cost t.cfg
                    ~mmio:!mmio_kind ~validated_ptes:validated
                in
                let observing = obs t in
                if observing then
                  Metrics.Trace.span_begin t.trace ~hart:hart_id ~cvm:id
                    ~vcpu:vcpu_idx "cvm_entry";
                charge t "cvm_entry" ec;
                if observing then begin
                  Metrics.Trace.span_end t.trace ~hart:hart_id ~cvm:id
                    ~vcpu:vcpu_idx "cvm_entry";
                  let scope = Metrics.Registry.Cvm id in
                  Metrics.Registry.inc t.registry ~scope "entries";
                  Metrics.Registry.observe t.registry ~scope "entry_cycles" ec;
                  if flushed then
                    Metrics.Registry.inc t.registry "tlb.full_flush"
                end;
                t.entry_hist <- ec :: t.entry_hist;
                cvm.Cvm.entry_count <- cvm.Cvm.entry_count + 1;
                note_progress t id;
                (match t.profiler with
                | Some p -> Metrics.Profile.set_context p ~hart:hart_id ~cvm:id
                | None -> ());
                Vcpu.restore_to_hart sv hart;
                hart.Hart.mode <- Priv.VS;
                hart.Hart.wfi_stalled <- false;
                cvm.Cvm.state <- Cvm.Running;
                (* --- guest execution loop --- *)
                let finish ~mmio reason =
                  sh.Vcpu.s_coalesced_count <- !posted;
                  world_switch_out t hart_id cvm vcpu_idx ~mmio_kind:mmio;
                  if obs t then begin
                    let label = exit_reason_label reason in
                    Metrics.Trace.span_end t.trace ~hart:hart_id ~cvm:id
                      ~vcpu:vcpu_idx
                      ~args:[ ("exit", label) ]
                      "run_vcpu";
                    Metrics.Registry.inc t.registry
                      ~scope:(Metrics.Registry.Cvm id)
                      ("exit_reason." ^ label)
                  end;
                  Ok reason
                in
                let rec loop steps =
                  if steps >= max_steps then finish ~mmio:No_mmio Exit_limit
                  else begin
                    Machine.sync_time t.machine;
                    Exec.step hart;
                    if hart.Hart.mode <> Priv.M then loop (steps + 1)
                    else handle_m_trap steps
                  end
                and handle_m_trap steps =
                  let csr = hart.Hart.csr in
                  let cause = csr.Csr.mcause in
                  let is_interrupt = Int64.compare cause 0L < 0 in
                  let code = Int64.to_int (Int64.logand cause 0xFFL) in
                  if is_interrupt then
                    (* Timer or software interrupt for the host. *)
                    finish ~mmio:No_mmio Exit_timer
                  else begin
                    match Cause.exception_of_code code with
                    | Some Cause.Ecall_from_vs -> begin
                        match handle_guest_ecall t cvm hart with
                        | Resume ->
                            resume_guest t hart ~skip:true;
                            loop (steps + 1)
                        | Stop reason -> finish ~mmio:No_mmio reason
                      end
                    | Some
                        (Cause.Load_guest_page_fault
                        | Cause.Store_guest_page_fault
                        | Cause.Instr_guest_page_fault) ->
                        let gpa =
                          Int64.logor
                            (Int64.shift_left csr.Csr.mtval2 2)
                            (Int64.logand csr.Csr.mtval 3L)
                        in
                        if
                          Layout.is_virtio_gpa gpa
                          && try_coalesce t cvm hart sh zones ~posted ~gpa
                        then loop (steps + 1)
                        else if Layout.is_virtio_gpa gpa then begin
                          (* MMIO: decode from the recorded instruction,
                             expose via the shared vCPU, exit. *)
                          Vcpu.save_from_hart hart sv;
                          match
                            Vcpu.decode_mmio sv.Vcpu.regs
                              ~htinst:csr.Csr.htinst ~gpa
                          with
                          | Error e -> finish ~mmio:No_mmio (Exit_error e)
                          | Ok mmio ->
                              Hashtbl.replace t.pending_mmio key mmio;
                              let kind =
                                if t.cfg.shared_vcpu then begin
                                  ignore
                                    (Vcpu.expose_mmio sh mmio
                                       ~htinst:csr.Csr.htinst);
                                  Shared_mmio
                                end
                                else Unshared_mmio
                              in
                              finish ~mmio:kind (Exit_mmio mmio)
                        end
                        else if Layout.is_private_gpa gpa then begin
                          match handle_private_fault t cvm vcpu_idx gpa with
                          | Ok (Fault_served { stage; prezeroed }) ->
                              record_fault t cvm stage ~prezeroed;
                              resume_guest t hart ~skip:false;
                              loop (steps + 1)
                          | Ok Fault_spurious ->
                              (* page is present; the retry will hit.
                                 Scope the shootdown to this CVM: with
                                 retention, another guest's entry for
                                 the same page index is still valid. *)
                              Tlb.flush_page ~vmid:id hart.Hart.tlb
                                hart.Hart.csr.Csr.mtval;
                              Hart.invalidate_fast_path hart;
                              resume_guest t hart ~skip:false;
                              loop (steps + 1)
                          | Error (Exit_need_memory b) ->
                              (* The guest will re-fault after the pool
                                 expansion and take the stage-3 path. *)
                              finish ~mmio:No_mmio (Exit_need_memory b)
                          | Error reason -> finish ~mmio:No_mmio reason
                        end
                        else if Layout.is_shared_gpa gpa then
                          (* Shared-region fault: hypervisor's job. *)
                          finish ~mmio:No_mmio (Exit_shared_fault gpa)
                        else
                          (* Beyond both halves of the guest-physical
                             space: a wild guest access, not a mapping
                             request. *)
                          finish ~mmio:No_mmio
                            (Exit_error
                               (Printf.sprintf
                                  "guest access outside the GPA space: 0x%Lx"
                                  gpa))
                    | Some e ->
                        finish ~mmio:No_mmio
                          (Exit_error
                             (Printf.sprintf "unexpected guest trap: %s"
                                (Cause.to_string
                                   (Cause.Exception e))))
                    | None ->
                        finish ~mmio:No_mmio (Exit_error "unknown mcause")
                  end
                in
                loop 0
              end)
        with
        | Journal.Crashed as c ->
            (* The injected SM death: the hart's state is whatever the
               crash left (reboot wipes it), so no cleanup here — just
               let the reboot driver take over. *)
            raise c
        | e ->
          (* A fault inside the SM must never leave the hart in CVM
             mode with the PMP window open: restore the host world
             first, then quarantine — the CVM's state may be
             inconsistent, so it can only be destroyed from here. *)
          (* Only this CVM's translations are suspect; the quarantine
             below shoots its VMID down on every hart anyway. *)
          if !entered then abort_entry t hart_id ~vmid:id;
          quarantine t cvm
            ~reason:("internal fault during run: " ^ Printexc.to_string e);
          seal_all_vcpus t cvm;
          if obs t then
            Metrics.Trace.span_end t.trace ~hart:hart_id ~cvm:id
              ~vcpu:vcpu_idx
              ~args:[ ("exit", "internal_fault") ]
              "run_vcpu";
          internal_fault t "run_vcpu" e
    end)

(* The prelude the SM-mediated register calls share: a known,
   unquarantined CVM, a valid vCPU with an MMIO exit pending, and the
   call's charge under [cat]. *)
let with_pending_mmio t name cat ~cvm:id ~vcpu:vcpu_idx f =
  host_call t name ~cvm:id (fun () ->
      match find_cvm t id with
      | None -> Error Ecall.Not_found
      | Some cvm when cvm.Cvm.state = Cvm.Quarantined -> Error Ecall.Quarantined
      | Some cvm when vcpu_idx < 0 || vcpu_idx >= Cvm.nvcpus cvm ->
          Error Ecall.Invalid_param
      | Some _ -> (
          match Hashtbl.find_opt t.pending_mmio (id, vcpu_idx) with
          | None -> Error Ecall.No_pending_exit
          | Some mmio ->
              charge t cat
                (t.cost.Cost.ecall_roundtrip + t.cost.Cost.secure_copy_item);
              f mmio))

let get_vcpu_reg t ~cvm ~vcpu ~reg =
  with_pending_mmio t "get_vcpu_reg" "sm_getreg" ~cvm ~vcpu (fun mmio ->
      (* Only the value the pending exit legitimately exposes — the store
         data, requested as register 0 — is readable. Every other
         register stays secret. *)
      if mmio.Vcpu.mmio_write && reg = 0 then Ok mmio.Vcpu.mmio_data
      else Error Ecall.Denied)

let set_vcpu_reg t ~cvm ~vcpu ~reg value =
  with_pending_mmio t "set_vcpu_reg" "sm_setreg" ~cvm ~vcpu (fun mmio ->
      if mmio.Vcpu.mmio_write || reg <> mmio.Vcpu.mmio_reg then
        Error Ecall.Denied
      else begin
        Hashtbl.replace t.staged_reg (cvm, vcpu) (reg, value);
        Ok ()
      end)

let shared_vcpu_of t ~cvm:id ~vcpu:vcpu_idx =
  Option.map (fun c -> Cvm.shared_vcpu c vcpu_idx) (find_cvm t id)
