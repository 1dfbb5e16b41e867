(* The platform-wide invariant sweep ([audit]) and the canonical
   rendering of durable state that crash recovery must reproduce
   ([durable_digest]). Both only read SM state. *)

open Riscv
open Sm_state
open Sm_chan
open Sm_lifecycle

let audit t =
  let findings = ref [] in
  let checked = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> findings := m :: !findings) fmt in
  let check b fmt =
    incr checked;
    if b then Printf.ksprintf ignore fmt else fail fmt
  in
  (* 1. Pool closed on every hart (caller runs in Normal mode). *)
  List.iter
    (fun (base, _) ->
      Array.iteri
        (fun i hart ->
          check
            (not (Pmp.check hart.Hart.csr.Csr.pmp Priv.HS Pmp.Read base 8))
            "pool region 0x%Lx is PMP-open to HS on hart %d" base i)
        t.machine.Machine.harts)
    (Secmem.regions t.sm);
  (* 2. Page-ownership exclusivity across all live CVMs. *)
  let live =
    Hashtbl.fold
      (fun _ c acc -> if c.Cvm.state <> Cvm.Destroyed then c :: acc else acc)
      t.cvms []
  in
  let seen_pa = Hashtbl.create 256 in
  (* Channel ring pages are the one sanctioned two-owner exception: the
     channel table, not [page_owner], is their ownership ground truth,
     and §11 pins down exactly which two mappers are legal. *)
  let chan_ring = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ ch ->
      match ch.ch_page with
      | Some pa when chan_live ch -> Hashtbl.replace chan_ring pa ch
      | _ -> ())
    t.channels;
  List.iter
    (fun cvm ->
      Spt.fold_private cvm.Cvm.spt
        (fun ~gpa ~pa () ->
          (match Hashtbl.find_opt chan_ring pa with
          | Some ch ->
              check
                (ch.ch_phase = Chan_established)
                "CVM %d maps ring page 0x%Lx of un-established channel %d"
                cvm.Cvm.id pa ch.ch_id;
              check
                (cvm.Cvm.id = ch.ch_a || cvm.Cvm.id = ch.ch_b)
                "CVM %d maps channel %d ring page 0x%Lx but is not an \
                 endpoint"
                cvm.Cvm.id ch.ch_id pa;
              check (gpa = ch.ch_gpa)
                "CVM %d maps channel %d ring page 0x%Lx at GPA 0x%Lx, \
                 expected slot 0x%Lx"
                cvm.Cvm.id ch.ch_id pa gpa ch.ch_gpa
          | None ->
              check (Secmem.contains t.sm pa)
                "CVM %d maps GPA 0x%Lx to non-secure PA 0x%Lx" cvm.Cvm.id
                gpa pa;
              check
                (Hashtbl.find_opt t.page_owner pa = Some cvm.Cvm.id)
                "CVM %d maps PA 0x%Lx it does not own" cvm.Cvm.id pa;
              (match Hashtbl.find_opt seen_pa pa with
              | Some other ->
                  fail "PA 0x%Lx backs both CVM %d and CVM %d" pa other
                    cvm.Cvm.id
              | None -> Hashtbl.add seen_pa pa cvm.Cvm.id));
          incr checked)
        ())
    live;
  (* 3. No CVM's page-table pages are guest-mapped anywhere. *)
  let table_pages = Hashtbl.create 64 in
  List.iter
    (fun cvm ->
      Hashtbl.replace table_pages (Spt.root cvm.Cvm.spt) cvm.Cvm.id;
      List.iter
        (fun pa -> Hashtbl.replace table_pages pa cvm.Cvm.id)
        (Spt.table_pages cvm.Cvm.spt))
    live;
  Hashtbl.iter
    (fun pa owner ->
      incr checked;
      match Hashtbl.find_opt table_pages pa with
      | Some table_owner ->
          fail "page-table page 0x%Lx of CVM %d is guest-mapped by CVM %d"
            pa table_owner owner
      | None -> ())
    seen_pa;
  (* 4. Shared subtrees never reference secure memory. *)
  List.iter
    (fun cvm ->
      incr checked;
      match Spt.validate_shared cvm.Cvm.spt ~is_secure:(Secmem.contains t.sm) with
      | Ok _ -> ()
      | Error msg -> fail "CVM %d shared subtree: %s" cvm.Cvm.id msg)
    live;
  (* 5. Allocator structural invariants. *)
  incr checked;
  (match Secmem.check_invariants t.sm with
  | Ok () -> ()
  | Error msg -> fail "secure memory list: %s" msg);
  (* 6. No owned page lies inside a block the allocator considers free
     (region bases are block-aligned, so the containing block's base is
     just the page rounded down to the block size). *)
  let blk = Secmem.block_size t.sm in
  let block_of pa = Int64.mul (Int64.div pa blk) blk in
  let free_bases = Hashtbl.create 64 in
  List.iter
    (fun b -> Hashtbl.replace free_bases b ())
    (Secmem.free_list_bases t.sm);
  Hashtbl.iter
    (fun pa owner ->
      incr checked;
      let base = block_of pa in
      if Hashtbl.mem free_bases base then
        fail "PA 0x%Lx owned by CVM %d lies in free block 0x%Lx" pa owner
          base)
    t.page_owner;
  (* 7. Secure vCPU state of every parked CVM matches its seal: nothing
     outside the SM's own world switch has touched it. *)
  List.iter
    (fun cvm ->
      if cvm.Cvm.state <> Cvm.Running then
        for i = 0 to Cvm.nvcpus cvm - 1 do
          incr checked;
          match Hashtbl.find_opt t.vcpu_seal (cvm.Cvm.id, i) with
          | None -> fail "CVM %d vCPU %d has no seal" cvm.Cvm.id i
          | Some sealed ->
              if vcpu_checksum (Cvm.vcpu cvm i) <> sealed then
                fail "CVM %d vCPU %d secure state diverges from its seal"
                  cvm.Cvm.id i
        done)
    live;
  (* 8. Migration-session ownership. An active session pins its CVM in
     the matching Migrating state; a committed out-session left the
     source scrubbed; a committed in-session activated its CVM; aborted
     sessions stranded no lock; every migrating CVM is pinned by exactly
     one active session; no two in-sessions hold the same blob (one
     export entered twice is a clone); no source overran its retry
     budget. *)
  let mig_owner = Hashtbl.create 8 in
  let in_tags = Hashtbl.create 8 in
  Hashtbl.iter
    (fun key s ->
      let role = match s.mg_role with Mig_out -> "out" | Mig_in -> "in" in
      if s.mg_role = Mig_in then begin
        incr checked;
        match Hashtbl.find_opt in_tags s.mg_blob_tag with
        | Some other ->
            fail "in-sessions %s and %s hold the same migration blob" other
              key
        | None -> Hashtbl.add in_tags s.mg_blob_tag key
      end;
      let state_of id =
        Option.map (fun c -> c.Cvm.state) (find_cvm t id)
      in
      (match (s.mg_phase, s.mg_cvm) with
      | Mig_active, Some id -> begin
          incr checked;
          (match Hashtbl.find_opt mig_owner id with
          | Some other ->
              fail "CVM %d pinned by migration sessions %s and %s" id other
                key
          | None -> Hashtbl.add mig_owner id key);
          let want =
            match s.mg_role with
            | Mig_out -> Cvm.Migrating_out
            | Mig_in -> Cvm.Migrating_in
          in
          match state_of id with
          | None ->
              fail "active %s-session %s references unknown CVM %d" role key
                id
          | Some st when st <> want ->
              fail "active %s-session %s: CVM %d is %s, expected %s" role
                key id
                (Cvm.state_to_string st)
                (Cvm.state_to_string want)
          | Some _ -> ()
        end
      | Mig_active, None ->
          incr checked;
          if s.mg_role = Mig_out then
            fail "active out-session %s has no CVM" key
      | Mig_committed, cvm_opt -> begin
          incr checked;
          match (s.mg_role, cvm_opt) with
          | Mig_out, Some id -> begin
              match state_of id with
              | Some st when st <> Cvm.Destroyed ->
                  fail "committed out-session %s left source CVM %d %s" key
                    id (Cvm.state_to_string st)
              | _ -> ()
            end
          | Mig_out, None -> ()
          | Mig_in, Some id -> begin
              match state_of id with
              | Some Cvm.Migrating_in ->
                  fail "committed in-session %s: CVM %d still prepared" key
                    id
              | None ->
                  fail "committed in-session %s: CVM %d missing" key id
              | Some _ -> ()
            end
          | Mig_in, None -> fail "committed in-session %s has no CVM" key
        end
      | Mig_aborted, Some id -> begin
          incr checked;
          match (s.mg_role, state_of id) with
          | Mig_out, Some Cvm.Migrating_out ->
              fail "aborted out-session %s left CVM %d locked" key id
          | Mig_in, Some st when st <> Cvm.Destroyed ->
              fail "aborted in-session %s left CVM %d %s" key id
                (Cvm.state_to_string st)
          | _ -> ()
        end
      | Mig_aborted, None -> ());
      if s.mg_role = Mig_out && s.mg_phase = Mig_active then begin
        incr checked;
        if s.mg_stalls > s.mg_budget then
          fail "out-session %s exceeded its retry budget (%d > %d)" key
            s.mg_stalls s.mg_budget
      end)
    t.sessions;
  List.iter
    (fun cvm ->
      match cvm.Cvm.state with
      | Cvm.Migrating_out | Cvm.Migrating_in ->
          incr checked;
          if not (Hashtbl.mem mig_owner cvm.Cvm.id) then
            fail "CVM %d is %s with no active migration session" cvm.Cvm.id
              (Cvm.state_to_string cvm.Cvm.state)
      | _ -> ())
    live;
  (* 9. TLB coherence. With VMID-tagged retention a translation can
     outlive the switch that installed it, so precision bugs surface
     here: no hart may cache an entry targeting a free secure block, a
     secure page its CVM no longer maps (scrubbed / relinquished), or
     secure memory at all under a VMID that belongs to no runnable CVM
     (host, normal VMs, quarantined, destroyed or migrated-out
     guests). *)
  let mapped_pa = Hashtbl.create 256 in
  List.iter
    (fun cvm ->
      Spt.fold_private cvm.Cvm.spt
        (fun ~gpa:_ ~pa () -> Hashtbl.replace mapped_pa (cvm.Cvm.id, pa) ())
        ())
    live;
  let live_by_id = Hashtbl.create 8 in
  List.iter (fun c -> Hashtbl.replace live_by_id c.Cvm.id c) live;
  Array.iteri
    (fun i hart ->
      Tlb.fold hart.Hart.tlb
        (fun ~asid:_ ~vmid ~vpage entry () ->
          incr checked;
          let pa = entry.Tlb.pa_page in
          if Secmem.contains t.sm pa then begin
            let base = block_of pa in
            if Hashtbl.mem free_bases base then
              fail
                "hart %d TLB: vmid %d vpage 0x%Lx targets PA 0x%Lx in \
                 free block 0x%Lx"
                i vmid vpage pa base
            else
              match Hashtbl.find_opt live_by_id vmid with
              | None ->
                  fail
                    "hart %d TLB: vmid %d (no live CVM) still translates \
                     vpage 0x%Lx to secure PA 0x%Lx"
                    i vmid vpage pa
              | Some c when c.Cvm.state = Cvm.Quarantined ->
                  fail
                    "hart %d TLB: quarantined CVM %d still translates \
                     vpage 0x%Lx to secure PA 0x%Lx"
                    i vmid vpage pa
              | Some c ->
                  if not (Hashtbl.mem mapped_pa (c.Cvm.id, pa)) then
                    fail
                      "hart %d TLB: CVM %d caches vpage 0x%Lx -> PA \
                       0x%Lx it no longer maps"
                      i vmid vpage pa
          end)
        ())
    t.machine.Machine.harts;
  (* 10. SWIOTLB / bounce hygiene. Every page of the bounce window —
     descriptor page, exitless ring page, bounce slots — is host
     territory by construction, so wherever a live CVM's shared
     subtree maps one, the backing PA must be outside the secure pool
     and unaccounted to any CVM; and no two SWIOTLB pages of one CVM
     may share a PA (an aliased bounce slot hands the same buffer to
     two concurrent requests). *)
  let swiotlb_gpas = Layout.swiotlb_page_gpas () in
  List.iter
    (fun cvm ->
      let seen_bounce = Hashtbl.create 67 in
      List.iter
        (fun gpa ->
          match Spt.lookup cvm.Cvm.spt ~gpa with
          | None -> ()
          | Some pa ->
              check
                (not (Secmem.contains t.sm pa))
                "CVM %d bounce page GPA 0x%Lx aliases secure PA 0x%Lx"
                cvm.Cvm.id gpa pa;
              check
                (not (Hashtbl.mem t.page_owner pa))
                "CVM %d bounce page GPA 0x%Lx aliases owned private PA \
                 0x%Lx"
                cvm.Cvm.id gpa pa;
              (match Hashtbl.find_opt seen_bounce pa with
              | Some other ->
                  fail
                    "CVM %d bounce pages GPA 0x%Lx and GPA 0x%Lx alias \
                     the same PA 0x%Lx"
                    cvm.Cvm.id other gpa pa
              | None -> Hashtbl.add seen_bounce pa gpa);
              incr checked)
        swiotlb_gpas)
    live;
  (* 11. Channel ownership. A live channel's ring page lies inside the
     secure pool (so §1's PMP closure keeps it host-unreachable),
     belongs to no CVM in [page_owner], sits in no free block, and is
     mapped at the slot GPA by exactly its two endpoints iff the
     channel is established — by nobody while merely offered. No live
     channel may keep a destroyed or quarantined endpoint reachable,
     and a dead channel holds no page at all. *)
  Hashtbl.iter
    (fun _ ch ->
      match (ch.ch_phase, ch.ch_page) with
      | (Chan_offered | Chan_established), None ->
          fail "live channel %d holds no ring page" ch.ch_id
      | (Chan_offered | Chan_established), Some pa ->
          check (Secmem.contains t.sm pa)
            "channel %d ring page 0x%Lx lies outside the secure pool"
            ch.ch_id pa;
          check
            (not (Hashtbl.mem t.page_owner pa))
            "channel %d ring page 0x%Lx is also CVM-owned" ch.ch_id pa;
          let base = block_of pa in
          check
            (not (Hashtbl.mem free_bases base))
            "channel %d ring page 0x%Lx lies in free block 0x%Lx" ch.ch_id
            pa base;
          List.iter
            (fun id ->
              incr checked;
              match find_cvm t id with
              | None -> fail "channel %d endpoint CVM %d missing" ch.ch_id id
              | Some c -> (
                  match c.Cvm.state with
                  | Cvm.Destroyed | Cvm.Quarantined ->
                      fail "live channel %d endpoint CVM %d is %s" ch.ch_id
                        id
                        (Cvm.state_to_string c.Cvm.state)
                  | _ -> ()))
            [ ch.ch_a; ch.ch_b ];
          let maps id =
            match find_cvm t id with
            | Some c when c.Cvm.state <> Cvm.Destroyed ->
                Spt.lookup c.Cvm.spt ~gpa:ch.ch_gpa = Some pa
            | _ -> false
          in
          (match ch.ch_phase with
          | Chan_established ->
              check
                (maps ch.ch_a && maps ch.ch_b)
                "established channel %d is not mapped by both endpoints"
                ch.ch_id
          | _ ->
              check
                ((not (maps ch.ch_a)) && not (maps ch.ch_b))
                "offered channel %d ring page 0x%Lx is already mapped"
                ch.ch_id pa)
      | (Chan_revoked | Chan_degraded), Some pa ->
          fail "dead channel %d still holds ring page 0x%Lx" ch.ch_id pa
      | (Chan_revoked | Chan_degraded), None -> incr checked)
    t.channels;
  (* 12. Scrub-once record. A record whose generation is still current
     lets the next fault skip zeroing its page, so it must name an
     unowned pool page — held by no CVM except as a relinquished page in
     its owner's freed pool, mapped nowhere, neither a live page-table
     page nor a channel ring — whose bytes are all zero. A record whose
     generation moved vouches for nothing. *)
  let relinquished = Hashtbl.create 64 in
  Hashtbl.iter
    (fun id l -> List.iter (fun pa -> Hashtbl.replace relinquished pa id) !l)
    t.freed_pages;
  let dram = Bus.dram t.machine.Machine.bus in
  let zero_page = String.make 4096 '\000' in
  Hashtbl.iter
    (fun pa _ ->
      if is_prezeroed t pa then begin
        check (Secmem.contains t.sm pa)
          "prezeroed page 0x%Lx lies outside the secure pool" pa;
        (match Hashtbl.find_opt t.page_owner pa with
        | Some owner ->
            check
              (Hashtbl.find_opt relinquished pa = Some owner)
              "prezeroed page 0x%Lx is owned by CVM %d" pa owner
        | None -> incr checked);
        check
          (not
             (Hashtbl.mem seen_pa pa || Hashtbl.mem chan_ring pa
            || Hashtbl.mem table_pages pa))
          "prezeroed page 0x%Lx is mapped, a page table or a channel ring"
          pa;
        check
          (Physmem.read_bytes dram (Int64.sub pa Bus.dram_base) 4096
          = zero_page)
          "prezeroed page 0x%Lx holds nonzero bytes at its recorded \
           generation"
          pa
      end)
    t.prezeroed;
  (* 13. Coalesced-MMIO zones. Every zone lies inside the virtio window
     (so no RAM GPA is one), no CVM holds more than the ABI limit, and
     a destroyed CVM holds none. *)
  Hashtbl.iter
    (fun id zones ->
      check
        (match find_cvm t id with
        | Some c -> c.Cvm.state <> Cvm.Destroyed
        | None -> false)
        "coalesced zones held for dead or unknown CVM %d" id;
      check
        (List.length zones <= max_coalesced_zones)
        "CVM %d holds %d coalesced zones (limit %d)" id (List.length zones)
        max_coalesced_zones;
      List.iter
        (fun (f, l) ->
          check
            (Layout.is_virtio_gpa f && Layout.is_virtio_gpa l
            && not (Xword.ult l f))
            "CVM %d coalesced zone 0x%Lx..0x%Lx leaves the virtio window" id
            f l)
        zones)
    t.coalesced_zones;
  if !findings = [] then Ok !checked else Error (List.rev !findings)

(* One sorted line per durable fact; see the interface for what is in
   and out. *)
let durable_digest t =
  let rows tbl f =
    List.sort compare (Hashtbl.fold (fun k v acc -> f k v :: acc) tbl [])
  in
  let opt f = function Some v -> f v | None -> "-" in
  let hex = Printf.sprintf "0x%Lx" in
  let hexes l = String.concat "," (List.map hex (List.sort compare l)) in
  String.concat "\n"
    (List.concat
       [
         rows t.cvms (fun id c ->
             Printf.sprintf "cvm %d %s epoch=%d measurement=%s quarantine=%s"
               id
               (Cvm.state_to_string c.Cvm.state)
               c.Cvm.epoch
               (opt Crypto.Sha256.to_hex c.Cvm.measurement)
               (opt (Printf.sprintf "%S") c.Cvm.quarantine_reason));
         rows t.page_owner (fun pa id ->
             Printf.sprintf "owner %s %d" (hex pa) id);
         rows t.freed_pages (fun id l ->
             Printf.sprintf "freed %d %s" id (hexes !l));
         [ "free-blocks " ^ hexes (Secmem.free_list_bases t.sm) ];
         rows t.sessions (fun key s ->
             Printf.sprintf "session %s %s cvm=%s epoch=%d" key
               (match s.mg_phase with
               | Mig_active -> "active"
               | Mig_committed -> "committed"
               | Mig_aborted -> "aborted")
               (opt string_of_int s.mg_cvm)
               s.mg_epoch);
         rows t.channels (fun id ch ->
             Printf.sprintf "chan %d %s page=%s" id
               (chan_phase_to_string ch.ch_phase)
               (opt hex ch.ch_page));
       ])
