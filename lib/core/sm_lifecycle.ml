(* CVM lifecycle: vCPU seals and quarantine, secure-region
   registration, create, load, finalize, [install_shared], scrub-once
   secure memory, relinquish and destroy. The transition bodies here
   ([quarantine_body], [relinquish_body], [destroy_body]) are the ones
   crash recovery replays. *)

open Riscv
open Sm_state
open Sm_chan

(* ---------- vCPU seals and quarantine ---------- *)

(* FNV-1a over the architectural fields. Not cryptographic — the host
   cannot address secure vCPU memory at all; the seal catches SM logic
   errors and simulation-harness tampering, and [audit] verifies it. *)
let vcpu_checksum (sv : Vcpu.secure) =
  let h = ref 0xcbf29ce484222325L in
  let mix v = h := Int64.mul (Int64.logxor !h v) 0x100000001b3L in
  Array.iter mix sv.Vcpu.regs;
  mix sv.Vcpu.pc;
  mix sv.Vcpu.vsstatus;
  mix sv.Vcpu.vstvec;
  mix sv.Vcpu.vsscratch;
  mix sv.Vcpu.vsepc;
  mix sv.Vcpu.vscause;
  mix sv.Vcpu.vstval;
  mix sv.Vcpu.vsatp;
  mix sv.Vcpu.hvip;
  mix (Int64.of_int sv.Vcpu.generation);
  !h

let seal_vcpu t cvm idx =
  Hashtbl.replace t.vcpu_seal (cvm.Cvm.id, idx)
    (vcpu_checksum (Cvm.vcpu cvm idx))

let seal_all_vcpus t cvm =
  for i = 0 to Cvm.nvcpus cvm - 1 do
    seal_vcpu t cvm i
  done

(* The quarantine body: park the CVM in [Quarantined] (only destruction
   is accepted from there) and disown the hypervisor's shared subtree so
   the hostile mappings drop out of the CVM's guest-physical space. *)
let quarantine_body ~record t cvm ~reason =
  if cvm.Cvm.state <> Cvm.Quarantined then begin
    cvm.Cvm.state <- Cvm.Quarantined;
    Metrics.Registry.inc t.registry "cvm.quarantined"
  end;
  cvm.Cvm.quarantine_reason <- Some reason;
  Journal.checkpoint t.journal record "parked";
  Spt.clear_shared_root cvm.Cvm.spt;
  (* The CVM will never legitimately run again, so no hart may keep
     translating its guest-physical space. *)
  shootdown_vmid t ~vmid:cvm.Cvm.id ~reason:"quarantine";
  (* A quarantined endpoint also forfeits its channels: the peer must
     not keep a window into a parked, possibly-hostile VM. *)
  chan_sweep_for ~record t cvm.Cvm.id ~reason:"endpoint quarantined"

(* A host protocol violation. *)
let quarantine t cvm ~reason =
  if cvm.Cvm.state <> Cvm.Destroyed && cvm.Cvm.state <> Cvm.Quarantined
  then begin
    journaled t (Journal.Op_quarantine { cvm = cvm.Cvm.id; reason })
    @@ fun record ->
    quarantine_body ~record t cvm ~reason;
    if obs t then
      Metrics.Trace.instant t.trace ~cvm:cvm.Cvm.id
        ~args:[ ("reason", reason) ]
        "cvm.quarantine"
  end

let quarantine_reason t ~cvm:id =
  Option.bind (find_cvm t id) (fun c -> c.Cvm.quarantine_reason)

(* ---------- region registration, create, load, destroy ---------- *)

let register_secure_region_impl t ~base ~size =
  let bus = t.machine.Machine.bus in
  let last = Int64.add base (Int64.sub size 1L) in
  (* PMP capacity and NAPOT shape are checked before anything is
     journaled or linked: a region the guard cannot program must never
     reach the free list, where it would be allocatable yet open to HS. *)
  if
    not
      (Bus.in_dram bus base && Bus.in_dram bus last
      && Pmp_guard.can_add t.sm ~base ~size)
  then Error Ecall.Invalid_param
  else begin
    journaled t (Journal.Op_expand { base; size }) @@ fun jr ->
    match Secmem.register_region t.sm ~base ~size with
    | Error _ -> Error Ecall.Invalid_param
    | Ok blocks ->
        Journal.checkpoint t.journal jr "linked";
        let synced = ref 0 in
        Array.iter
          (fun hart ->
            if Pmp_guard.sync_hart t.guard hart t.sm ~cvm_open:false then
              incr synced)
          t.machine.Machine.harts;
        let nharts = Array.length t.machine.Machine.harts in
        Pmp_guard.guard_iopmp t.guard (Bus.iopmp bus) t.sm;
        (* Per-hart PMP resync + IOPMP programming + the mandatory
           global fence on every hart (the paper keeps region
           registration a full-flush point). Charged per hart so the
           ledger agrees with the registry's flush count. *)
        charge t "sm_region_setup"
          ((!synced * t.cost.Cost.pmp_toggle) + t.cost.Cost.pmp_toggle
          + (nharts * t.cost.Cost.tlb_full_flush));
        fence_harts t Tlb.flush_all;
        if obs t then
          Metrics.Registry.inc t.registry ~by:nharts "tlb.full_flush";
        Ok blocks
  end

let register_secure_region t ~base ~size =
  host_call t "register_secure_region" (fun () ->
      register_secure_region_impl t ~base ~size)

(* Allocate one 4 KiB secure page for page tables, growing the CVM's
   table-block list as needed. *)
let alloc_table_page t table_blocks () =
  let take () =
    match !table_blocks with
    | blk :: _ -> Secmem.block_take_page blk
    | [] -> None
  in
  match take () with
  | Some p -> Some p
  | None -> begin
      match Secmem.alloc_block t.sm with
      | None -> None
      | Some blk ->
          table_blocks := blk :: !table_blocks;
          Secmem.block_take_page blk
    end

(* Cap matches the migration format's plausibility bound. *)
let max_nvcpus = 64

let create_cvm_impl t ~nvcpus ~entry_pc =
  if nvcpus <= 0 || nvcpus > max_nvcpus then Error Ecall.Invalid_param
  else begin
    (* Journal the intent against the block the pop below will return
       (single-threaded SM: nothing moves the list head in between), so
       recovery can find the orphaned block if we die mid-build. *)
    match Secmem.peek_block_base t.sm with
    | None -> Error Ecall.No_memory
    | Some block_base -> (
        let id = t.next_cvm_id in
        journaled t (Journal.Op_create { cvm = id; block_base; nvcpus })
        @@ fun jr ->
        t.next_cvm_id <- id + 1;
        (* The Sv39x4 root needs 16 KiB, 16 KiB-aligned: take the first
           four pages of a fresh block (blocks are 256 KiB-aligned). *)
        match Secmem.alloc_block t.sm with
        | None -> Error Ecall.No_memory (* unreachable: the peek saw one *)
        | Some blk ->
            Journal.checkpoint t.journal jr "block";
            let root = Secmem.block_base blk in
            for _ = 1 to 4 do
              ignore (Secmem.block_take_page blk)
            done;
            let table_blocks = ref [ blk ] in
            let spt =
              Spt.create ~bus:t.machine.Machine.bus ~root
                ~alloc_table_page:(alloc_table_page t table_blocks)
            in
            let cvm = Cvm.create ~id ~nvcpus ~entry_pc ~spt ~table_blocks in
            Hashtbl.replace t.cvms id cvm;
            Journal.checkpoint t.journal jr "registered";
            seal_all_vcpus t cvm;
            charge t "sm_cvm_create"
              (t.cost.Cost.page_scrub * 4 (* zero the root *)
              + t.cost.Cost.block_grab);
            Ok id)
  end

let create_cvm t ~nvcpus ~entry_pc =
  host_call t "create_cvm" (fun () -> create_cvm_impl t ~nvcpus ~entry_pc)

(* ---------- scrub-once secure memory ---------- *)

let dram_page t pa =
  Physmem.page_handle (Bus.dram t.machine.Machine.bus)
    (Int64.sub pa Bus.dram_base)

let is_prezeroed t pa =
  match Hashtbl.find_opt t.prezeroed pa with
  | Some gen -> gen = Physmem.page_gen (dram_page t pa)
  | None -> false

let prezeroed_pages t =
  Hashtbl.fold
    (fun pa _ acc -> if is_prezeroed t pa then pa :: acc else acc)
    t.prezeroed []
  |> List.sort compare

(* The one place the SM zeroes a private page. A page the [prezeroed]
   record vouches for is left alone; any other is zeroed. [keep] records
   the page as clean afterwards (it stays in SM hands: scrubbed on
   destroy or relinquish); without it the record is dropped, because the
   page is being handed to a CVM. Returns whether the page was already
   clean. *)
let scrub_page t ~keep pa =
  let clean = is_prezeroed t pa in
  if not clean then zero_phys t pa 4096L;
  if keep then
    Hashtbl.replace t.prezeroed pa (Physmem.page_gen (dram_page t pa))
  else Hashtbl.remove t.prezeroed pa;
  clean

let take_freed t cvm_id =
  match Hashtbl.find_opt t.freed_pages cvm_id with
  | Some ({ contents = pa :: rest } as r) ->
      r := rest;
      Some pa
  | Some { contents = [] } | None -> None

(* The relinquish body, shared by the guest ecall and recovery: unmap
   [gpa] while it still maps [pa], scrub the page, shoot it down, and
   pool it for this CVM's future faults exactly once. *)
let relinquish_body ~record t cvm ~gpa ~pa =
  let id = cvm.Cvm.id in
  if Spt.lookup cvm.Cvm.spt ~gpa = Some pa then
    ignore (Spt.unmap_private cvm.Cvm.spt ~gpa);
  Journal.checkpoint t.journal record "unmapped";
  ignore (scrub_page t ~keep:true pa);
  charge t "sm_scrub" t.cost.Cost.page_scrub;
  (* The guest VAs aliasing this page are unknown here (with VS-stage
     paging a VA need not equal the GPA), and other harts may retain the
     translation too: shoot down by physical page, scoped to this CVM,
     on every hart. *)
  fence_harts t (fun tlb -> Tlb.flush_pa ~vmid:id tlb pa);
  charge t "sm_shootdown"
    (Array.length t.machine.Machine.harts * t.cost.Cost.tlb_vmid_flush);
  Journal.checkpoint t.journal record "scrubbed";
  match Hashtbl.find_opt t.freed_pages id with
  | Some r -> if not (List.mem pa !r) then r := pa :: !r
  | None -> Hashtbl.add t.freed_pages id (ref [ pa ])

(* Allocate and map one private page; returns its physical address, the
   serving stage and whether the page was already clean. Pages the guest
   relinquished earlier are reused first — they are the cheapest source,
   equivalent to a page-cache hit. *)
let provide_private_page t cvm cache ~gpa ~after_expand =
  let alloc_outcome =
    match take_freed t cvm.Cvm.id with
    | Some pa ->
        Hashtbl.remove t.page_owner pa;
        Hier_alloc.Allocated
          (pa, if after_expand then Hier_alloc.Stage3_retry else Hier_alloc.Stage1)
    | None -> Hier_alloc.allocate ~trace:t.trace t.sm cache ~after_expand
  in
  match alloc_outcome with
  | Hier_alloc.Need_expand -> Error `Need_expand
  | Hier_alloc.Allocated (pa, stage) -> begin
      (* Exclusivity: a page may back exactly one CVM. *)
      (match Hashtbl.find_opt t.page_owner pa with
      | Some owner ->
          invalid_arg
            (Printf.sprintf
               "SM invariant violated: page 0x%Lx already owned by CVM %d" pa
               owner)
      | None -> ());
      let prezeroed = scrub_page t ~keep:false pa in
      match Spt.map_private cvm.Cvm.spt ~gpa ~pa ~writable:true with
      | Error e -> Error (`Map_error e)
      | Ok () ->
          Hashtbl.replace t.page_owner pa cvm.Cvm.id;
          Ok (pa, stage, prezeroed)
    end

let load_image_impl t ~cvm:id ~gpa data =
  match find_cvm t id with
  | None -> Error Ecall.Not_found
  | Some cvm when cvm.Cvm.state = Cvm.Quarantined -> Error Ecall.Quarantined
  | Some cvm when cvm.Cvm.state <> Cvm.Created -> Error Ecall.Bad_state
  | Some cvm ->
      if Int64.rem gpa 4096L <> 0L || not (Layout.is_private_gpa gpa) then
        Error Ecall.Invalid_param
      else begin
        let bus = t.machine.Machine.bus in
        let cache = Cvm.cache cvm 0 in
        let len = String.length data in
        let npages = (len + 4095) / 4096 in
        (* The payload lives in untrusted memory and is not journaled: a
           crash mid-load leaves a torn measurement, so recovery rolls
           the whole Created CVM back and the host retries from scratch.
           A completed load (even one that returned an error) marks the
           record done — the state it left is well-defined. *)
        journaled t (Journal.Op_load { cvm = id; gpa; npages }) @@ fun jr ->
        let rec go page =
          if page >= npages then Ok ()
          else begin
            let page_gpa = Int64.add gpa (Int64.of_int (page * 4096)) in
            let chunk =
              String.sub data (page * 4096) (min 4096 (len - (page * 4096)))
            in
            let target =
              match Spt.lookup cvm.Cvm.spt ~gpa:page_gpa with
              | Some pa -> Ok pa
              | None -> begin
                  match
                    provide_private_page t cvm cache ~gpa:page_gpa
                      ~after_expand:false
                  with
                  | Ok (pa, _, _) -> Ok pa
                  | Error `Need_expand -> Error Ecall.No_memory
                  | Error (`Map_error _) -> Error Ecall.Invalid_param
                end
            in
            match target with
            | Error e -> Error e
            | Ok pa ->
                Bus.write_bytes bus pa chunk;
                (match cvm.Cvm.measurement_ctx with
                | Some m -> Attest.extend m ~gpa:page_gpa chunk
                | None -> ());
                Journal.checkpoint t.journal jr
                  (Printf.sprintf "page:%d" page);
                go (page + 1)
          end
        in
        go 0
      end

let load_image t ~cvm ~gpa data =
  host_call t "load_image" ~cvm (fun () -> load_image_impl t ~cvm ~gpa data)

let finalize_cvm t ~cvm:id =
  host_call t "finalize_cvm" ~cvm:id (fun () ->
      match find_cvm t id with
      | None -> Error Ecall.Not_found
      | Some cvm when cvm.Cvm.state = Cvm.Quarantined ->
          Error Ecall.Quarantined
      | Some cvm -> begin
          match (cvm.Cvm.state, cvm.Cvm.measurement_ctx) with
          | Cvm.Created, Some m ->
              let digest = Attest.seal m in
              cvm.Cvm.measurement <- Some digest;
              cvm.Cvm.measurement_ctx <- None;
              cvm.Cvm.state <- Cvm.Runnable;
              (* Stall-detection baseline: runnable-but-never-entered
                 counts as progress from this moment. *)
              Hashtbl.replace t.last_seen id (Metrics.Ledger.now (ledger t));
              Ok digest
          | _ -> Error Ecall.Bad_state
        end)

let install_shared t ~cvm:id ~table_pa =
  host_call t "install_shared" ~cvm:id (fun () ->
      match find_cvm t id with
      | None -> Error Ecall.Not_found
      | Some cvm when cvm.Cvm.state = Cvm.Quarantined ->
          Error Ecall.Quarantined
      | Some cvm ->
          (* The subtree root must be a real normal-memory page before
             the SM writes it into the CVM's root table; a wild pointer
             would make every later walk fault inside the SM. *)
          if
            Int64.rem table_pa 4096L <> 0L
            || not (Bus.in_dram t.machine.Machine.bus table_pa)
          then Error Ecall.Invalid_address
          else begin
            match
              Spt.install_shared_root cvm.Cvm.spt
                ~is_secure:(Secmem.contains t.sm) ~table_pa
            with
            | Ok () -> Ok ()
            | Error _ -> Error Ecall.Denied
          end)

(* The destroy body, run by [destroy_cvm] and by recovery alike: every
   step is idempotent (a second pass scrubs zero pages, frees zero
   blocks, flips no counter), so a crash anywhere inside converges by
   simply running it again. [record] receives progress checkpoints —
   the crash points a sweep visits. *)
let destroy_body ~record t cvm =
  let id = cvm.Cvm.id in
  let was_destroyed = cvm.Cvm.state = Cvm.Destroyed in
  (* Channels die first, while both endpoints' page tables are still
     intact: the teardown's unmap writes table pages that the block
     scrubbing below is about to reclaim. *)
  chan_sweep_for ~record t id ~reason:"endpoint destroyed";
  (* Scrub every owned page, drop ownership, return blocks. Each page
     is zeroed at most once on this path and recorded clean, so the
     block scrub below and the next fault that hands it out skip it;
     the modeled scrub charge stays per owned page. *)
  Hashtbl.iter
    (fun pa owner ->
      if owner = id then begin
        ignore (scrub_page t ~keep:true pa);
        charge t "sm_scrub" t.cost.Cost.page_scrub
      end)
    t.page_owner;
  Hashtbl.filter_map_inplace
    (fun _ owner -> if owner = id then None else Some owner)
    t.page_owner;
  (* Unlink the hypervisor subtree while the root table is still
     live, then scrub and return every block. *)
  Spt.clear_shared_root cvm.Cvm.spt;
  Journal.checkpoint t.journal record "scrubbed";
  List.iter
    (fun blk ->
      ignore
        (Hier_alloc.scrub_free
           ~zero:(fun ~base ~bytes ->
             for i = 0 to Int64.to_int (Int64.div bytes 4096L) - 1 do
               ignore
                 (scrub_page t ~keep:true
                    (Int64.add base (Int64.of_int (i * 4096))))
             done)
           t.sm blk))
    (Cvm.owned_blocks cvm);
  (* Drop every stale reference to the recycled blocks: the page
     caches, the table-block list, and the relinquished-page pool.
     Without this a destroyed CVM's cache still aliases blocks the
     next CVM may own (reuse-after-destroy). *)
  Array.iter Page_cache.reset cvm.Cvm.caches;
  cvm.Cvm.table_blocks := [];
  Hashtbl.remove t.freed_pages id;
  Hashtbl.remove t.coalesced_zones id;
  cvm.Cvm.state <- Cvm.Destroyed;
  if not was_destroyed then Metrics.Registry.inc t.registry "cvm.destroyed";
  Journal.checkpoint t.journal record "reclaimed";
  (* Every hart that ever ran this CVM may retain translations into
     the just-freed blocks; without this shootdown the next owner of
     those blocks inherits them (covers migrate_out_commit too,
     which destroys through here). *)
  shootdown_vmid t ~vmid:id ~reason:"destroy";
  for v = 0 to Cvm.nvcpus cvm - 1 do
    Hashtbl.remove t.pending_mmio (id, v);
    Hashtbl.remove t.staged_reg (id, v);
    Hashtbl.remove t.expand_retry (id, v);
    Hashtbl.remove t.vcpu_seal (id, v)
  done;
  (* A migration session whose CVM disappears under it can never
     complete: fold it to Aborted so the ownership audit stays
     truthful. [migrate_out_commit] marks its session Committed
     *before* destroying, so the legitimate handoff is untouched. *)
  Hashtbl.iter
    (fun _ s ->
      if s.mg_phase = Mig_active && s.mg_cvm = Some id then
        s.mg_phase <- Mig_aborted)
    t.sessions

let destroy_cvm_impl t ~cvm:id =
  match find_cvm t id with
  | None -> Error Ecall.Not_found
  (* Double-destroy must not reach the free list: the blocks were
     already reinserted once and a second [free_block] would corrupt
     the allocator every CVM shares. *)
  | Some cvm when cvm.Cvm.state = Cvm.Destroyed -> Error Ecall.Bad_state
  | Some cvm ->
      journaled t (Journal.Op_destroy { cvm = id }) (fun record ->
          destroy_body ~record t cvm);
      Ok ()

let destroy_cvm t ~cvm =
  host_call t "destroy_cvm" ~cvm (fun () -> destroy_cvm_impl t ~cvm)
