(* Migration: the conversion between a live CVM and a [Migrate] image,
   and the crash-safe 2PC session API, the only way a CVM leaves or
   enters a monitor. *)

open Riscv
open Sm_state
open Sm_lifecycle

(* ---------- image conversion ---------- *)

let vcpu_to_image (sv : Vcpu.secure) =
  {
    Migrate.vi_regs = Array.copy sv.Vcpu.regs;
    vi_pc = sv.Vcpu.pc;
    vi_csrs =
      [|
        sv.Vcpu.vsstatus; sv.Vcpu.vstvec; sv.Vcpu.vsscratch; sv.Vcpu.vsepc;
        sv.Vcpu.vscause; sv.Vcpu.vstval; sv.Vcpu.vsatp; sv.Vcpu.hvip;
      |];
  }

let image_to_vcpu (vi : Migrate.vcpu_image) (sv : Vcpu.secure) =
  Array.blit vi.Migrate.vi_regs 0 sv.Vcpu.regs 0 32;
  sv.Vcpu.pc <- vi.Migrate.vi_pc;
  (match vi.Migrate.vi_csrs with
  | [| a; b; c; d; e; f; g; h |] ->
      sv.Vcpu.vsstatus <- a;
      sv.Vcpu.vstvec <- b;
      sv.Vcpu.vsscratch <- c;
      sv.Vcpu.vsepc <- d;
      sv.Vcpu.vscause <- e;
      sv.Vcpu.vstval <- f;
      sv.Vcpu.vsatp <- g;
      sv.Vcpu.hvip <- h
  | _ -> invalid_arg "image_to_vcpu: bad CSR image")

(* Snapshot a CVM into a migration image: every secure vCPU, the sealed
   measurement, and all mapped private pages. The caller has already
   checked the state. *)
let snapshot_image t cvm =
  let bus = t.machine.Machine.bus in
  let pages =
    Spt.fold_private cvm.Cvm.spt
      (fun ~gpa ~pa acc -> (gpa, Bus.read_bytes bus pa 4096) :: acc)
      []
  in
  (* Per-page crypto work dominates the export path. *)
  charge t "sm_migrate" (List.length pages * t.cost.Cost.page_scrub);
  {
    Migrate.im_vcpus = Array.to_list (Array.map vcpu_to_image cvm.Cvm.vcpus);
    im_measurement = Option.value ~default:"" cvm.Cvm.measurement;
    im_pages = List.rev pages;
  }

(* Fresh, unpredictable-to-the-host export nonce from the SM's DRBG. *)
let fresh_export_nonce t =
  Printf.sprintf "%Ld:%Ld" (next_random t) (next_random t)

(* Rebuild a CVM from a verified image into fresh secure memory, landing
   it in [Migrating_in] (the 2PC prepared state). Rolls the half-built
   CVM back on any failure. [on_created] fires the moment the empty CVM
   exists — the caller's journal record learns the id there, so a crash
   mid-restore can still find and scrub the half-built instance. *)
let build_cvm_from_image ?on_created t im =
  let nvcpus = List.length im.Migrate.im_vcpus in
  match create_cvm t ~nvcpus ~entry_pc:0L with
  | Error e -> Error e
  | Ok id -> begin
      (match on_created with Some f -> f id | None -> ());
      let cvm =
        match find_cvm t id with Some c -> c | None -> assert false
      in
      let bus = t.machine.Machine.bus in
      let cache = Cvm.cache cvm 0 in
      let rec restore = function
        | [] -> Ok ()
        | (gpa, data) :: rest -> begin
            match
              provide_private_page t cvm cache ~gpa ~after_expand:false
            with
            | Ok (pa, _, _) ->
                Bus.write_bytes bus pa data;
                restore rest
            | Error `Need_expand ->
                (* roll back the half-built CVM *)
                ignore (destroy_cvm_impl t ~cvm:id);
                Error Ecall.No_memory
            | Error (`Map_error _) ->
                ignore (destroy_cvm_impl t ~cvm:id);
                Error Ecall.Invalid_param
          end
      in
      match restore im.Migrate.im_pages with
      | Error e -> Error e
      | Ok () ->
          List.iteri
            (fun i vi -> image_to_vcpu vi (Cvm.vcpu cvm i))
            im.Migrate.im_vcpus;
          seal_all_vcpus t cvm;
          cvm.Cvm.measurement <-
            (if im.Migrate.im_measurement = "" then None
             else Some im.Migrate.im_measurement);
          cvm.Cvm.measurement_ctx <- None;
          cvm.Cvm.state <- Cvm.Migrating_in;
          charge t "sm_migrate"
            (List.length im.Migrate.im_pages * t.cost.Cost.page_scrub);
          Ok id
    end

(* ---------- crash-safe migration sessions (2PC handoff) ---------- *)

(* The session table is the protocol's durable truth: courier endpoints
   (Migrate_proto) may crash and lose every timer and buffer, but the
   decision state — who owns the guest — lives here and only moves
   through the entry points below. *)

let session_key role session =
  (match role with Mig_out -> "out:" | Mig_in -> "in:") ^ session

let find_session t role session =
  Hashtbl.find_opt t.sessions (session_key role session)

(* Session ids arrive from the untrusted host: bound and sanity-check
   them before they become hash keys and trace labels. *)
let valid_session_id s =
  let n = String.length s in
  n > 0 && n <= 64
  && String.for_all (fun c -> Char.code c >= 0x21 && Char.code c <= 0x7e) s

(* Public, non-secret fingerprint of a sealed blob: lets both monitors
   agree they are talking about the same bytes without trusting the
   courier. Keyed hash only to reuse the primitive; the key is public. *)
let blob_tag blob = Attest.hmac_sha256 ~key:"zion-migrate-blob-tag" blob

let default_retry_budget = 12

let migrate_out_begin_impl t ~cvm:id ~session ~budget =
  if not (valid_session_id session) || budget <= 0 then
    Error Ecall.Invalid_param
  else
    match find_cvm t id with
    | None -> Error Ecall.Not_found
    | Some cvm -> begin
        match find_session t Mig_out session with
        | Some s -> begin
            (* Recovery re-begin: only the incumbent session may restart,
               and only while the handoff is still undecided. The nonce
               is reused so the re-export is byte-identical — chunks the
               destination already holds stay valid. *)
            match s.mg_phase with
            | Mig_active
              when s.mg_cvm = Some id && cvm.Cvm.state = Cvm.Migrating_out ->
                s.mg_epoch <- s.mg_epoch + 1;
                s.mg_stalls <- 0;
                let blob =
                  Migrate.seal ~nonce:s.mg_nonce (snapshot_image t cvm)
                in
                s.mg_blob_tag <- blob_tag blob;
                Metrics.Registry.inc t.registry "migrate.out_rebegin";
                Ok (blob, s.mg_epoch)
            | _ -> Error Ecall.Already_exists
          end
        | None -> begin
            match cvm.Cvm.state with
            | Cvm.Quarantined -> Error Ecall.Quarantined
            | Cvm.Created | Cvm.Destroyed | Cvm.Running
            | Cvm.Migrating_out | Cvm.Migrating_in ->
                Error Ecall.Bad_state
            | Cvm.Runnable | Cvm.Suspended ->
                let nonce = fresh_export_nonce t in
                let blob = Migrate.seal ~nonce (snapshot_image t cvm) in
                journaled t (Journal.Op_mig_out_begin { session; cvm = id })
                @@ fun jr ->
                cvm.Cvm.state <- Cvm.Migrating_out;
                (* Lifecycle transition: every attestation report issued
                   before this lock is now stale — channel offers bound
                   to the old epoch can no longer be accepted. *)
                cvm.Cvm.epoch <- cvm.Cvm.epoch + 1;
                Journal.checkpoint t.journal jr "locked";
                Hashtbl.replace t.sessions
                  (session_key Mig_out session)
                  {
                    mg_role = Mig_out;
                    mg_phase = Mig_active;
                    mg_cvm = Some id;
                    mg_epoch = 1;
                    mg_nonce = nonce;
                    mg_blob_tag = blob_tag blob;
                    mg_stalls = 0;
                    mg_budget = budget;
                  };
                Metrics.Registry.inc t.registry "migrate.out_begin";
                Ok (blob, 1)
          end
      end

let migrate_out_begin ?(budget = default_retry_budget) t ~cvm ~session =
  host_call t "migrate_out_begin" ~cvm (fun () ->
      migrate_out_begin_impl t ~cvm ~session ~budget)

(* The migrate-out abort body: reactivate the source — it stays the one
   owner, but in a fresh epoch, so reports minted while the migration
   was pending do not outlive it — then retire the session. The
   reactivation and the epoch bump are one durable step, so a replay
   after it finds the CVM no longer [Migrating_out] and bumps nothing. *)
let out_abort_body ~record t s =
  (match Option.bind s.mg_cvm (find_cvm t) with
  | Some cvm when cvm.Cvm.state = Cvm.Migrating_out ->
      cvm.Cvm.state <- Cvm.Suspended;
      cvm.Cvm.epoch <- cvm.Cvm.epoch + 1
  | _ -> ());
  Journal.checkpoint t.journal record "released";
  s.mg_phase <- Mig_aborted

let migrate_out_abort t ~session =
  host_call t "migrate_out_abort" (fun () ->
      match find_session t Mig_out session with
      | None -> Error Ecall.Not_found
      | Some s -> begin
          match s.mg_phase with
          (* past the commit point the handoff is irrevocable *)
          | Mig_committed -> Error Ecall.Bad_state
          | Mig_aborted -> Ok ()
          | Mig_active ->
              journaled t (Journal.Op_mig_out_abort { session }) (fun record ->
                  out_abort_body ~record t s;
                  Metrics.Registry.inc t.registry "migrate.out_abort");
              Ok ()
        end)

(* The migrate-out commit body. Flip the session first so the destroy
   sweep leaves it Committed, then scrub the source instance through its
   own journaled destroy (a no-op once the CVM is gone). *)
let out_commit_body ~record t s =
  s.mg_phase <- Mig_committed;
  Journal.checkpoint t.journal record "committed";
  Option.iter (fun id -> ignore (destroy_cvm_impl t ~cvm:id)) s.mg_cvm

let migrate_out_commit t ~session =
  host_call t "migrate_out_commit" (fun () ->
      match find_session t Mig_out session with
      | None -> Error Ecall.Not_found
      | Some s -> begin
          match s.mg_phase with
          | Mig_aborted -> Error Ecall.Bad_state
          | Mig_committed -> Ok ()  (* idempotent: recovery retries land here *)
          | Mig_active when s.mg_cvm = None -> Error Ecall.Bad_state
          | Mig_active ->
              (* The commit point of the whole handoff: once the intent
                 lands the decision is irrevocable — recovery rolls it
                 forward even if the crash struck before the phase
                 flip. *)
              journaled t (Journal.Op_mig_out_commit { session }) (fun record ->
                  out_commit_body ~record t s;
                  Metrics.Registry.inc t.registry "migrate.out_commit");
              Ok ()
        end)

(* Does an in-session other than [session] hold the blob with [tag]?
   One sealed export may enter this monitor under one session only:
   recovery re-prepares under the same id, and a re-begin reuses the
   session's nonce, so honest retries never meet another session's
   tag. The check is sound because [Migrate.unseal] accepts exactly one
   encoding of each sealed export. *)
let tag_held_elsewhere t ~session tag =
  let own = session_key Mig_in session in
  Hashtbl.fold
    (fun key s held ->
      held || (s.mg_role = Mig_in && key <> own && s.mg_blob_tag = tag))
    t.sessions false

let migrate_in_prepare t ~session ~epoch blob =
  host_call t "migrate_in_prepare" (fun () ->
      if not (valid_session_id session) || epoch <= 0 then
        Error Ecall.Invalid_param
      else
        match find_session t Mig_in session with
        (* Session ids are single-use: a committed (or aborted) session
           never accepts another blob, which kills replay-of-committed-
           session attacks outright. *)
        | Some s when s.mg_phase <> Mig_active -> Error Ecall.Denied
        | Some s when epoch < s.mg_epoch -> Error Ecall.Bad_state
        | maybe -> begin
            let tag = blob_tag blob in
            match Migrate.unseal blob with
            (* the same export replayed under a second session id would
               build a clone of the guest *)
            | _ when tag_held_elsewhere t ~session tag -> Error Ecall.Denied
            | Error _ -> Error Ecall.Denied
            | Ok im -> begin
                journaled t
                  (Journal.Op_mig_in_prepare { session; epoch; built = None })
                @@ fun jr ->
                (* A newer epoch replaces any earlier prepared instance
                   of the same session. *)
                (match maybe with
                | Some s -> begin
                    match s.mg_cvm with
                    | Some old ->
                        ignore (destroy_cvm_impl t ~cvm:old);
                        (* the destroy sweep folded the session to
                           Aborted; it is being re-prepared, not dying *)
                        s.mg_phase <- Mig_active;
                        s.mg_cvm <- None
                    | None -> ()
                  end
                | None -> ());
                match
                  build_cvm_from_image t im
                    ~on_created:(fun id ->
                      (match jr.Journal.op with
                      | Journal.Op_mig_in_prepare p -> p.built <- Some id
                      | _ -> ());
                      Journal.checkpoint t.journal jr "built")
                with
                | Error e -> Error e
                | Ok id ->
                    (match maybe with
                    | Some s ->
                        s.mg_cvm <- Some id;
                        s.mg_epoch <- epoch;
                        s.mg_blob_tag <- tag
                    | None ->
                        Hashtbl.replace t.sessions
                          (session_key Mig_in session)
                          {
                            mg_role = Mig_in;
                            mg_phase = Mig_active;
                            mg_cvm = Some id;
                            mg_epoch = epoch;
                            mg_nonce = "";
                            mg_blob_tag = tag;
                            mg_stalls = 0;
                            mg_budget = 0;
                          });
                    Metrics.Registry.inc t.registry "migrate.in_prepare";
                    Ok id
              end
          end)

(* The migrate-in commit body: two durable flips. A crash between them
   would leave a Suspended CVM pinned by an Active session (the §8 audit
   violation), so both sides of the gap are journal points and a replay
   finishes whichever flip is missing. *)
let in_commit_body ~record t s cvm =
  if cvm.Cvm.state = Cvm.Migrating_in then cvm.Cvm.state <- Cvm.Suspended;
  Journal.checkpoint t.journal record "activated";
  s.mg_phase <- Mig_committed

let migrate_in_commit t ~session =
  host_call t "migrate_in_commit" (fun () ->
      match find_session t Mig_in session with
      | None -> Error Ecall.Not_found
      | Some s -> begin
          match (s.mg_phase, s.mg_cvm) with
          | Mig_aborted, _ | _, None -> Error Ecall.Bad_state
          | Mig_committed, Some id -> Ok id  (* idempotent *)
          | Mig_active, Some id -> begin
              match find_cvm t id with
              | Some cvm when cvm.Cvm.state = Cvm.Migrating_in ->
                  journaled t (Journal.Op_mig_in_commit { session })
                    (fun record ->
                      in_commit_body ~record t s cvm;
                      Metrics.Registry.inc t.registry "migrate.in_commit");
                  Ok id
              | _ -> Error Ecall.Bad_state
            end
        end)

(* The migrate-in abort body: scrub the prepared instance through its
   own journaled destroy (a no-op once it is gone), then retire the
   session. *)
let in_abort_body ~record t s =
  Option.iter (fun id -> ignore (destroy_cvm_impl t ~cvm:id)) s.mg_cvm;
  Journal.checkpoint t.journal record "scrubbed";
  s.mg_phase <- Mig_aborted;
  s.mg_cvm <- None

let migrate_in_abort t ~session =
  host_call t "migrate_in_abort" (fun () ->
      match find_session t Mig_in session with
      | None -> Error Ecall.Not_found
      | Some s -> begin
          match s.mg_phase with
          (* a destination that voted Prepared and then committed can
             never be talked back out of it *)
          | Mig_committed -> Error Ecall.Bad_state
          | Mig_aborted -> Ok ()
          | Mig_active ->
              journaled t (Journal.Op_mig_in_abort { session }) (fun record ->
                  in_abort_body ~record t s;
                  Metrics.Registry.inc t.registry "migrate.in_abort");
              Ok ()
        end)

type migration_info = {
  mi_role : [ `Out | `In ];
  mi_phase : [ `Active | `Committed | `Aborted ];
  mi_cvm : int option;
  mi_epoch : int;
  mi_blob_tag : string;
  mi_stalls : int;
  mi_budget : int;
}

let migrate_session t ~role ~session =
  let r = match role with `Out -> Mig_out | `In -> Mig_in in
  Option.map
    (fun s ->
      {
        mi_role = role;
        mi_phase =
          (match s.mg_phase with
          | Mig_active -> `Active
          | Mig_committed -> `Committed
          | Mig_aborted -> `Aborted);
        mi_cvm = s.mg_cvm;
        mi_epoch = s.mg_epoch;
        mi_blob_tag = s.mg_blob_tag;
        mi_stalls = s.mg_stalls;
        mi_budget = s.mg_budget;
      })
    (find_session t r session)

let migrate_note_stalls t ~session n =
  host_call t "migrate_note_stalls" (fun () ->
      match find_session t Mig_out session with
      | None -> Error Ecall.Not_found
      | Some s ->
          (* The budget declared at [migrate_out_begin] bounds what an
             honest endpoint can ever report — it aborts rather than
             retry past it. Reject anything outside [0, budget] so a
             hostile host cannot frame an active session as over-budget
             and dirty the audit with SM-recorded garbage. *)
          if n < 0 || n > s.mg_budget then Error Ecall.Invalid_param
          else begin
            if s.mg_phase = Mig_active then s.mg_stalls <- n;
            Ok ()
          end)
