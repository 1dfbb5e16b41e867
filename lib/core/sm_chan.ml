(* Attested inter-CVM channels: the channel table's plumbing (teardown,
   roll-back and the implicit revoke sweep the lifecycle calls run), the
   channel host calls, and Check-after-Load over the peer-writable ring
   headers. *)

open Riscv
open Sm_state

let chan_max_strikes = 3

let find_channel t id = Hashtbl.find_opt t.channels id

let chan_live ch =
  match ch.ch_phase with
  | Chan_offered | Chan_established -> true
  | Chan_revoked | Chan_degraded -> false

let chan_counter t ~cvm name =
  Metrics.Registry.inc t.registry ~scope:(Metrics.Registry.Cvm cvm) name

(* Drop the slot mapping from both endpoints wherever it still points at
   the ring page [pa]. *)
let chan_unmap_slot t ch pa =
  List.iter
    (fun id ->
      match find_alive t id with
      | Some cvm when Spt.lookup cvm.Cvm.spt ~gpa:ch.ch_gpa = Some pa ->
          ignore (Spt.unmap_private cvm.Cvm.spt ~gpa:ch.ch_gpa)
      | _ -> ())
    [ ch.ch_a; ch.ch_b ]

(* The channel teardown body (revoke, degrade, and the implicit revokes
   of destroy/quarantine/migrate-out): drop the slot mapping from both
   endpoints, scrub the ring page, shoot it down precisely on both
   VMIDs, and return the block to the pool. Live calls and recovery run
   it alike, from any torn state, so every step tolerates having already
   happened; [record] receives the checkpoints that make the
   intermediate states reachable crash points. *)
let chan_teardown ~record t ch ~phase ~reason =
  if chan_live ch then begin
    (match ch.ch_page with
     | None -> ()
     | Some pa ->
         chan_unmap_slot t ch pa;
         Journal.checkpoint t.journal record "chan-unmapped";
         zero_phys t pa (Int64.of_int Layout.chan_ring_size);
         charge t "sm_scrub" t.cost.Cost.page_scrub;
         (* Either endpoint may retain the translation on any hart:
            shoot the page down precisely, scoped per VMID. *)
         fence_harts t (fun tlb ->
             Tlb.flush_pa ~vmid:ch.ch_a tlb pa;
             Tlb.flush_pa ~vmid:ch.ch_b tlb pa);
         charge t "sm_shootdown"
           (2 * Array.length t.machine.Machine.harts
           * t.cost.Cost.tlb_vmid_flush);
         Journal.checkpoint t.journal record "chan-scrubbed";
         if not (Secmem.is_free_base t.sm pa) then
           ignore (Hier_alloc.reclaim_base t.sm ~base:pa);
         ch.ch_page <- None);
    ch.ch_phase <- phase;
    ch.ch_reason <- Some reason;
    if obs t then
      Metrics.Trace.instant t.trace
        ~args:[ ("chan", string_of_int ch.ch_id); ("reason", reason) ]
        "chan.teardown"
  end

(* Roll a channel back to the offered state: whichever slot mappings
   landed are removed and the delivery shadows reset. TLBs are cold
   after a reboot and the live caller never published the mapping, so
   no shootdown is owed. *)
let chan_unaccept t ch =
  Option.iter (chan_unmap_slot t ch) ch.ch_page;
  ch.ch_phase <- Chan_offered;
  ch.ch_seq_ab <- 0L;
  ch.ch_seq_ba <- 0L;
  ch.ch_strikes <- 0

(* Implicit revoke: every live channel touching [id] dies with it. Runs
   inside the caller's journal window (destroy, quarantine, migrate-out
   commit), so replaying the enclosing record re-runs the sweep. *)
let chan_sweep_for ~record t id ~reason =
  Hashtbl.iter
    (fun _ ch ->
      if chan_live ch && (ch.ch_a = id || ch.ch_b = id) then begin
        chan_teardown ~record t ch ~phase:Chan_revoked ~reason;
        chan_counter t ~cvm:id "sm.chan.revokes"
      end)
    t.channels

(* The ring page layout (see Layout): two directional halves, each
   [seq:u64][len:u64][payload]. The owner of a half bumps seq after
   writing payload+len; the SM keeps the last *delivered* seq per
   direction as its shadow, so Check-after-Load at consume time never
   trusts a header field it has not bounded. *)

let chan_runaway_bound = 0x100000L
(* A producer may run ahead of deliveries, but not by 2^20 messages:
   past that the seq is garbage, not backlog. *)

let chan_dir_base ch ~from_a =
  match ch.ch_page with
  | None -> invalid_arg "chan_dir_base: channel holds no ring page"
  | Some pa ->
      if from_a then pa else Int64.add pa (Int64.of_int Layout.chan_dir_off)

(* Generate [cvm]'s attestation report over [nonce], MAC-bound to its
   current lifecycle epoch. *)
let chan_report (cvm : Cvm.t) ~measurement ~nonce =
  Attest.make_report ~cvm_id:cvm.Cvm.id ~epoch:cvm.Cvm.epoch ~measurement
    ~nonce

(* The endpoint checks grant and accept share: both CVMs exist, neither
   is quarantined, both are live and finalized. Returns both CVMs with
   their measurements. *)
let chan_endpoints t a_id b_id =
  match (find_cvm t a_id, find_cvm t b_id) with
  | None, _ | _, None -> Error Ecall.Not_found
  | Some a, Some b -> (
      if a.Cvm.state = Cvm.Quarantined || b.Cvm.state = Cvm.Quarantined then
        Error Ecall.Quarantined
      else if not (cvm_live a && cvm_live b) then
        Error Ecall.Bad_state
      else
        match (a.Cvm.measurement, b.Cvm.measurement) with
        | Some ma, Some mb -> Ok (a, b, ma, mb)
        | None, _ | _, None -> Error Ecall.Bad_state)

let chan_grant_impl t ~cvm:a_id ~peer:b_id ~nonce ~expect =
  if not (Attest.valid_nonce nonce) then Error Ecall.Invalid_param
  else if a_id = b_id then Error Ecall.Invalid_param
  else
    match chan_endpoints t a_id b_id with
    | Error e -> Error e
    | Ok (a, b, _, mb) -> (
        (* The granter's admission policy: nothing is allocated for a peer
           whose current measurement is not the one the granter
           expects. *)
        if not (Attest.constant_time_eq mb expect) then begin
          chan_counter t ~cvm:a_id "sm.chan.peer_rejects";
          Error Ecall.Denied
        end
        else if t.next_chan_id >= Layout.chan_slots then Error Ecall.No_memory
        else
          match Secmem.peek_block_base t.sm with
          | None -> Error Ecall.No_memory
          | Some block_base -> (
              let id = t.next_chan_id in
              journaled t
                (Journal.Op_chan_grant
                   { chan = id; a = a_id; b = b_id; block_base })
              @@ fun jr ->
              t.next_chan_id <- id + 1;
              match Secmem.alloc_block t.sm with
              | None -> Error Ecall.No_memory (* unreachable: peek saw one *)
              | Some blk ->
                  Journal.checkpoint t.journal jr "block";
                  let pa = Secmem.block_base blk in
                  zero_phys t pa (Int64.of_int Layout.chan_ring_size);
                  charge t "sm_chan"
                    (t.cost.Cost.block_grab + t.cost.Cost.page_scrub);
                  let ch =
                    {
                      ch_id = id;
                      ch_a = a_id;
                      ch_b = b_id;
                      ch_phase = Chan_offered;
                      ch_page = Some pa;
                      ch_gpa = Layout.chan_slot_gpa id;
                      ch_epoch_a = a.Cvm.epoch;
                      ch_epoch_b = b.Cvm.epoch;
                      ch_seq_ab = 0L;
                      ch_seq_ba = 0L;
                      ch_strikes = 0;
                      ch_reason = None;
                    }
                  in
                  Hashtbl.replace t.channels id ch;
                  Journal.checkpoint t.journal jr "registered";
                  chan_counter t ~cvm:a_id "sm.chan.grants";
                  if obs t then
                    Metrics.Trace.instant t.trace ~cvm:a_id
                      ~args:
                        [
                          ("chan", string_of_int id);
                          ("peer", string_of_int b_id);
                        ]
                      "chan.grant";
                  (* The peer's report over the granter's nonce, bound to
                     the peer's current epoch: the granter verifies it
                     before telling its guest the channel id. *)
                  Ok (id, chan_report b ~measurement:mb ~nonce)))

let chan_grant t ~cvm ~peer ~nonce ~expect =
  host_call t "chan_grant" ~cvm (fun () ->
      chan_grant_impl t ~cvm ~peer ~nonce ~expect)

let chan_accept_impl t ~chan ~cvm:b_id ~nonce ~expect =
  if not (Attest.valid_nonce nonce) then Error Ecall.Invalid_param
  else
    match find_channel t chan with
    | None -> Error Ecall.Not_found
    | Some ch when ch.ch_b <> b_id -> Error Ecall.Denied
    | Some { ch_phase = Chan_established | Chan_revoked | Chan_degraded; _ }
      ->
        Error Ecall.Bad_state
    | Some ch -> (
        match chan_endpoints t ch.ch_a ch.ch_b with
        | Error e -> Error e
        | Ok (a, b, ma, _) ->
            (* Freshness: the offer's attestation evidence is only as
               current as the endpoints' epochs. Any lifecycle transition
               since (a migrate-out lock or release) makes the offer
               stale, so a pre-migration report cannot be replayed to
               establish a channel. *)
            if
              a.Cvm.epoch <> ch.ch_epoch_a
              || b.Cvm.epoch <> ch.ch_epoch_b
              || not (Attest.constant_time_eq ma expect)
            then begin
              chan_counter t ~cvm:b_id "sm.chan.peer_rejects";
              Error Ecall.Denied
            end
            else
              let pa =
                match ch.ch_page with
                | Some pa -> pa
                | None -> assert false (* offered holds a page *)
              in
              (* The slot must be free in both private halves: a
                 demand-paged page at the slot GPA would alias a mapping
                 the guest already relies on. *)
              if
                Spt.lookup a.Cvm.spt ~gpa:ch.ch_gpa <> None
                || Spt.lookup b.Cvm.spt ~gpa:ch.ch_gpa <> None
              then Error Ecall.Already_exists
              else begin
                journaled t (Journal.Op_chan_accept { chan }) @@ fun jr ->
                match
                  Spt.map_private a.Cvm.spt ~gpa:ch.ch_gpa ~pa ~writable:true
                with
                | Error _ -> Error Ecall.No_memory
                | Ok () -> (
                    Journal.checkpoint t.journal jr "map-a";
                    match
                      Spt.map_private b.Cvm.spt ~gpa:ch.ch_gpa ~pa
                        ~writable:true
                    with
                    | Error _ ->
                        chan_unaccept t ch;
                        Error Ecall.No_memory
                    | Ok () ->
                        Journal.checkpoint t.journal jr "map-b";
                        ch.ch_phase <- Chan_established;
                        ch.ch_seq_ab <- 0L;
                        ch.ch_seq_ba <- 0L;
                        ch.ch_strikes <- 0;
                        charge t "sm_chan" (2 * t.cost.Cost.gstage_map);
                        chan_counter t ~cvm:b_id "sm.chan.accepts";
                        if obs t then
                          Metrics.Trace.instant t.trace ~cvm:b_id
                            ~args:[ ("chan", string_of_int chan) ]
                            "chan.accept";
                        Ok (chan_report a ~measurement:ma ~nonce))
              end)

let chan_accept t ~chan ~cvm ~nonce ~expect =
  host_call t "chan_accept" ~cvm (fun () ->
      chan_accept_impl t ~chan ~cvm ~nonce ~expect)

let chan_revoke_impl t ~chan ~cvm:id =
  match find_channel t chan with
  | None -> Error Ecall.Not_found
  | Some ch ->
      if ch.ch_a <> id && ch.ch_b <> id then Error Ecall.Denied
      else if not (chan_live ch) then Ok () (* idempotent *)
      else begin
        journaled t (Journal.Op_chan_revoke { chan; degraded = false })
          (fun record ->
            chan_teardown ~record t ch ~phase:Chan_revoked
              ~reason:"revoked by endpoint";
            chan_counter t ~cvm:id "sm.chan.revokes");
        Ok ()
      end

let chan_revoke t ~chan ~cvm =
  host_call t "chan_revoke" ~cvm (fun () -> chan_revoke_impl t ~chan ~cvm)

(* PR 8's Byzantine discipline aimed at a hostile *peer*: one strike per
   rejected header field; at the budget the channel — never the CVM —
   is one-way degraded (journaled, scrubbed, unmapped, block
   reclaimed). *)
let chan_strike t ch ~victim verdict =
  ch.ch_strikes <- ch.ch_strikes + 1;
  chan_counter t ~cvm:victim "sm.chan.peer_rejects";
  if obs t then
    Metrics.Trace.instant t.trace ~cvm:victim
      ~args:[ ("chan", string_of_int ch.ch_id); ("verdict", verdict) ]
      "chan.cal_reject";
  if ch.ch_strikes >= chan_max_strikes && chan_live ch then begin
    journaled t (Journal.Op_chan_revoke { chan = ch.ch_id; degraded = true })
    @@ fun record ->
    chan_teardown ~record t ch ~phase:Chan_degraded
      ~reason:(Printf.sprintf "strike budget exhausted (%s)" verdict);
    chan_counter t ~cvm:victim "sm.chan.degradations"
  end

(* Check-after-Load over one peer-writable directional half: load seq
   and len exactly once, bound them against the SM's shadow, and only
   then classify. *)
type chan_msg = Chan_idle | Chan_msg of int64 * int | Chan_bad of string

let chan_check_dir t ch ~from_a ~shadow =
  let bus = t.machine.Machine.bus in
  let base = chan_dir_base ch ~from_a in
  let seq = Bus.read bus base 8 in
  let len = Bus.read bus (Int64.add base 8L) 8 in
  charge t "sm_chan" (2 * t.cost.Cost.check_after_load);
  if seq = shadow then Chan_idle
  else if Xword.ult seq shadow then Chan_bad "seq_rewind"
  else if Xword.ult (Int64.add shadow chan_runaway_bound) seq then
    Chan_bad "seq_runaway"
  else if len < 1L || len > Int64.of_int Layout.chan_max_msg then
    Chan_bad "bad_len"
  else Chan_msg (seq, Int64.to_int len)

(* Host-driveable watchdog: validate both halves' headers without
   delivering anything. Returns [Ok true] while the channel stays live,
   [Ok false] once it is dead (now or before) — degradation is not an
   error, it is the one-way outcome the host polls for. *)
let chan_poll_impl t ~chan =
  match find_channel t chan with
  | None -> Error Ecall.Not_found
  | Some ch ->
      if not (chan_live ch) then Ok false
      else begin
        if ch.ch_phase = Chan_established then begin
          (match chan_check_dir t ch ~from_a:true ~shadow:ch.ch_seq_ab with
          | Chan_bad v -> chan_strike t ch ~victim:ch.ch_b v
          | Chan_idle | Chan_msg _ -> ());
          if chan_live ch then
            match chan_check_dir t ch ~from_a:false ~shadow:ch.ch_seq_ba with
            | Chan_bad v -> chan_strike t ch ~victim:ch.ch_a v
            | Chan_idle | Chan_msg _ -> ()
        end;
        Ok (chan_live ch)
      end

let chan_poll t ~chan = host_call t "chan_poll" (fun () -> chan_poll_impl t ~chan)

type chan_info = {
  ci_id : int;
  ci_a : int;
  ci_b : int;
  ci_phase : string;
  ci_gpa : int64;
  ci_page : int64 option;
  ci_strikes : int;
  ci_reason : string option;
}

let chan_phase_to_string = function
  | Chan_offered -> "offered"
  | Chan_established -> "established"
  | Chan_revoked -> "revoked"
  | Chan_degraded -> "degraded"

let chan_info t ~chan =
  Option.map
    (fun ch ->
      {
        ci_id = ch.ch_id;
        ci_a = ch.ch_a;
        ci_b = ch.ch_b;
        ci_phase = chan_phase_to_string ch.ch_phase;
        ci_gpa = ch.ch_gpa;
        ci_page = ch.ch_page;
        ci_strikes = ch.ch_strikes;
        ci_reason = ch.ch_reason;
      })
    (find_channel t chan)

let chan_list t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.channels []
  |> List.sort compare
  |> List.filter_map (fun id -> chan_info t ~chan:id)

