(* Coalesced MMIO writes: the SM posts guest stores to registered
   latch-only device registers into the shared-vCPU ring instead of
   world-switching, and KVM applies them in order at the next real exit.
   Pins the analytic cost to the executed charge, checks what still
   exits, the hostile-host registration vectors, crash-reboot, and a
   differential oracle: the same random MMIO program with and without
   zones must leave the devices in the same state. *)

open Riscv

let mib n = Int64.mul (Int64.of_int n) 0x100000L
let guest_entry = 0x10000L
let net_tx_latch = Int64.add Zion.Layout.virtio_mmio_gpa 0x100L

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Zion.Ecall.error_to_string e)

let audit_clean mon =
  match Zion.Monitor.audit mon with
  | Ok _ -> ()
  | Error v -> Alcotest.failf "audit: %s" (String.concat "; " v)

(* ---------- monitor only: cost pins ---------- *)

let platform ?config () =
  let machine = Machine.create ~nharts:1 ~dram_size:(mib 64) () in
  let mon = Zion.Monitor.create ?config machine in
  ignore
    (ok "pool"
       (Zion.Monitor.register_secure_region mon
          ~base:(Int64.add Bus.dram_base (mib 32))
          ~size:(mib 2)));
  (machine, mon)

(* A CVM that makes [n] 8-byte stores to the net TX latch, then shuts
   down, with that register registered as a zone unless [zone] is
   false. *)
let latch_storer ?(zone = true) mon n =
  let prog =
    Asm.li Asm.t0 net_tx_latch
    @ Asm.li Asm.t1 0xABL
    @ List.init n (fun _ ->
          Decode.Store { rs1 = Asm.t0; rs2 = Asm.t1; imm = 0L; width = Decode.D })
    @ Guest.Gprog.shutdown
  in
  let id =
    ok "create" (Zion.Monitor.create_cvm mon ~nvcpus:1 ~entry_pc:guest_entry)
  in
  ok "load"
    (Zion.Monitor.load_image mon ~cvm:id ~gpa:guest_entry (Asm.program prog));
  ignore (ok "finalize" (Zion.Monitor.finalize_cvm mon ~cvm:id));
  if zone then
    ok "zone"
      (Zion.Monitor.register_coalesced_mmio mon ~cvm:id ~gpa:net_tx_latch
         ~size:8);
  id

let run mon id =
  ok "run" (Zion.Monitor.run_vcpu mon ~hart:0 ~cvm:id ~vcpu:0 ~max_steps:10_000)

let shared mon id =
  match Zion.Monitor.shared_vcpu_of mon ~cvm:id ~vcpu:0 with
  | Some sh -> sh
  | None -> Alcotest.fail "no shared vCPU"

let cat machine name = Metrics.Ledger.category_total machine.Machine.ledger name

(* Every [Monitor.path] variant against what the switch executes,
   under each config that changes a composition: a CVM without zones
   enters plain, exits on an MMIO store, re-enters with the reply and
   exits plain at shutdown. The plain figures are written out, so a
   drift shared by the composition and the executed path still shows;
   [Exp_switch] relies on the plain entry pin when it filters samples. *)
let every_path_pinned () =
  let d = Zion.Monitor.default_config in
  List.iter
    (fun (label, config, plain_entry, plain_exit) ->
      let machine, mon = platform ~config () in
      let id = latch_storer ~zone:false mon 1 in
      let entered () = cat machine "cvm_entry" in
      let last_exit () = List.hd (Zion.Monitor.exit_cycles mon) in
      let pin what path executed =
        Alcotest.(check int)
          (label ^ ": " ^ what)
          (Zion.Monitor.path_cost mon path)
          executed
      in
      let e0 = entered () in
      (match run mon id with
      | Zion.Monitor.Exit_mmio _ -> ()
      | r ->
          Alcotest.failf "%s: expected mmio, got %s" label
            (Zion.Monitor.exit_reason_label r));
      pin "plain entry" Zion.Monitor.Entry_plain (entered () - e0);
      pin "mmio exit" Zion.Monitor.Exit_with_mmio (last_exit ());
      if config.Zion.Monitor.shared_vcpu then
        (shared mon id).Zion.Vcpu.s_pc_advance <- 4L;
      let e1 = entered () in
      (match run mon id with
      | Zion.Monitor.Exit_shutdown -> ()
      | r ->
          Alcotest.failf "%s: expected shutdown, got %s" label
            (Zion.Monitor.exit_reason_label r));
      pin "mmio entry" Zion.Monitor.Entry_with_mmio (entered () - e1);
      pin "plain exit" Zion.Monitor.Exit_plain (last_exit ());
      Alcotest.(check (pair int int))
        (label ^ ": plain entry/exit figures")
        (plain_entry, plain_exit)
        ( Zion.Monitor.path_cost mon Zion.Monitor.Entry_plain,
          Zion.Monitor.path_cost mon Zion.Monitor.Exit_plain );
      audit_clean mon)
    [
      ("default", d, 4028, 2406);
      ("unshared", { d with shared_vcpu = false }, 4028, 2406);
      ("long path", { d with long_path = true }, 7282, 5384);
      ("tlb retention", { d with tlb_retention = true }, 3628, 2006);
    ]

let one_store_cost () =
  let machine, mon = platform () in
  Metrics.Trace.enable (Zion.Monitor.trace mon);
  let c = machine.Machine.cost in
  let id = latch_storer mon 1 in
  let sh = shared mon id in
  (* A host-written count never reaches the SM: it republishes its own. *)
  sh.Zion.Vcpu.s_coalesced_count <- 99;
  let t0 = cat machine "trap_entry"
  and s0 = cat machine "sm_mmio_coalesce"
  and x0 = cat machine "xret" in
  let exits0 = List.length (Zion.Monitor.exit_cycles mon) in
  (match run mon id with
  | Zion.Monitor.Exit_shutdown -> ()
  | r -> Alcotest.failf "expected shutdown, got %s" (Zion.Monitor.exit_reason_label r));
  Alcotest.(check int)
    "two traps: the store and the shutdown" (2 * c.Cost.trap_entry)
    (cat machine "trap_entry" - t0);
  Alcotest.(check int)
    "executed = coalesce_cost" (Zion.Monitor.coalesce_cost mon)
    (cat machine "sm_mmio_coalesce" - s0 + (cat machine "xret" - x0)
   + c.Cost.trap_entry);
  Alcotest.(check int)
    "coalesce_cost composition"
    (c.Cost.trap_entry + c.Cost.exit_cause_decode
    + (3 * c.Cost.shared_item_store) + c.Cost.xret)
    (Zion.Monitor.coalesce_cost mon);
  Alcotest.(check int)
    "only the shutdown exited" 1
    (List.length (Zion.Monitor.exit_cycles mon) - exits0);
  (match Zion.Vcpu.coalesced_writes sh with
  | [ w ] ->
      Alcotest.(check int64) "gpa" net_tx_latch w.Zion.Vcpu.mmio_gpa;
      Alcotest.(check int) "size" 8 w.Zion.Vcpu.mmio_size;
      Alcotest.(check int64) "data" 0xABL w.Zion.Vcpu.mmio_data
  | l -> Alcotest.failf "published %d writes, want 1" (List.length l));
  let scope = Metrics.Registry.Cvm id in
  Alcotest.(check int)
    "sm.mmio.coalesced" 1
    (Metrics.Registry.counter ~scope (Zion.Monitor.registry mon)
       "sm.mmio.coalesced");
  (match (Zion.Monitor.health_snapshot mon).Zion.Monitor.h_cvms with
  | [ th ] -> Alcotest.(check int) "health" 1 th.Zion.Monitor.th_mmio_coalesced
  | _ -> Alcotest.fail "one tenant expected");
  Alcotest.(check bool)
    "trace instant" true
    (List.exists
       (fun e -> e.Metrics.Trace.name = "sm.mmio.coalesced")
       (Metrics.Trace.events (Zion.Monitor.trace mon)));
  audit_clean mon;
  every_path_pinned ()

(* One store more than the ring holds: the overflow store takes the
   ordinary MMIO exit, charged exactly the shared-vCPU exit + entry
   pair, after the full ring is published. *)
let ring_full_store_exits () =
  let machine, mon = platform () in
  let cap = Zion.Vcpu.coalesced_ring_capacity in
  let id = latch_storer mon (cap + 1) in
  let per_store =
    Zion.Monitor.coalesce_cost mon - machine.Machine.cost.Cost.trap_entry
    - machine.Machine.cost.Cost.xret
  in
  let s0 = cat machine "sm_mmio_coalesce" in
  (match run mon id with
  | Zion.Monitor.Exit_mmio m ->
      Alcotest.(check bool) "write" true m.Zion.Vcpu.mmio_write;
      Alcotest.(check int64) "gpa" net_tx_latch m.Zion.Vcpu.mmio_gpa
  | r -> Alcotest.failf "expected mmio, got %s" (Zion.Monitor.exit_reason_label r));
  Alcotest.(check int)
    "ring published full" cap
    (List.length (Zion.Vcpu.coalesced_writes (shared mon id)));
  Alcotest.(check int)
    "coalesce charges" (cap * per_store)
    (cat machine "sm_mmio_coalesce" - s0);
  let exit_c = List.hd (Zion.Monitor.exit_cycles mon) in
  Alcotest.(check int)
    "exit = shared-vCPU MMIO exit"
    (Zion.Monitor.path_cost mon Zion.Monitor.Exit_with_mmio)
    exit_c;
  (shared mon id).Zion.Vcpu.s_pc_advance <- 4L;
  let e0 = cat machine "cvm_entry" in
  (match run mon id with
  | Zion.Monitor.Exit_shutdown -> ()
  | r -> Alcotest.failf "expected shutdown, got %s" (Zion.Monitor.exit_reason_label r));
  Alcotest.(check int)
    "entry = shared-vCPU MMIO entry"
    (Zion.Monitor.path_cost mon Zion.Monitor.Entry_with_mmio)
    (cat machine "cvm_entry" - e0);
  Alcotest.(check int)
    "nothing coalesced after the re-entry" 0
    (List.length (Zion.Vcpu.coalesced_writes (shared mon id)));
  audit_clean mon

(* ---------- full stack ---------- *)

let stack () =
  let machine = Machine.create ~nharts:1 ~dram_size:(mib 64) () in
  let mon = Zion.Monitor.create machine in
  let kvm = Hypervisor.Kvm.create ~machine ~monitor:mon ~disk_sectors:64 () in
  (match Hypervisor.Kvm.donate_secure_pool kvm ~mib:2 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (machine, mon, kvm)

let guest kvm prog =
  match
    Hypervisor.Kvm.create_cvm_guest kvm ~entry_pc:guest_entry
      ~image:[ (guest_entry, Asm.program (prog @ Guest.Gprog.shutdown)) ]
  with
  | Ok h -> h
  | Error e -> Alcotest.fail e

let run_to_end ?(quantum = 500_000) kvm h =
  match
    Hypervisor.Kvm.run_cvm_to_completion kvm h ~hart:0 ~quantum
      ~max_slices:5_000
  with
  | Hypervisor.Kvm.C_shutdown -> ()
  | Hypervisor.Kvm.C_timer | Hypervisor.Kvm.C_limit ->
      Alcotest.fail "guest never completed"
  | Hypervisor.Kvm.C_denied -> Alcotest.fail "denied"
  | Hypervisor.Kvm.C_error e -> Alcotest.fail e

let hostile_registrations () =
  List.iter
    (fun (name, attack) ->
      let _, _, kvm = stack () in
      let h = guest kvm (Guest.Gprog.hello "v") in
      match attack kvm h with
      | Hypervisor.Attacks.Blocked _ -> ()
      | Hypervisor.Attacks.Leaked why -> Alcotest.failf "%s: %s" name why)
    Hypervisor.Attacks.coalesce_vectors

(* Zones are soft state: after a crash-reboot a store that the SM
   coalesced before the crash exits again. Both guests were created
   (and given zones) before the crash. *)
let crash_reboot_drops_zones () =
  let _, mon, kvm = stack () in
  let prog = Guest.Gprog.net_send "x" in
  let before = guest kvm prog and after = guest kvm prog in
  run_to_end kvm before;
  Alcotest.(check int) "latch coalesced" 1 (Hypervisor.Kvm.coalesced_writes kvm);
  Alcotest.(check int) "doorbell exited" 1 (Hypervisor.Kvm.mmio_exits_serviced kvm);
  Zion.Monitor.crash_reboot mon;
  ignore (Zion.Monitor.recover mon : Zion.Monitor.recovery_report);
  run_to_end kvm after;
  Alcotest.(check int)
    "nothing coalesced after the reboot" 1
    (Hypervisor.Kvm.coalesced_writes kvm);
  Alcotest.(check int)
    "latch and doorbell both exited" 3
    (Hypervisor.Kvm.mmio_exits_serviced kvm);
  let net = Hypervisor.Mmio_emul.net (Hypervisor.Kvm.devices kvm) in
  Alcotest.(check (list string))
    "both packets sent" [ "x"; "x" ]
    (Hypervisor.Virtio_net.tx_packets net);
  audit_clean mon

(* ---------- differential oracle ---------- *)

module Sw = Guest.Swiotlb

type op =
  | Blk_desc of int * int * int  (** sector, op (0 read / 1 write), slot *)
  | Blk_fill of int * char  (** slot, byte *)
  | Blk_latch of bool  (** descriptor page, or the TX descriptor page *)
  | Blk_kick
  | Blk_status
  | Net_send of string
  | Net_tx_latch
  | Net_rx_latch of int  (** bounce slot *)
  | Net_rx_fill
  | Net_rx_len
  | Print_slot of int
  | Latch_run of int  (** back-to-back blk latch stores *)

let blk_reg off = Int64.add Zion.Layout.virtio_mmio_gpa off
let net_reg off = Int64.add Zion.Layout.virtio_mmio_gpa (Int64.add 0x100L off)

let store64 gpa v = Guest.Gprog.store_u64 ~gpa v
let store32 gpa v = Guest.Gprog.store_u32 ~gpa v

(* Load a register and print '0' + its value. *)
let load_print gpa =
  Asm.li Asm.t0 gpa
  @ [ Decode.Load
        { rd = Asm.t2; rs1 = Asm.t0; imm = 0L; width = Decode.W;
          unsigned = false };
      Decode.Op_imm (Decode.Add, Asm.a0, Asm.t2, 48L) ]
  @ Asm.li Asm.a7 Zion.Ecall.sbi_legacy_putchar
  @ [ Decode.Ecall ]

let rec code = function
  | Blk_desc (sector, op, slot) ->
      store64 Sw.desc_gpa (Int64.of_int sector)
      @ store32 (Int64.add Sw.desc_gpa 8L) 16L
      @ store32 (Int64.add Sw.desc_gpa 12L) (Int64.of_int op)
      @ store64 (Int64.add Sw.desc_gpa 16L) (Sw.slot_gpa slot)
  | Blk_fill (slot, byte) ->
      Guest.Gprog.fill_bytes ~gpa:(Sw.slot_gpa slot) ~byte ~len:16
  | Blk_latch desc ->
      store64 (blk_reg 0x00L) (if desc then Sw.desc_gpa else Sw.tx_desc_gpa)
  | Blk_kick -> store32 (blk_reg 0x08L) 1L
  | Blk_status -> load_print (blk_reg 0x10L)
  | Net_send pkt -> Guest.Gprog.net_send pkt
  | Net_tx_latch -> store64 (net_reg 0x00L) Sw.tx_desc_gpa
  | Net_rx_latch slot -> store64 (net_reg 0x18L) (Sw.slot_gpa slot)
  | Net_rx_fill -> store32 (net_reg 0x08L) 2L
  | Net_rx_len -> load_print (net_reg 0x10L)
  | Print_slot slot ->
      Asm.li Asm.t0 (Sw.slot_gpa slot)
      @ [ Decode.Load
            { rd = Asm.a0; rs1 = Asm.t0; imm = 0L; width = Decode.B;
              unsigned = true } ]
      @ Asm.li Asm.a7 Zion.Ecall.sbi_legacy_putchar
      @ [ Decode.Ecall ]
  | Latch_run n -> List.concat (List.init n (fun _ -> code (Blk_latch true)))

let show_op = function
  | Blk_desc (s, o, sl) -> Printf.sprintf "blk_desc(%d,%d,%d)" s o sl
  | Blk_fill (sl, c) -> Printf.sprintf "blk_fill(%d,%C)" sl c
  | Blk_latch d -> Printf.sprintf "blk_latch(%b)" d
  | Blk_kick -> "blk_kick"
  | Blk_status -> "blk_status"
  | Net_send p -> Printf.sprintf "net_send(%S)" p
  | Net_tx_latch -> "net_tx_latch"
  | Net_rx_latch s -> Printf.sprintf "net_rx_latch(%d)" s
  | Net_rx_fill -> "net_rx_fill"
  | Net_rx_len -> "net_rx_len"
  | Print_slot s -> Printf.sprintf "print_slot(%d)" s
  | Latch_run n -> Printf.sprintf "latch_run(%d)" n

let gen_op =
  let open QCheck.Gen in
  frequency
    [
      (2, map3 (fun s o sl -> Blk_desc (s, o, sl)) (int_bound 7) (int_bound 1) (int_bound 1));
      (2, map2 (fun sl c -> Blk_fill (sl, c)) (int_bound 1) (char_range 'a' 'z'));
      (3, map (fun d -> Blk_latch d) bool);
      (3, return Blk_kick);
      (2, return Blk_status);
      (2, map (fun p -> Net_send p) (string_size ~gen:(char_range 'A' 'Z') (int_range 1 6)));
      (2, return Net_tx_latch);
      (2, map (fun s -> Net_rx_latch s) (int_range 3 4));
      (2, return Net_rx_fill);
      (2, return Net_rx_len);
      (1, map (fun s -> Print_slot s) (int_range 3 4));
      (1, map (fun n -> Latch_run n) (int_range 1 20));
    ]

let latch_stores ops =
  List.fold_left
    (fun acc -> function
      | Blk_latch _ | Net_tx_latch | Net_rx_latch _ | Net_send _ -> acc + 1
      | Latch_run n -> acc + n
      | _ -> acc)
    0 ops

type outcome = {
  console : string;
  tx : string list;
  rx_pending : int;
  disk : string;
  blk_requests : int;
  exits : int;
  coalesced : int;
}

(* One arm on a fresh stack. Without zones: the SM has no unregister
   call, and a crash-reboot is the one way zones go away; it touches
   nothing the devices see. *)
let run_arm ~zones ops =
  let _, mon, kvm = stack () in
  let net = Hypervisor.Mmio_emul.net (Hypervisor.Kvm.devices kvm) in
  Hypervisor.Virtio_net.set_peer net (fun pkt -> Some ("r" ^ pkt));
  let h = guest kvm (List.concat_map code ops) in
  if not zones then begin
    Zion.Monitor.crash_reboot mon;
    ignore (Zion.Monitor.recover mon : Zion.Monitor.recovery_report)
  end;
  (* A short quantum puts timer exits between the stores, so the drain
     before the ring service is exercised too. *)
  run_to_end ~quantum:20_000 kvm h;
  audit_clean mon;
  let blk = Hypervisor.Mmio_emul.blk (Hypervisor.Kvm.devices kvm) in
  {
    console = Zion.Monitor.console_output mon;
    tx = Hypervisor.Virtio_net.tx_packets net;
    rx_pending = Hypervisor.Virtio_net.rx_pending net;
    disk = Hypervisor.Virtio_blk.read_backing blk ~sector:0 ~len:(8 * 512);
    blk_requests = Hypervisor.Virtio_blk.requests_served blk;
    exits = Hypervisor.Kvm.mmio_exits_serviced kvm;
    coalesced = Hypervisor.Kvm.coalesced_writes kvm;
  }

let oracle =
  QCheck.Test.make ~count:100
    ~name:"coalesced vs exitful: identical device-visible results"
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_op ops))
        Gen.(list_size (int_range 1 30) gen_op))
    (fun ops ->
      let w = run_arm ~zones:true ops and o = run_arm ~zones:false ops in
      let fail what = QCheck.Test.fail_reportf "%s differs" what in
      if w.console <> o.console then fail "console"
      else if w.tx <> o.tx then fail "tx packets"
      else if w.rx_pending <> o.rx_pending then fail "rx queue"
      else if w.disk <> o.disk then fail "disk"
      else if w.blk_requests <> o.blk_requests then fail "blk requests"
      else if o.coalesced <> 0 then fail "coalesced without zones"
      else if o.exits - w.exits <> w.coalesced then
        QCheck.Test.fail_reportf "exits %d vs %d, %d coalesced" w.exits o.exits
          w.coalesced
      else if latch_stores ops > 0 && w.coalesced = 0 then
        fail "no latch store coalesced"
      else true)

let suite =
  [
    ( "coalesced_mmio",
      [
        Alcotest.test_case "coalesce_cost equals the executed charge" `Quick
          one_store_cost;
        Alcotest.test_case "ring-full store is charged the exit + entry pair"
          `Quick ring_full_store_exits;
        Alcotest.test_case "hostile zone registrations get typed errors"
          `Quick hostile_registrations;
        Alcotest.test_case "crash_reboot drops zones: stores exit again"
          `Quick crash_reboot_drops_zones;
        QCheck_alcotest.to_alcotest oracle;
      ] );
  ]
