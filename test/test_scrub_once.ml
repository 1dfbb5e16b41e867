(* Scrub-once secure memory: the SM zeroes a secure page once per owner
   change and remembers it by its Physmem write generation; a fault that
   hands the page out again skips the scrub and its charge. Also pins
   the analytic fault cost to the executed ledger charge, and the PMP
   capacity check on pool expansion. *)

open Riscv

let mib n = Int64.mul (Int64.of_int n) 0x100000L
let guest_entry = 0x10000L
let data_gpa = 0x800000L
let block = 0x40000L
let pool_base = Int64.add Bus.dram_base (mib 128)
let region n = Int64.add pool_base (Int64.mul (Int64.of_int n) block)

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Zion.Ecall.error_to_string e)

(* One hart, so the stage-3 region setup is exactly the composition's. *)
let platform ?config ?(pool = mib 8) () =
  let machine = Machine.create ~dram_size:(mib 256) () in
  let mon = Zion.Monitor.create ?config machine in
  ignore
    (ok "pool"
       (Zion.Monitor.register_secure_region mon ~base:pool_base ~size:pool));
  (machine, mon)

(* A CVM whose image is [prog] padded to [image_pages] pages: a 64-page
   image fills the load block, so the first data fault grabs a block. *)
let make_cvm ?(image_pages = 1) mon prog =
  let id =
    ok "create" (Zion.Monitor.create_cvm mon ~nvcpus:1 ~entry_pc:guest_entry)
  in
  let code = Asm.program prog in
  let image =
    code ^ String.make ((image_pages * 4096) - String.length code) '\000'
  in
  ok "load" (Zion.Monitor.load_image mon ~cvm:id ~gpa:guest_entry image);
  ignore (ok "finalize" (Zion.Monitor.finalize_cvm mon ~cvm:id));
  id

let run mon id =
  ok "run"
    (Zion.Monitor.run_vcpu mon ~hart:0 ~cvm:id ~vcpu:0 ~max_steps:100_000)

let expect_exit name mon id =
  let got = Zion.Monitor.exit_reason_label (run mon id) in
  if got <> name then Alcotest.failf "expected %s exit, got %s" name got

let expect_shutdown = expect_exit "shutdown"

let touch_one =
  Guest.Gprog.touch_pages ~start_gpa:data_gpa ~pages:1 @ Guest.Gprog.shutdown

(* Load the first byte of the data page and print 'A' + that byte. *)
let read_one =
  Asm.li Asm.t0 data_gpa
  @ [
      Decode.Load
        {
          rd = Asm.a0;
          rs1 = Asm.t0;
          imm = 0L;
          width = Decode.B;
          unsigned = true;
        };
      Decode.Op_imm (Decode.Add, Asm.a0, Asm.a0, 65L);
    ]
  @ Asm.li Asm.a7 Zion.Ecall.sbi_legacy_putchar
  @ [ Decode.Ecall ] @ Guest.Gprog.shutdown

let cat machine name =
  Metrics.Ledger.category_total machine.Machine.ledger name

let cost mon = (Zion.Monitor.machine mon).Machine.cost

let last_fault mon =
  match Zion.Monitor.fault_log mon with
  | f :: _ -> f
  | [] -> Alcotest.fail "no fault recorded"

let audit_clean mon =
  match Zion.Monitor.audit mon with
  | Ok _ -> ()
  | Error v -> Alcotest.failf "audit: %s" (String.concat "; " v)

let check_stage want got =
  Alcotest.(check string)
    "stage"
    (Zion.Hier_alloc.stage_to_string want)
    (Zion.Hier_alloc.stage_to_string got)

(* Run a one-fault guest (stage 1 or 2): returns the fault's stage, its
   logged cycles and its executed charge, the SM's [sm_fault] plus the
   hardware trap. The run traps twice: the fault, then shutdown. *)
let one_fault machine mon id =
  let trap = (cost mon).Cost.trap_entry in
  let f0 = cat machine "sm_fault" and t0 = cat machine "trap_entry" in
  expect_shutdown mon id;
  Alcotest.(check int) "two traps" (2 * trap) (cat machine "trap_entry" - t0);
  let stage, cycles = last_fault mon in
  (stage, cycles, cat machine "sm_fault" - f0 + trap)

(* Stage 3: the first run exits for memory; the test stands in for the
   host, runs [between], registers [region] and re-runs. The executed
   charge is the need-memory trap and exit, the host's registration work
   (which [Hypervisor.Kvm] charges), the region setup, the re-entry and
   the served re-fault (trap + sm_fault). *)
let stage3_fault ?(between = ignore) machine mon id ~region =
  let c = cost mon in
  let snap () =
    List.map (cat machine)
      [ "trap_entry"; "cvm_exit"; "cvm_entry"; "sm_region_setup"; "sm_fault" ]
  in
  let before = snap () in
  expect_exit "need_memory" mon id;
  between ();
  ignore
    (ok "expand"
       (Zion.Monitor.register_secure_region mon ~base:region ~size:block));
  let mid = snap () in
  expect_shutdown mon id;
  let after = snap () in
  let delta a b = List.map2 (fun x y -> y - x) a b in
  match (delta before mid, delta mid after) with
  | [ trap1; exit1; _; setup; _ ], [ traps2; _; entry2; _; fault2 ] ->
      Alcotest.(check int)
        "re-fault + shutdown traps" (2 * c.Cost.trap_entry) traps2;
      let stage, cycles = last_fault mon in
      ( stage,
        cycles,
        trap1 + exit1 + c.Cost.expand_host_work + setup + entry2
        + c.Cost.trap_entry + fault2 )
  | _ -> assert false

let check_fault ~config mon ~stage ~prezeroed (got_stage, logged, executed) =
  let want = Zion.Monitor.fault_cost ~prezeroed mon stage in
  check_stage stage got_stage;
  Alcotest.(check int) (config ^ ": logged = analytic") want logged;
  Alcotest.(check int) (config ^ ": executed = analytic") want executed

(* Every fault stage, dirty and prezeroed, under one configuration:
   stage 3's composition depends on it through the expansion round
   trip. *)
let analytic_equals_executed_under (name, config) =
  let open Zion.Hier_alloc in
  let check_fault = check_fault ~config:name in
  let platform = platform ~config in
  (* Stage 1: a one-page image leaves the load block's cache warm. *)
  let machine, mon = platform () in
  let a = make_cvm mon touch_one in
  check_fault mon ~stage:Stage1 ~prezeroed:false (one_fault machine mon a);
  ok "destroy" (Zion.Monitor.destroy_cvm mon ~cvm:a);
  let b = make_cvm mon touch_one in
  check_fault mon ~stage:Stage1 ~prezeroed:true (one_fault machine mon b);
  audit_clean mon;
  (* Stage 2: a 64-page image uses up the load block. *)
  let machine, mon = platform () in
  let a = make_cvm ~image_pages:64 mon touch_one in
  check_fault mon ~stage:Stage2 ~prezeroed:false (one_fault machine mon a);
  ok "destroy" (Zion.Monitor.destroy_cvm mon ~cvm:a);
  let b = make_cvm ~image_pages:64 mon touch_one in
  check_fault mon ~stage:Stage2 ~prezeroed:true (one_fault machine mon b);
  audit_clean mon;
  (* Stage 3: the root and load blocks exhaust a two-block pool; the
     retry lands on a fresh region. *)
  let machine, mon = platform ~pool:(Int64.mul 2L block) () in
  let a = make_cvm ~image_pages:64 mon touch_one in
  check_fault mon ~stage:Stage3_retry ~prezeroed:false
    (stage3_fault machine mon a ~region:(region 2));
  (* Destroying [a] frees three recorded blocks; [b] and [hog] take them
     all, [b] exhausts the pool, [hog] dies, and [b]'s retry lands on
     the hog's scrubbed root block, below the new region. *)
  ok "destroy" (Zion.Monitor.destroy_cvm mon ~cvm:a);
  let b = make_cvm ~image_pages:64 mon touch_one in
  let hog =
    ok "hog" (Zion.Monitor.create_cvm mon ~nvcpus:1 ~entry_pc:guest_entry)
  in
  Alcotest.(check int)
    "pool exhausted" 0
    (Zion.Secmem.free_blocks (Zion.Monitor.secmem mon));
  let between () = ok "destroy hog" (Zion.Monitor.destroy_cvm mon ~cvm:hog) in
  check_fault mon ~stage:Stage3_retry ~prezeroed:true
    (stage3_fault ~between machine mon b ~region:(region 3));
  audit_clean mon

let analytic_equals_executed () =
  let d = Zion.Monitor.default_config in
  List.iter analytic_equals_executed_under
    [
      ("default", d);
      ("unshared", { d with shared_vcpu = false });
      ("long-path", { d with long_path = true });
      ("retention", { d with tlb_retention = true });
      ("validate-shared", { d with validate_shared_on_entry = true });
    ]

(* Three lifecycles of the same reader guest: fresh pool (dirty), reuse
   (prezeroed), and reuse after a nonzero byte was written straight into
   every recorded page behind the SM's back. *)
let tampered_page_is_rezeroed () =
  let machine, mon = platform () in
  let stage1 = Zion.Hier_alloc.Stage1 in
  let dirty = Zion.Monitor.fault_cost mon stage1 in
  let clean = Zion.Monitor.fault_cost ~prezeroed:true mon stage1 in
  let lifecycle ?(tamper = false) ~want () =
    let before = String.length (Zion.Monitor.console_output mon) in
    let id = make_cvm mon read_one in
    if tamper then begin
      let recorded = Zion.Monitor.prezeroed_pages mon in
      Alcotest.(check bool) "pages recorded" true (recorded <> []);
      List.iter
        (fun pa ->
          Physmem.write_u8
            (Bus.dram machine.Machine.bus)
            (Int64.sub pa Bus.dram_base) 0x5A)
        recorded;
      Alcotest.(check (list int64))
        "tamper voids every record" []
        (Zion.Monitor.prezeroed_pages mon)
    end;
    expect_shutdown mon id;
    let out = Zion.Monitor.console_output mon in
    Alcotest.(check string)
      "guest reads 0" "A"
      (String.sub out before (String.length out - before));
    let stage, cycles = last_fault mon in
    check_stage stage1 stage;
    Alcotest.(check int) "fault charge" want cycles;
    audit_clean mon;
    ok "destroy" (Zion.Monitor.destroy_cvm mon ~cvm:id);
    audit_clean mon
  in
  lifecycle ~want:dirty ();
  lifecycle ~want:clean ();
  lifecycle ~tamper:true ~want:dirty ()

(* A relinquished page is scrubbed once by the ecall; the fault that
   reuses it does not zero it again. *)
let relinquished_page_reuse () =
  let _, mon = platform () in
  let touch gpa = Guest.Gprog.touch_pages ~start_gpa:gpa ~pages:1 in
  let give_back = touch data_gpa @ Guest.Gprog.relinquish ~gpa:data_gpa in
  let id =
    make_cvm mon
      (give_back @ touch (Int64.add data_gpa 0x1000L) @ Guest.Gprog.shutdown)
  in
  expect_shutdown mon id;
  let stage, cycles = last_fault mon in
  check_stage Zion.Hier_alloc.Stage1 stage;
  Alcotest.(check int)
    "reuse charged clean"
    (Zion.Monitor.fault_cost ~prezeroed:true mon stage)
    cycles;
  audit_clean mon;
  (* Relinquished and not yet reused: the audit accepts the record of a
     page still held in its owner's freed pool. *)
  let id2 = make_cvm mon (give_back @ Guest.Gprog.shutdown) in
  expect_shutdown mon id2;
  audit_clean mon

(* The record is volatile SM state: after a crash nothing vouches for
   any page, so the next fault zeroes and is charged the dirty cost. *)
let crash_drops_record () =
  let _, mon = platform () in
  let a = make_cvm mon touch_one in
  expect_shutdown mon a;
  ok "destroy" (Zion.Monitor.destroy_cvm mon ~cvm:a);
  Alcotest.(check bool)
    "recorded" true
    (Zion.Monitor.prezeroed_pages mon <> []);
  Zion.Monitor.crash_reboot mon;
  Alcotest.(check (list int64)) "dropped" [] (Zion.Monitor.prezeroed_pages mon);
  ignore (Zion.Monitor.recover mon);
  let b = make_cvm mon touch_one in
  expect_shutdown mon b;
  let stage, cycles = last_fault mon in
  Alcotest.(check int)
    "dirty after crash" (Zion.Monitor.fault_cost mon stage) cycles;
  audit_clean mon

(* The clean-page share is visible in the registry and on the trace. *)
let prezeroed_is_observable () =
  let _, mon = platform () in
  Metrics.Trace.enable (Zion.Monitor.trace mon);
  let a = make_cvm mon touch_one in
  expect_shutdown mon a;
  ok "destroy" (Zion.Monitor.destroy_cvm mon ~cvm:a);
  let b = make_cvm mon touch_one in
  expect_shutdown mon b;
  let prezeroed id =
    Metrics.Registry.counter ~scope:(Metrics.Registry.Cvm id)
      (Zion.Monitor.registry mon) "faults.prezeroed"
  in
  Alcotest.(check int) "fresh pool: none" 0 (prezeroed a);
  Alcotest.(check int) "reuse: one" 1 (prezeroed b);
  let args =
    List.filter_map
      (fun (e : Metrics.Trace.event) ->
        if e.Metrics.Trace.name = "fault.stage1" then
          List.assoc_opt "prezeroed" e.Metrics.Trace.args
        else None)
      (Metrics.Trace.events (Zion.Monitor.trace mon))
  in
  Alcotest.(check (list string)) "trace args" [ "false"; "true" ] args

(* Pool expansion is capped by PMP entries. A refused region must be
   neither journaled nor linked: linked, its blocks would be allocatable
   while the guard cannot close them to HS. *)
let expect_refused mon what ~base ~size =
  let sm = Zion.Monitor.secmem mon in
  let free = Zion.Secmem.free_blocks sm in
  let regions = List.length (Zion.Secmem.regions sm) in
  let journal = Zion.Journal.length (Zion.Monitor.journal mon) in
  (match Zion.Monitor.register_secure_region mon ~base ~size with
  | Error Zion.Ecall.Invalid_param -> ()
  | Ok _ -> Alcotest.failf "%s accepted" what
  | Error e -> Alcotest.failf "%s: %s" what (Zion.Ecall.error_to_string e));
  Alcotest.(check int)
    (what ^ ": free blocks") free
    (Zion.Secmem.free_blocks sm);
  Alcotest.(check int)
    (what ^ ": regions") regions
    (List.length (Zion.Secmem.regions sm));
  Alcotest.(check int)
    (what ^ ": journal") journal
    (Zion.Journal.length (Zion.Monitor.journal mon));
  audit_clean mon

let pmp_capacity_refusal () =
  let mon = Zion.Monitor.create (Machine.create ~dram_size:(mib 256) ()) in
  let cap = Zion.Pmp_guard.max_regions in
  for i = 0 to cap - 1 do
    ignore
      (ok "expand"
         (Zion.Monitor.register_secure_region mon ~base:(region i) ~size:block))
  done;
  expect_refused mon "expansion 15" ~base:(region cap) ~size:block;
  (* A region the PMP cannot encode as NAPOT is refused the same way,
     even with entries to spare. *)
  let mon = Zion.Monitor.create (Machine.create ~dram_size:(mib 256) ()) in
  expect_refused mon "non-NAPOT region" ~base:pool_base
    ~size:(Int64.mul 3L block)

let suite =
  [
    ( "scrub_once",
      [
        Alcotest.test_case "analytic fault cost = executed ledger charge"
          `Quick analytic_equals_executed;
        Alcotest.test_case "tampered prezeroed page is re-zeroed" `Quick
          tampered_page_is_rezeroed;
        Alcotest.test_case "relinquished page is reused without re-zeroing"
          `Quick relinquished_page_reuse;
        Alcotest.test_case "crash reboot drops the clean-page record" `Quick
          crash_drops_record;
        Alcotest.test_case "prezeroed faults are counted and traced" `Quick
          prezeroed_is_observable;
        Alcotest.test_case "15th pool expansion is refused, nothing linked"
          `Quick pmp_capacity_refusal;
      ] );
  ]
