(* The four real-guest workloads. Each is a closed loop driven by one
   guest on a fresh [Platform.Testbed]; one repetition ("rep") is a
   fixed amount of work, so every modeled number of a rep is a pure
   function of the seed. *)

open Riscv
module Tb = Platform.Testbed
module Kvm = Hypervisor.Kvm
module Mon = Zion.Monitor
module Ledger = Metrics.Ledger

let host_s f =
  let t0 = Monotonic_clock.now () in
  let v = f () in
  (v, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9)

(* Monotonic time (ns) after which guests are no longer scheduled
   ([run_to_end] gives up with [C_limit]), so that a run ends in
   bounded time even if a guest hangs. Set by the caller. *)
let deadline = ref Int64.max_int

let past_deadline () = Int64.compare (Monotonic_clock.now ()) !deadline > 0

type rep = {
  setup_s : float;  (** nothing -> runnable CVM *)
  testbed_create_s : float;
  assemble_s : float;
  timed_s : float;  (** host seconds of the timed phase *)
  ops : int;
  failed : int;
  modeled : (string * string * float) list;
      (** (name, unit, value), deterministic at the seed *)
  timed_cycles : int;  (** ledger cycles of the timed phase *)
  image_bytes : int;
  minor_words : float;
  major_words : float;
  trace_events : int;
  trace_dropped : int;
}

(* ---------- counter snapshots around the timed phase ---------- *)

type probe = {
  snap : Ledger.snapshot;
  instret : int64;
  tlb_hits : int;
  tlb_misses : int;
  tlb_flushes : int;
  entries : int;
  exits : int;
  faults : int;
  pmp_writes : int;
  mmio : int;
  expansions : int;
  host_free : int64;
}

let sum_harts (tb : Tb.t) f =
  Array.fold_left (fun acc h -> acc + f h.Hart.tlb) 0
    tb.Tb.machine.Machine.harts

let probe (tb : Tb.t) =
  let mon = tb.Tb.monitor and kvm = tb.Tb.kvm in
  let pmp = Mon.pmp_counters mon in
  let pmp_get k = Option.value ~default:0 (List.assoc_opt k pmp) in
  {
    snap = Ledger.snapshot tb.Tb.machine.Machine.ledger;
    instret = (Machine.hart tb.Tb.machine 0).Hart.csr.Csr.minstret;
    tlb_hits = sum_harts tb Tlb.hits;
    tlb_misses = sum_harts tb Tlb.misses;
    tlb_flushes = sum_harts tb Tlb.flushes;
    entries = List.length (Mon.entry_cycles mon);
    exits = List.length (Mon.exit_cycles mon);
    faults = List.length (Mon.fault_log mon);
    pmp_writes = pmp_get "pmp.syncs" + pmp_get "pmp.world_toggles";
    mmio = Kvm.mmio_exits_serviced kvm;
    expansions = Kvm.expansions kvm;
    host_free = Hypervisor.Host_mem.free_bytes (Kvm.host_mem kvm);
  }

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let percentile p xs =
  if Array.length xs = 0 then 0. else Metrics.Stats.percentile p xs

type ring = { notifications : int; suppressed : int; fallbacks : int }

let no_ring = { notifications = 0; suppressed = 0; fallbacks = 0 }

(* Every modeled metric of one rep, from the counters between two
   probes. Fails (rather than report a number) when the ledger's
   categories do not sum to its clock delta. *)
let modeled (tb : Tb.t) ~p0 ~p1 ~ops ~samples ~ring =
  let mon = tb.Tb.monitor in
  let d = Ledger.diff ~earlier:p0.snap ~later:p1.snap in
  let clock = Ledger.snapshot_clock d in
  let totals = Ledger.snapshot_totals d in
  let attributed = List.fold_left (fun acc (_, c) -> acc + c) 0 totals in
  if attributed <> clock then
    failwith
      (Printf.sprintf "ledger attribution: categories sum to %d, clock moved %d"
         attributed clock);
  let cat names =
    List.fold_left
      (fun acc n -> acc + Option.value ~default:0 (List.assoc_opt n totals))
      0 names
  in
  let fops = float_of_int ops in
  let per x = float_of_int x /. fops in
  let mean = function
    | [] -> 0.
    | l -> float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
  in
  let entries = take (p1.entries - p0.entries) (Mon.entry_cycles mon) in
  let exits = take (p1.exits - p0.exits) (Mon.exit_cycles mon) in
  let faults = take (p1.faults - p0.faults) (Mon.fault_log mon) in
  let nfaults = List.length faults in
  let share stage =
    if nfaults = 0 then 0.
    else
      float_of_int (List.length (List.filter (fun (s, _) -> s = stage) faults))
      /. float_of_int nfaults
  in
  let hits = p1.tlb_hits - p0.tlb_hits and misses = p1.tlb_misses - p0.tlb_misses in
  [
    ("modeled_cycles_per_op", "cycles", per clock);
    ("modeled_op_p50_cycles", "cycles", percentile 50. samples);
    ("modeled_op_p99_cycles", "cycles", percentile 99. samples);
    ("modeled_op_latency_samples", "count", float_of_int (Array.length samples));
    ( "riscv.instret_per_op",
      "1/op",
      per (Int64.to_int (Int64.sub p1.instret p0.instret)) );
    ( "riscv.guest_cycles_per_op",
      "cycles/op",
      per (cat [ "alu"; "muldiv"; "load"; "store"; "branch"; "jump" ]) );
    ("riscv.page_walk_cycles_per_op", "cycles/op", per (cat [ "page_walk" ]));
    ( "riscv.tlb_hit_rate",
      "ratio",
      if hits + misses = 0 then 0.
      else float_of_int hits /. float_of_int (hits + misses) );
    ("riscv.tlb_flushes_per_op", "1/op", per (p1.tlb_flushes - p0.tlb_flushes));
    ("zion.switches_per_op", "1/op", per (List.length entries));
    ( "zion.switch_cycles_per_op",
      "cycles/op",
      per (cat [ "cvm_entry"; "cvm_exit"; "trap_entry"; "xret" ]) );
    ("zion.entry_mean_cycles", "cycles", mean entries);
    ("zion.exit_mean_cycles", "cycles", mean exits);
    ("zion.faults_per_op", "1/op", per nfaults);
    ("zion.fault_cycles_per_op", "cycles/op", per (cat [ "sm_fault" ]));
    ("zion.fault_stage1_share", "ratio", share Zion.Hier_alloc.Stage1);
    ("zion.fault_stage2_share", "ratio", share Zion.Hier_alloc.Stage2);
    ("zion.fault_stage3_share", "ratio", share Zion.Hier_alloc.Stage3_retry);
    ( "zion.lifecycle_cycles_per_op",
      "cycles/op",
      per (cat [ "sm_cvm_create"; "sm_region_setup"; "sm_scrub"; "sm_shootdown" ]) );
    ("zion.pmp_writes_per_op", "1/op", per (p1.pmp_writes - p0.pmp_writes));
    ("hypervisor.mmio_exits_per_op", "1/op", per (p1.mmio - p0.mmio));
    ("hypervisor.expansions_per_op", "1/op", per (p1.expansions - p0.expansions));
    ( "hypervisor.host_bytes_leaked_per_op",
      "B/op",
      per (Int64.to_int (Int64.sub p0.host_free p1.host_free)) );
    ( "hypervisor.ring_cycles_per_op",
      "cycles/op",
      per (cat [ "ring_host_service"; "ring_host_poll"; "ring_notify" ]) );
    ("hypervisor.ring_notifications_per_op", "1/op", per ring.notifications);
    ("hypervisor.kicks_suppressed_per_op", "1/op", per ring.suppressed);
    ("hypervisor.ring_fallbacks", "count", float_of_int ring.fallbacks);
  ]

(* ---------- shared set-up and run loop ---------- *)

let ledger (tb : Tb.t) = tb.Tb.machine.Machine.ledger

(* Set-up runs from nothing to a runnable CVM in two steps, so that a
   workload can take its first probe between them. Step 1: a fresh
   testbed, its flight recorder on in traced reps. *)
let testbed ~traced =
  let tb, testbed_s =
    host_s (fun () -> Spans.with_span "platform.testbed_create" Tb.create)
  in
  if traced then Metrics.Trace.enable (Mon.trace tb.Tb.monitor);
  Spans.set_clock (fun () -> Ledger.now (ledger tb));
  (tb, testbed_s)

(* Step 2: the image assembled and created (loaded, measured,
   finalized) as a CVM. [data] are extra image chunks. *)
type loaded = { h : Kvm.cvm_handle; asm_s : float; create_s : float; code_bytes : int }

let load (tb : Tb.t) program data =
  let code, asm_s =
    host_s (fun () ->
        Spans.with_span "guest.assemble" (fun () -> Asm.program program))
  in
  let h, create_s =
    host_s (fun () ->
        Spans.with_span "hypervisor.create_cvm" (fun () ->
            Kvm.create_cvm_guest tb.Tb.kvm ~entry_pc:Tb.guest_entry
              ~image:((Tb.guest_entry, code) :: data)))
  in
  match h with
  | Ok h -> { h; asm_s; create_s; code_bytes = String.length code }
  | Error e -> failwith ("create_cvm_guest: " ^ e)

type setup = {
  tb : Tb.t;
  testbed_s : float;
  first : loaded;  (** the CVM the set-up creates *)
  extra_s : float;  (** [enable_exitless_io] on blk_ring *)
}

let setup_s su = su.testbed_s +. su.first.asm_s +. su.first.create_s +. su.extra_s

let setup ~traced program data =
  let tb, testbed_s = testbed ~traced in
  { tb; testbed_s; first = load tb program data; extra_s = 0. }

(* Schedule the CVM quantum by quantum until it stops asking for the
   timer; [on_slice] runs after every [run_cvm] return. *)
let run_to_end ?(quantum = Tb.quantum_cycles) (tb : Tb.t) h ~on_slice =
  Tb.enable_timer tb ~hart:0;
  let rec go () =
    Tb.set_quantum tb ~hart:0 quantum;
    let o =
      Spans.with_span "hypervisor.run_cvm" (fun () ->
          Kvm.run_cvm tb.Tb.kvm h ~hart:0 ~max_steps:10_000_000)
    in
    on_slice ();
    match o with
    | Kvm.C_timer -> if past_deadline () then Kvm.C_limit else go ()
    | other -> other
  in
  go ()

let outcome_name = function
  | Kvm.C_timer -> "timer"
  | Kvm.C_shutdown -> "shutdown"
  | Kvm.C_limit -> "limit"
  | Kvm.C_denied -> "denied"
  | Kvm.C_error e -> "error: " ^ e

let report_outcome w o =
  if o <> Kvm.C_shutdown then
    Printf.eprintf "%s: CVM ended with %s\n%!" w (outcome_name o)

(* The timed phase: host seconds and the allocation it does. *)
type timing = { timed_s : float; minor : float; major : float }

let timed_phase f =
  let g0 = Gc.quick_stat () in
  let v, timed_s = host_s f in
  let g1 = Gc.quick_stat () in
  ( v,
    {
      timed_s;
      minor = g1.Gc.minor_words -. g0.Gc.minor_words;
      major = g1.Gc.major_words -. g0.Gc.major_words;
    } )

(* Per-op latency where the host sees no per-op event: one sample per
   scheduling slice, the slice's cycles over the progress it made
   ([progress] counts [units_per_op] units per op). [record] goes in
   [run_to_end]'s [on_slice]. *)
let slice_recorder (tb : Tb.t) progress =
  let slices = ref [] in
  let last_c = ref (Ledger.now (ledger tb)) and last_p = ref (progress ()) in
  let record () =
    let c = Ledger.now (ledger tb) and p = progress () in
    slices := (c - !last_c, p - !last_p) :: !slices;
    last_c := c;
    last_p := p
  in
  let samples ~units_per_op =
    Array.of_list
      (List.filter_map
         (fun (cyc, units) ->
           if units = 0 then None
           else Some (float_of_int cyc *. units_per_op /. float_of_int units))
         (List.rev !slices))
  in
  (record, samples)

let finish ~traced (su : setup) ~p0 ~p1 ~timing ~ops ~failed ~samples
    ?(ring = no_ring) ~image_bytes () =
  let tr = Mon.trace su.tb.Tb.monitor in
  {
    setup_s = setup_s su;
    testbed_create_s = su.testbed_s;
    assemble_s = su.first.asm_s;
    timed_s = timing.timed_s;
    ops;
    failed;
    modeled = modeled su.tb ~p0 ~p1 ~ops ~samples ~ring;
    timed_cycles =
      Ledger.snapshot_clock p1.snap - Ledger.snapshot_clock p0.snap;
    image_bytes;
    minor_words = timing.minor;
    major_words = timing.major;
    trace_events = (if traced then Metrics.Trace.recorded tr else 0);
    trace_dropped = (if traced then Metrics.Trace.dropped tr else 0);
  }

(* Run [image] as a normal VM on a fresh testbed: the reference arm for
   [cvm_overhead_pct]. Returns the ledger cycles from first resume to
   shutdown. *)
let normal_vm_cycles ?peer image =
  let tb = Tb.create () in
  let vm =
    match Kvm.create_normal_vm tb.Tb.kvm ~entry_pc:Tb.guest_entry ~image with
    | Ok vm -> vm
    | Error e -> failwith ("create_normal_vm: " ^ e)
  in
  Option.iter
    (Hypervisor.Virtio_net.set_peer
       (Hypervisor.Mmio_emul.net (Kvm.devices tb.Tb.kvm)))
    peer;
  Tb.enable_timer tb ~hart:0;
  let c0 = Ledger.now (ledger tb) in
  let rec go () =
    Tb.set_quantum tb ~hart:0 Tb.quantum_cycles;
    match Kvm.run_normal_vm tb.Tb.kvm vm ~hart:0 ~max_steps:10_000_000 with
    | Kvm.N_timer ->
        if past_deadline () then failwith "normal VM: out of time" else go ()
    | Kvm.N_shutdown -> Ledger.now (ledger tb) - c0
    | Kvm.N_limit -> failwith "normal VM: step limit"
    | Kvm.N_error e -> failwith ("normal VM: " ^ e)
  in
  go ()

(* ---------- workloads ---------- *)

(* One workload at one seed: its generated inputs, closed over. *)
type instance = {
  run : traced:bool -> rep;
  reference : (unit -> (int64 * string) list * (string -> string option) option) option;
      (** the same image (and net peer) for the normal-VM reference arm *)
}

type workload = { name : string; instance : Workloads.Prng.t -> instance }

(* redis_net: one op is one RESP request sent through virtio-net MMIO
   to a host-side [Workloads.Redis]; the guest prints the first byte
   of every reply. *)

let redis_requests = 2000
let redis_key_space = 64

let redis_gen prng =
  let ops = Array.of_list Workloads.Redis.benchmark_ops in
  let srv = Workloads.Redis.create () in
  Array.init redis_requests (fun _ ->
         let op = ops.(Workloads.Prng.int_below prng (Array.length ops)) in
         let seq = Workloads.Prng.int_below prng 1_000_000 in
         Workloads.Redis.request_for srv ~op ~key_space:redis_key_space ~seq)

let redis_program reqs =
  List.concat_map
    (fun r -> Guest.Gprog.net_send r @ Guest.Gprog.net_recv_putchar)
    (Array.to_list reqs)
  @ Guest.Gprog.shutdown

(* The peer a Redis-backed virtio-net device answers with; [on_request]
   sees every request packet as it is served. *)
let redis_peer ?(on_request = fun _ -> ()) () =
  let server = Workloads.Redis.create () in
  fun pkt ->
    let reply =
      Spans.with_span "workloads.server" (fun () ->
          Workloads.Redis.handle server pkt)
    in
    on_request pkt;
    Some reply

let redis_run reqs ~traced =
  let su = setup ~traced (redis_program reqs) [] in
  let tb = su.tb in
  let n = Array.length reqs in
  let samples = Array.make n 0. in
  (* [bad.(i)]: op [i] reached the server corrupted, or its reply byte
     on the console is wrong, or it was never served. *)
  let bad = Array.make n false in
  let served = ref 0 in
  let last = ref 0 in
  Hypervisor.Virtio_net.set_peer
    (Hypervisor.Mmio_emul.net (Kvm.devices tb.Tb.kvm))
    (redis_peer
       ~on_request:(fun pkt ->
         let now = Ledger.now (ledger tb) in
         if !served < n then begin
           samples.(!served) <- float_of_int (now - !last);
           if pkt <> reqs.(!served) then bad.(!served) <- true
         end;
         last := now;
         incr served;
         Spans.set_op !served)
       ());
  let p0 = probe tb in
  last := Ledger.now (ledger tb);
  Spans.set_op 0;
  let o, timing = timed_phase (fun () -> run_to_end tb su.first.h ~on_slice:ignore) in
  let p1 = probe tb in
  Spans.set_op (-1);
  report_outcome "redis_net" o;
  (* Output check: the server must have received every request byte for
     byte, and the console must carry the first byte of every reply a
     native reference server gives to the same requests. *)
  let reference = Workloads.Redis.create () in
  let console = Mon.console_output tb.Tb.monitor in
  for i = 0 to n - 1 do
    let expected = (Workloads.Redis.handle reference reqs.(i)).[0] in
    if i >= String.length console || console.[i] <> expected || i >= !served then
      bad.(i) <- true
  done;
  let failed = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bad in
  let failed =
    if String.length console > n || !served > n then n
    else if o <> Kvm.C_shutdown then max failed 1
    else failed
  in
  finish ~traced su ~p0 ~p1 ~timing ~ops:n ~failed
    ~samples:(Array.sub samples 0 (min !served n))
    ~image_bytes:su.first.code_bytes ()

let redis prng =
  let reqs = redis_gen prng in
  {
    run = redis_run reqs;
    reference =
      Some
        (fun () ->
          ( [ (Tb.guest_entry, Asm.program (redis_program reqs)) ],
            Some (redis_peer ()) ));
  }

(* coremark_cvm: a CoreMark-style loop (pointer chase over a seeded
   64-node ring, CRC-style rotate, data-dependent mul-accumulate) under
   the 10 ms timer quantum; one op is one loop iteration. The guest
   prints its 64-bit checksum as 16 hex digits, then shuts down. *)

type coremark = {
  iters : int;
  init : int64;
  head : int;  (** node the chase starts from *)
  next : int array;
  values : int64 array;
}

let cm_nodes = 64
let cm_iters = 262_144

let cm_gen prng =
  let order = Array.init cm_nodes Fun.id in
  for i = cm_nodes - 1 downto 1 do
    let j = Workloads.Prng.int_below prng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let next = Array.make cm_nodes 0 in
  Array.iteri (fun k node -> next.(node) <- order.((k + 1) mod cm_nodes)) order;
  {
    iters = cm_iters + Workloads.Prng.int_below prng 4096;
    init = Workloads.Prng.next prng;
    head = order.(0);
    next;
    values = Array.init cm_nodes (fun _ -> Workloads.Prng.next prng);
  }

let hex_digits = "0123456789abcdef"

(* The OCaml model of the guest loop. *)
let cm_checksum c =
  let p = ref c.head and s = ref c.init and acc = ref 0L in
  for _ = 1 to c.iters do
    p := c.next.(!p);
    let v = c.values.(!p) in
    let x = Int64.add !s v in
    s := Int64.logor (Int64.shift_left x 1) (Int64.shift_right_logical x 63);
    if Int64.logand !s 1L <> 0L then acc := Int64.add !acc (Int64.mul !s v)
  done;
  let sum = Int64.logxor !s !acc in
  String.init 16 (fun i ->
      hex_digits.[Int64.to_int
                    (Int64.logand (Int64.shift_right_logical sum (60 - (4 * i))) 15L)])

(* Node i sits at [data + 16 i] as (next node GPA, value); the hex
   digit table follows the nodes. *)
let cm_data_gpa = Int64.add Tb.guest_entry 0x1000L

let cm_image c =
  let open Decode in
  let a0 = Asm.a0 and a1 = Asm.a1 and a2 = Asm.a2 and a3 = Asm.a3 in
  let a4 = Asm.a4 and a5 = Asm.a5 and a7 = Asm.a7 in
  let t0 = Asm.t0 and t1 = Asm.t1 and t2 = Asm.t2 in
  let s0 = Asm.s0 and s1 = Asm.s1 and zero = Asm.zero in
  let node i = Int64.add cm_data_gpa (Int64.of_int (16 * i)) in
  let program =
    List.concat
      [
        Asm.li t0 (node c.head);
        Asm.li s1 c.init;
        Asm.li a1 0L;
        Asm.li a2 (Int64.of_int c.iters);
        [
          (* loop: chase, fold the node value into the CRC-style state
             with an add and a rotate (the carries keep the state from
             cycling with the ring), multiply-accumulate when the state
             is odd *)
          Load { rd = t0; rs1 = t0; imm = 0L; width = D; unsigned = false };
          Load { rd = t1; rs1 = t0; imm = 8L; width = D; unsigned = false };
          Op (Add, s1, s1, t1);
          Op_imm (Sll, t2, s1, 1L);
          Op_imm (Srl, a3, s1, 63L);
          Op (Or, s1, t2, a3);
          Op_imm (And, t2, s1, 1L);
          Branch (Beq, t2, zero, 12L);
          Muldiv (Mul, a4, s1, t1);
          Op (Add, a1, a1, a4);
          Op_imm (Add, a2, a2, -1L);
          Branch (Bne, a2, zero, -44L);
          Op (Xor, s0, s1, a1);
        ];
        Asm.li t0 (node cm_nodes);
        Asm.li a5 60L;
        [
          (* print: one hex digit per nibble, most significant first *)
          Op (Srl, a3, s0, a5);
          Op_imm (And, a3, a3, 15L);
          Op (Add, a3, a3, t0);
          Load { rd = a0; rs1 = a3; imm = 0L; width = B; unsigned = true };
          Op_imm (Add, a7, zero, Zion.Ecall.sbi_legacy_putchar);
          Ecall;
          Op_imm (Add, a5, a5, -4L);
          Branch (Bge, a5, zero, -28L);
        ];
        Guest.Gprog.shutdown;
      ]
  in
  assert (4 * List.length program <= 0x1000);
  let data = Buffer.create ((16 * cm_nodes) + 16) in
  for i = 0 to cm_nodes - 1 do
    Buffer.add_int64_le data (node c.next.(i));
    Buffer.add_int64_le data c.values.(i)
  done;
  Buffer.add_string data hex_digits;
  (program, (cm_data_gpa, Buffer.contents data))

let cm_run c ~traced =
  let program, data = cm_image c in
  let su = setup ~traced program [ data ] in
  let tb = su.tb in
  let hart = Machine.hart tb.Tb.machine 0 in
  let p0 = probe tb in
  let record, samples =
    slice_recorder tb (fun () -> Int64.to_int hart.Hart.csr.Csr.minstret)
  in
  let o, timing =
    timed_phase (fun () -> run_to_end tb su.first.h ~on_slice:record)
  in
  let p1 = probe tb in
  report_outcome "coremark_cvm" o;
  let expected = cm_checksum c in
  let console = Mon.console_output tb.Tb.monitor in
  let ok = o = Kvm.C_shutdown && console = expected in
  if not ok then
    Printf.eprintf "coremark_cvm: checksum %S, model says %S\n%!" console
      expected;
  let n = c.iters in
  let instret = Int64.to_int (Int64.sub p1.instret p0.instret) in
  finish ~traced su ~p0 ~p1 ~timing ~ops:n
    ~failed:(if ok then 0 else n)
    ~samples:(samples ~units_per_op:(float_of_int instret /. float_of_int n))
    ~image_bytes:(su.first.code_bytes + String.length (snd data))
    ()

let coremark prng =
  let c = cm_gen prng in
  {
    run = cm_run c;
    reference =
      Some
        (fun () ->
          let program, data = cm_image c in
          ([ (Tb.guest_entry, Asm.program program); data ], None));
  }

(* cvm_churn: one op is one full CVM lifecycle on a shared testbed —
   create (SM create, load + measure, finalize), a guest that touches a
   seeded run of fresh private pages (demand faults through the
   three-stage allocator), shutdown, destroy (scrub, shootdown, blocks
   back to the pool). *)

let churn_lifecycles = 48

(* (start GPA, pages) per lifecycle *)
let churn_gen prng =
  Array.init churn_lifecycles (fun _ ->
      ( Int64.add 0x800000L
          (Int64.of_int (4096 * Workloads.Prng.int_below prng 1024)),
        504 + Workloads.Prng.int_below prng 17 ))

let churn_program (start_gpa, pages) =
  Guest.Gprog.touch_pages ~start_gpa ~pages @ Guest.Gprog.shutdown

let churn_run runs ~traced =
  let tb, testbed_s = testbed ~traced in
  let secmem = Mon.secmem tb.Tb.monitor in
  let free0 = Zion.Secmem.free_blocks secmem in
  let n = Array.length runs in
  (* The set-up's CVM is the first lifecycle's, so the counter window
     and the timed phase open before it is created: every op is a whole
     lifecycle on both clocks. *)
  let p0 = probe tb in
  let first = ref None in
  let failed = ref 0 in
  let lifecycle i =
    Spans.set_op i;
    match load tb (churn_program runs.(i)) [] with
    | exception Failure e when i > 0 ->
        Printf.eprintf "cvm_churn: lifecycle %d: %s\n%!" i e;
        incr failed
    | l ->
        if i = 0 then first := Some l;
        let o = run_to_end tb l.h ~on_slice:ignore in
        report_outcome "cvm_churn" o;
        let d =
          Spans.with_span "zion.destroy_cvm" (fun () ->
              Mon.destroy_cvm tb.Tb.monitor ~cvm:(Kvm.cvm_id l.h))
        in
        if o <> Kvm.C_shutdown || Result.is_error d then incr failed
  in
  let (), timing =
    timed_phase (fun () ->
        for i = 0 to n - 1 do
          lifecycle i
        done)
  in
  Spans.set_op (-1);
  let p1 = probe tb in
  (* Output checks: a clean audit, and every secure block back. *)
  let audit =
    Spans.with_span "zion.audit" (fun () -> Mon.audit tb.Tb.monitor)
  in
  let free1 = Zion.Secmem.free_blocks secmem in
  let clean =
    match audit with
    | Ok _ when free1 = free0 -> true
    | Ok _ ->
        Printf.eprintf "cvm_churn: %d free blocks, %d before\n%!" free1 free0;
        false
    | Error v ->
        List.iter (Printf.eprintf "cvm_churn: audit: %s\n%!") v;
        false
  in
  let su = { tb; testbed_s; first = Option.get !first; extra_s = 0. } in
  finish ~traced su ~p0 ~p1 ~timing ~ops:n
    ~failed:(if clean then !failed else n)
    ~samples:
      (Array.of_list
         (List.map
            (fun (_, c) -> float_of_int c)
            (take (p1.faults - p0.faults) (Mon.fault_log tb.Tb.monitor))))
    ~image_bytes:su.first.code_bytes ()

let churn prng =
  let runs = churn_gen prng in
  { run = churn_run runs; reference = None }

(* blk_ring: one op is one 512-byte block write through the exitless
   ring; the guest publishes batches of 8 with plain stores and spins
   until the host's polling beat publishes the used index. The host
   polls every 1 ms (a 100k-cycle quantum), as [zionctl io] does. A rep
   is a seeded 60 to 68 batches (480 to 544 writes). *)

let blk_quantum = 100_000
let blk_batch = 8
let blk_len = 512 (* one virtio-blk sector *)

(* (sector, fill byte) per write *)
let blk_gen prng =
  let writes = blk_batch * (60 + Workloads.Prng.int_below prng 9) in
  let seen = Hashtbl.create writes in
  let rec fresh () =
    let s = Workloads.Prng.int_below prng 262_144 in
    if Hashtbl.mem seen s then fresh ()
    else begin
      Hashtbl.add seen s ();
      s
    end
  in
  Array.init writes (fun _ ->
      let sector = fresh () in
      (sector, Char.chr (33 + Workloads.Prng.int_below prng 94)))

let blk_program writes =
  let n = Array.length writes in
  List.concat
    (List.init (n / blk_batch) (fun b ->
         List.concat
           (List.init blk_batch (fun j ->
                let seq = (b * blk_batch) + j in
                let sector, byte = writes.(seq) in
                Guest.Gprog.ring_blk_write ~seq ~sector ~len:blk_len ~byte
                  ~slot:(seq mod Guest.Swiotlb.ring_entries)))
         @ Guest.Gprog.ring_wait_used ~target:((b + 1) * blk_batch)))
  @ Guest.Gprog.shutdown

let blk_run writes ~traced =
  let su = setup ~traced (blk_program writes) [] in
  let tb = su.tb and h = su.first.h in
  let kvm = tb.Tb.kvm in
  let (), ring_s =
    host_s (fun () ->
        match
          Spans.with_span "hypervisor.enable_exitless_io" (fun () ->
              Kvm.enable_exitless_io kvm h)
        with
        | Ok _ -> ()
        | Error e -> failwith ("enable_exitless_io: " ^ e))
  in
  let su = { su with extra_s = ring_s } in
  let blk = Hypervisor.Mmio_emul.blk (Kvm.devices kvm) in
  let n = Array.length writes in
  let p0 = probe tb in
  let served () = Hypervisor.Virtio_blk.requests_served blk in
  let record, samples = slice_recorder tb served in
  let o, timing =
    timed_phase (fun () ->
        run_to_end ~quantum:blk_quantum tb h ~on_slice:(fun () ->
            record ();
            Spans.set_op (served ())))
  in
  Spans.set_op (-1);
  let p1 = probe tb in
  report_outcome "blk_ring" o;
  let counter name =
    Metrics.Registry.counter
      ~scope:(Metrics.Registry.Cvm (Kvm.cvm_id h))
      (Mon.registry tb.Tb.monitor) name
  in
  let ring =
    {
      notifications =
        (match Kvm.exitless_host kvm h with
        | Some host -> Hypervisor.Virtio_ring.notifications host
        | None -> 0);
      suppressed = counter "sm.io.kicks_suppressed";
      fallbacks = counter "sm.io.fallbacks";
    }
  in
  (* Output check: every written sector reads back its bytes. *)
  let bad = ref 0 in
  Spans.with_span "hypervisor.read_backing" (fun () ->
      Array.iter
        (fun (sector, byte) ->
          if
            Hypervisor.Virtio_blk.read_backing blk ~sector ~len:blk_len
            <> String.make blk_len byte
          then incr bad)
        writes);
  finish ~traced su ~p0 ~p1 ~timing ~ops:n
    ~failed:(if o <> Kvm.C_shutdown || ring.fallbacks <> 0 then n else !bad)
    ~samples:(samples ~units_per_op:1.) ~ring ~image_bytes:su.first.code_bytes ()

let blk prng =
  let writes = blk_gen prng in
  { run = blk_run writes; reference = None }

let all =
  [
    { name = "redis_net"; instance = redis };
    { name = "coremark_cvm"; instance = coremark };
    { name = "cvm_churn"; instance = churn };
    { name = "blk_ring"; instance = blk };
  ]
