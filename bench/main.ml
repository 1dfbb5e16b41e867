(* ZION benchmark harness: regenerates every table and figure of the
   paper's evaluation section (§V), prints paper-vs-measured rows, and
   finishes with wall-clock microbenchmarks of the simulator itself
   (Bechamel). It is also the one gate for every bench bound.

   Usage: dune exec bench/main.exe -- [--quick] [SECTION ...]
   Runs every section of [sections] in order, or only the named ones.
   --quick shrinks the Redis request counts and step budgets for fast
   CI runs. Exits 1 if any section's gate failed (each failure is
   printed as FAIL [section]), 2 on an unknown section name. *)

let fixed = Metrics.Table.fixed
let pct = Metrics.Table.signed_pct

let write_json path json =
  let oc = open_out path in
  output_string oc (Metrics.Export.json_to_string json ^ "\n");
  close_out oc;
  print_endline ("wrote " ^ path)

(* A section's verdict from the messages of its failed gates. *)
let verdict = function [] -> Ok () | failed -> Error (String.concat "; " failed)

(* ---------- §V.B.1 / §V.B.2 : switch experiments ---------- *)

let bench_switches ~quick:_ =
  Metrics.Table.section
    "§V.B.1 — shared-vCPU optimisation (MMIO switches, 200 iterations)";
  let open Platform.Exp_switch in
  let r = run () in
  let row name measured paper_v =
    [
      name; fixed 0 measured; fixed 0 paper_v;
      pct (Metrics.Stats.pct_change ~baseline:paper_v measured);
    ]
  in
  let p k = List.assoc k paper in
  let gain base fast = (base -. fast) /. base *. 100. in
  Metrics.Table.print
    ~header:[ "switch"; "measured (cycles)"; "paper"; "delta %" ]
    [
      row "CVM entry, shared vCPU" r.shared_on.entry_mean
        (p "entry shared-vCPU");
      row "CVM entry, no shared vCPU" r.shared_off.entry_mean
        (p "entry no-shared-vCPU");
      row "CVM exit, shared vCPU" r.shared_on.exit_mean (p "exit shared-vCPU");
      row "CVM exit, no shared vCPU" r.shared_off.exit_mean
        (p "exit no-shared-vCPU");
    ];
  Printf.printf
    "shared-vCPU improvement: entry %.1f%% (paper 20.8%%), exit %.1f%% (paper 22.74%%)\n"
    (gain r.shared_off.entry_mean r.shared_on.entry_mean)
    (gain r.shared_off.exit_mean r.shared_on.exit_mean);

  Metrics.Table.section
    "§V.B.2 — short-path vs long-path (timer switches, 200 iterations)";
  Metrics.Table.print
    ~header:[ "switch"; "measured (cycles)"; "paper"; "delta %" ]
    [
      row "CVM entry, short path" r.short_path.entry_mean
        (p "entry short-path");
      row "CVM entry, long path" r.long_path.entry_mean (p "entry long-path");
      row "CVM exit, short path" r.short_path.exit_mean (p "exit short-path");
      row "CVM exit, long path" r.long_path.exit_mean (p "exit long-path");
    ];
  Printf.printf
    "short-path improvement: entry %.1f%% (paper 44.7%%), exit %.1f%% (paper 55.3%%)\n"
    (gain r.long_path.entry_mean r.short_path.entry_mean)
    (gain r.long_path.exit_mean r.short_path.exit_mean);
  Metrics.Table.section
    "§V.B attribution — ledger cycle deltas over the shared-vCPU run";
  Metrics.Table.print
    ~header:[ "category"; "cycles" ]
    (List.map (fun (c, n) -> [ c; string_of_int n ]) r.shared_on.attribution);
  Ok ()

(* ---------- TLB retention fast path vs paper-faithful flush ---------- *)

(* Timer-switch storm under both TLB modes. Emits BENCH_switch.json so
   CI can diff the fast path against the paper-faithful baseline, and
   asserts the modeled saving: retention drops one tlb_full_flush from
   each direction of the switch. *)
let bench_tlb_retention ~quick:_ =
  Metrics.Table.section
    "TLB retention — VMID-tagged fast path vs flush-on-every-switch";
  let open Platform.Exp_switch in
  let iterations = 200 in
  let mode tlb_retention =
    measure_timer_switches
      { Zion.Monitor.default_config with tlb_retention }
      ~iterations
  in
  let faithful = mode false in
  let retained = mode true in
  let row name m =
    [
      name;
      fixed 0 m.sw.entry_mean;
      fixed 0 m.sw.exit_mean;
      string_of_int m.tlb.tlb_hits;
      string_of_int m.tlb.tlb_misses;
      string_of_int m.tlb.tlb_flushes;
      fixed 3 m.tlb.tlb_hit_rate;
    ]
  in
  Metrics.Table.print
    ~header:
      [ "mode"; "entry"; "exit"; "tlb hits"; "misses"; "flushes";
        "hit rate" ]
    [ row "paper-faithful (full flush)" faithful;
      row "retained (VMID-tagged)" retained ];
  let pair m = m.sw.entry_mean +. m.sw.exit_mean in
  let drop = pair faithful -. pair retained in
  let want = 2 * Riscv.Cost.default.Riscv.Cost.tlb_full_flush in
  Printf.printf
    "steady-state entry+exit saving: %.0f cycles (expected >= %d: two \
     tlb_full_flush charges)\n"
    drop want;
  let open Metrics.Export in
  let mode_json m =
    let total mean =
      num_of_int (int_of_float (mean *. float_of_int m.sw.samples))
    in
    Obj
      [
        ("samples", num_of_int m.sw.samples);
        ("entry_mean_cycles", num_dp 1 m.sw.entry_mean);
        ("exit_mean_cycles", num_dp 1 m.sw.exit_mean);
        ("entry_total_cycles", total m.sw.entry_mean);
        ("exit_total_cycles", total m.sw.exit_mean);
        ("tlb_hits", num_of_int m.tlb.tlb_hits);
        ("tlb_misses", num_of_int m.tlb.tlb_misses);
        ("tlb_flushes", num_of_int m.tlb.tlb_flushes);
        ("tlb_hit_rate", num_dp 4 m.tlb.tlb_hit_rate);
      ]
  in
  write_json "BENCH_switch.json"
    (Obj
       [
         ("faithful", mode_json faithful);
         ("retained", mode_json retained);
         ("pair_saving_cycles", num_dp 1 drop);
       ]);
  if drop >= float_of_int want then Ok ()
  else
    Error
      (Printf.sprintf "retention fast path saved only %.0f cycles (< %d)" drop
         want)

(* ---------- §V.C : stage-2 page-fault handling ---------- *)

let bench_faults ~quick:_ =
  Metrics.Table.section "§V.C — stage-2 page-fault handling";
  let open Platform.Exp_fault in
  let r = run () in
  let p k = List.assoc k paper in
  let row name measured paper_v n =
    [
      name; fixed 0 measured; fixed 0 paper_v;
      pct (Metrics.Stats.pct_change ~baseline:paper_v measured);
      string_of_int n;
    ]
  in
  Metrics.Table.print
    ~header:[ "path"; "measured (cycles)"; "paper"; "delta %"; "faults" ]
    [
      row "normal VM (KVM)" r.normal_mean (p "normal VM") r.normal_count;
      row "CVM stage 1" r.stage1_mean (p "CVM stage 1") r.stage1_count;
      row "CVM stage 2" r.stage2_mean (p "CVM stage 2") r.stage2_count;
      row "CVM stage 3" r.stage3_mean (p "CVM stage 3") r.stage3_count;
      row "CVM average" r.cvm_weighted_mean (p "CVM average")
        (r.stage1_count + r.stage2_count + r.stage3_count);
    ];
  Metrics.Table.section
    "§V.C attribution — ledger cycle deltas over the CVM arm";
  Metrics.Table.print
    ~header:[ "category"; "cycles" ]
    (List.map (fun (c, n) -> [ c; string_of_int n ]) r.cvm_attribution);
  Ok ()

(* ---------- Observability: profiler sampling overhead ---------- *)

(* Wall-clock cost of the guest PC-sampling hook: after one warm-up
   run, [pairs] off/on pairs over the same interpreter-bound guest,
   timed on the monotonic clock, with the order flipped every pair
   (off-on, on-off, ...) so neither arm always runs second. Each pair
   gives one overhead ratio; the gate is on their median, with the IQR
   printed as the noise band, because a single run on a small shared
   host reads anywhere within about ±10 %. The disabled path is one
   dead branch per retired instruction; the enabled path a
   decrement/compare/store — the contract is < 5 % overhead. Emits
   BENCH_profile.json. *)
let bench_profile ~quick:_ =
  Metrics.Table.section
    "Observability — PC-sampling profiler overhead (host wall-clock)";
  let steps = 200_000 in
  let interval = 64 in
  let tb = Platform.Testbed.create () in
  let mon = tb.Platform.Testbed.monitor in
  (* Infinite guest loop: every run is exactly [steps] retired
     instructions of pure interpreter work. *)
  let handle = Platform.Testbed.cvm tb [ Riscv.Decode.Jal (0, 0L) ] in
  let one_run () =
    let t0 = Monotonic_clock.now () in
    (match
       Hypervisor.Kvm.run_cvm tb.Platform.Testbed.kvm handle ~hart:0
         ~max_steps:steps
     with
    | Hypervisor.Kvm.C_limit -> ()
    | _ -> failwith "bench_profile: expected step-limit exit");
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9
  in
  let profiled () =
    Zion.Monitor.enable_profiler ~interval mon;
    let s = one_run () in
    Zion.Monitor.disable_profiler mon;
    s
  in
  ignore (one_run ()) (* warm up allocator and code paths *);
  let pairs = 100 in
  (* (off, on) seconds; [Array.init] runs the pairs in index order. *)
  let runs =
    Array.init pairs (fun i ->
        if i mod 2 = 0 then
          let off = one_run () in
          (off, profiled ())
        else
          let on = profiled () in
          (one_run (), on))
  in
  let overheads =
    Array.map (fun (off, on) -> (on -. off) /. off *. 100.) runs
  in
  let q p xs = Metrics.Stats.percentile p xs in
  let overhead_pct = q 50. overheads in
  let p25 = q 25. overheads and p75 = q 75. overheads in
  let off_s = q 50. (Array.map fst runs) and on_s = q 50. (Array.map snd runs) in
  let p =
    match Zion.Monitor.profiler mon with
    | Some p -> p
    | None -> failwith "bench_profile: profiler missing"
  in
  Metrics.Table.print
    ~header:[ "arm"; "median s"; "overhead %" ]
    [
      [ "profiler off"; fixed 4 off_s; "" ];
      [ "profiler on"; fixed 4 on_s; pct overhead_pct ];
    ];
  Printf.printf
    "overhead over %d interleaved pairs: median %+.2f%%, IQR %.2f points \
     (p25 %+.2f%%, p75 %+.2f%%)\n"
    pairs overhead_pct (p75 -. p25) p25 p75;
  Printf.printf "samples: %d (interval %d retired instructions)\n"
    (Metrics.Profile.samples p)
    (Metrics.Profile.interval p);
  let open Metrics.Export in
  write_json "BENCH_profile.json"
    (Obj
       [
         ("off_s", num_dp 6 off_s);
         ("on_s", num_dp 6 on_s);
         ("overhead_pct", num_dp 3 overhead_pct);
         ("overhead_p25_pct", num_dp 3 p25);
         ("overhead_p75_pct", num_dp 3 p75);
         ("pairs", num_of_int pairs);
         ("samples", num_of_int (Metrics.Profile.samples p));
         ("interval", num_of_int (Metrics.Profile.interval p));
         ( "top_pages",
           List
             (List.map
                (fun (cvm, page, region, hits) ->
                  Obj
                    [
                      ("cvm", num_of_int cvm);
                      ("page", Str (Printf.sprintf "0x%Lx" page));
                      ( "region",
                        match region with Some r -> Str r | None -> Null );
                      ("hits", num_of_int hits);
                    ])
                (Metrics.Profile.top_pages ~k:3 p)) );
       ]);
  if overhead_pct < 5. then Ok ()
  else
    Error
      (Printf.sprintf "profiler overhead median %.2f%% (>= 5%%, IQR %.2f)"
         overhead_pct (p75 -. p25))

(* ---------- Table I : RV8 ---------- *)

let bench_rv8 ~quick:_ =
  Metrics.Table.section
    "Table I — RV8 benchmarks (10^9 cycles, normal VM vs confidential VM)";
  let open Platform.Exp_rv8 in
  let rows = run_table1 () in
  Metrics.Table.print
    ~header:
      [ "benchmark"; "normal VM"; "confidential VM"; "overhead %";
        "paper %" ]
    (List.map
       (fun r ->
         [
           r.name;
           fixed 3 r.normal_gcycles;
           fixed 3 r.cvm_gcycles;
           pct r.overhead_pct;
           pct r.paper_overhead_pct;
         ])
       rows);
  Printf.printf "average overhead: %+.2f%% (paper +2.59%%)\n"
    (average_overhead rows);
  print_endline "kernel checksums (correctness witnesses):";
  List.iter
    (fun r ->
      Printf.printf "  %-10s %s\n" r.name
        (let c = r.checksum in
         if String.length c > 32 then String.sub c 0 32 ^ "..." else c))
    rows;
  Ok ()

(* ---------- CoreMark ---------- *)

let bench_coremark ~quick:_ =
  Metrics.Table.section "§V.D — CoreMark";
  let open Platform.Exp_rv8 in
  let r = run_coremark () in
  let paper_n, paper_c = paper_coremark in
  Metrics.Table.print
    ~header:[ "metric"; "measured"; "paper" ]
    [
      [ "normal VM score"; fixed 1 r.normal_score; fixed 1 paper_n ];
      [ "confidential VM score"; fixed 1 r.cvm_score; fixed 1 paper_c ];
      [ "drop %"; fixed 2 r.drop_pct;
        fixed 2 ((paper_n -. paper_c) /. paper_n *. 100.) ];
      [ "validation CRC"; (if r.crc_ok then "ok" else "FAIL"); "ok" ];
    ];
  Ok ()

(* ---------- Simulator fast path : instructions per wall-second ---------- *)

(* A/B of the cached-dispatch interpreter (per-page decode cache +
   translation memos + timer-poll hoist), via [Platform.Exp_sim]. The
   Table-I rv8 entries are analytic op-count models, so they cannot
   exercise the interpreter; Exp_sim's mixes are real guest loops
   stepped instruction by instruction — once with the fast path off,
   once on. Emits BENCH_sim.json and gates every workload on registers,
   pc, minstret and the full cycle ledger identical, and on a speedup
   of at least 3x. *)

let bench_sim ~quick =
  Metrics.Table.section
    "Simulator fast path — instructions per wall-second (A/B)";
  let open Platform.Exp_sim in
  let steps = if quick then 400_000 else 2_000_000 in
  let results = List.map (fun w -> ab_compare w ~steps) all in
  Metrics.Table.print
    ~header:
      [ "workload"; "baseline instr/s"; "fast instr/s"; "speedup";
        "arch state + ledger" ]
    (List.map
       (fun r ->
         [
           name r.workload;
           fixed 0 r.baseline_ips;
           fixed 0 r.fast_ips;
           Printf.sprintf "%.2fx" r.speedup;
           (if r.identical then "identical" else "DIVERGED");
         ])
       results);
  write_json "BENCH_sim.json" (to_json ~steps results);
  verdict
    (List.concat_map
       (fun r ->
         (if r.identical then []
          else [ name r.workload ^ " diverged between fast and slow stepping" ])
         @
         if r.speedup >= 3. then []
         else
           [ Printf.sprintf "%s speedup %.2fx (< 3x)" (name r.workload)
               r.speedup ])
       results)

(* ---------- Figure 3 : Redis ---------- *)

let bench_redis ~quick =
  Metrics.Table.section
    "Figure 3 — Redis throughput and latency (10 rounds x 10,000 requests)";
  let open Platform.Exp_redis in
  let rounds, requests = if quick then (2, 1000) else (10, 10_000) in
  let rows = run ~rounds ~requests () in
  Metrics.Table.print
    ~header:
      [ "operation"; "normal kQPS"; "CVM kQPS"; "thr. drop %";
        "normal lat ms"; "CVM lat ms"; "lat incr %" ]
    (List.map
       (fun r ->
         [
           r.op;
           fixed 3 r.normal_kqps;
           fixed 3 r.cvm_kqps;
           fixed 2 r.throughput_drop_pct;
           fixed 2 r.normal_latency_ms;
           fixed 2 r.cvm_latency_ms;
           fixed 2 r.latency_increase_pct;
         ])
       rows);
  print_endline "\nthroughput by operation (kQPS):";
  print_string
    (Metrics.Chart.grouped_bars ~group_labels:[ "normal"; "CVM" ]
       (List.map (fun r -> (r.op, [ r.normal_kqps; r.cvm_kqps ])) rows));
  let pt, pl = paper_avgs in
  Printf.printf
    "average: throughput -%.2f%% (paper -%.1f%%), latency +%.2f%% (paper +%.1f%%)\n"
    (average_throughput_drop rows)
    pt
    (average_latency_increase rows)
    pl;
  Ok ()

(* ---------- Figure 4 : IOZone ---------- *)

let bench_iozone ~quick:_ =
  Metrics.Table.section
    "Figure 4 — IOZone sequential I/O throughput (MB/s)";
  let open Platform.Exp_iozone in
  let points = run () in
  let human kb =
    if kb >= 1024 then Printf.sprintf "%dM" (kb / 1024)
    else Printf.sprintf "%dK" kb
  in
  let print_op name op =
    Printf.printf "\n%s:\n" name;
    Metrics.Table.print
      ~header:
        [ "file"; "record"; "normal MB/s"; "CVM MB/s"; "overhead %" ]
      (List.filter_map
         (fun p ->
           if p.op <> op then None
           else
             Some
               [
                 human p.file_kb;
                 human p.record_kb;
                 fixed 2 p.normal_mb_s;
                 fixed 2 p.cvm_mb_s;
                 pct p.overhead_pct;
               ])
         points)
  in
  print_op "sequential write" Workloads.Iozone.Write;
  print_op "sequential read" Workloads.Iozone.Read;
  (* The figure itself: CVM overhead vs file size, one glyph per record
     size (x is log2 of the file size in KiB). *)
  let overhead_series op =
    List.map
      (fun record_kb ->
        ( Printf.sprintf "%d KiB records" record_kb,
          List.filter_map
            (fun p ->
              if p.op = op && p.record_kb = record_kb then
                Some
                  ( log (float_of_int p.file_kb) /. log 2.,
                    p.overhead_pct )
              else None)
            points ))
      Workloads.Iozone.record_sizes_kb
  in
  print_endline "\nCVM overhead vs file size (write):";
  print_string
    (Metrics.Chart.series ~x_label:"log2(file KiB)" ~y_label:"overhead %"
       (overhead_series Workloads.Iozone.Write));
  Printf.printf
    "\nmax overhead %.1f%% (paper: up to 20%%); files <= 16 MiB max %.1f%% (paper: under 5%%)\n"
    (max_overhead points)
    (small_file_max_overhead points);
  Ok ()

(* ---------- Exitless virtio rings ---------- *)

(* Byzantine-host-tolerant exitless I/O: a real-guest micro comparison
   (MMIO doorbells per 1k requests, exitful vs ring), the event-priced
   iozone/redis deltas with the confidential arm switched to the ring
   path, and the ring-poison sweep over every packaged vector. Emits
   BENCH_exitless.json and fails unless the ring eliminates at least
   90% of the virtio kicks and every poison vector is blocked. *)
let bench_exitless ~quick =
  Metrics.Table.section "Exitless virtio rings — doorbells eliminated";
  let len = 256 in
  (* Exitful arm: every request is an MMIO kick plus a status read. *)
  let requests = 40 in
  let tb_f = Platform.Testbed.create () in
  let prog_f =
    List.concat
      (List.init requests (fun i ->
           Guest.Gprog.blk_write ~sector:i ~len ~byte:'x'))
    @ Guest.Gprog.shutdown
  in
  let h_f = Platform.Testbed.cvm tb_f prog_f in
  let exitful_done =
    Hypervisor.Kvm.run_cvm_to_completion tb_f.Platform.Testbed.kvm h_f
      ~hart:0 ~quantum:Platform.Testbed.quantum_cycles ~max_slices:400
    = Hypervisor.Kvm.C_shutdown
  in
  (* The SM coalesces each request's descriptor-address store, so the
     exitful arm exits twice per request: doorbell and status read. *)
  let exitful_exits =
    Hypervisor.Kvm.mmio_exits_serviced tb_f.Platform.Testbed.kvm
  in
  let exitful_coalesced =
    Hypervisor.Kvm.coalesced_writes tb_f.Platform.Testbed.kvm
  in
  (* Exitless arm: batches published with plain stores; the host drains
     the ring at its timer beat and publishes the used index once per
     batch. *)
  let batch = 8 in
  let batches = requests / batch in
  let tb_l = Platform.Testbed.create () in
  let prog_l =
    List.concat
      (List.init batches (fun b ->
           List.concat
             (List.init batch (fun j ->
                  let seq = (b * batch) + j in
                  Guest.Gprog.ring_blk_write ~seq ~sector:seq ~len ~byte:'y'
                    ~slot:(seq mod 16)))
           @ Guest.Gprog.ring_wait_used ~target:((b + 1) * batch)))
    @ Guest.Gprog.shutdown
  in
  let h_l = Platform.Testbed.cvm tb_l prog_l in
  (match Hypervisor.Kvm.enable_exitless_io tb_l.Platform.Testbed.kvm h_l with
  | Ok _ -> ()
  | Error e -> failwith ("bench_exitless: " ^ e));
  (* Five batches of eight wrap the 16-slot ring twice; the arm must
     run to its shutdown, not just cut kicks. *)
  let exitless_done =
    Hypervisor.Kvm.run_cvm_to_completion tb_l.Platform.Testbed.kvm h_l
      ~hart:0 ~quantum:100_000 ~max_slices:1000
    = Hypervisor.Kvm.C_shutdown
  in
  let exitless_exits =
    Hypervisor.Kvm.mmio_exits_serviced tb_l.Platform.Testbed.kvm
  in
  let exitless_coalesced =
    Hypervisor.Kvm.coalesced_writes tb_l.Platform.Testbed.kvm
  in
  let suppressed =
    Metrics.Registry.counter
      ~scope:(Metrics.Registry.Cvm (Hypervisor.Kvm.cvm_id h_l))
      (Zion.Monitor.registry tb_l.Platform.Testbed.monitor)
      "sm.io.kicks_suppressed"
  in
  let notifications =
    match Hypervisor.Kvm.exitless_host tb_l.Platform.Testbed.kvm h_l with
    | Some host -> Hypervisor.Virtio_ring.notifications host
    | None -> 0
  in
  let per_1k exits = float_of_int exits /. float_of_int requests *. 1000. in
  let reduction =
    (per_1k exitful_exits -. per_1k exitless_exits)
    /. per_1k exitful_exits *. 100.
  in
  Metrics.Table.print
    ~header:
      [ "arm"; "requests"; "MMIO exits"; "coalesced writes";
        "exits / 1k req"; "used publishes" ]
    [
      [ "exitful kicks"; string_of_int requests; string_of_int exitful_exits;
        string_of_int exitful_coalesced; fixed 0 (per_1k exitful_exits); "-" ];
      [ "exitless ring"; string_of_int requests;
        string_of_int exitless_exits; string_of_int exitless_coalesced;
        fixed 0 (per_1k exitless_exits); string_of_int notifications ];
    ];
  Printf.printf
    "world switches eliminated: %.1f%% (%d kicks suppressed, %d used-index \
     publishes for %d requests)\n"
    reduction suppressed notifications requests;
  (* Macro deltas: same workloads, confidential arm re-priced over the
     ring path. *)
  let io_points = Platform.Exp_iozone.run () in
  let io_points_l =
    Platform.Exp_iozone.run ~io_mode:Platform.Macro_vm.Exitless ()
  in
  let mean_cvm pts =
    Metrics.Stats.mean
      (Array.of_list
         (List.map (fun p -> p.Platform.Exp_iozone.cvm_mb_s) pts))
  in
  let io_f = mean_cvm io_points and io_l = mean_cvm io_points_l in
  let rounds, reqs = if quick then (2, 1000) else (10, 10_000) in
  let redis_f = Platform.Exp_redis.run ~rounds ~requests:reqs () in
  let redis_l =
    Platform.Exp_redis.run ~rounds ~requests:reqs
      ~io_mode:Platform.Macro_vm.Exitless ()
  in
  let drop_f = Platform.Exp_redis.average_throughput_drop redis_f in
  let drop_l = Platform.Exp_redis.average_throughput_drop redis_l in
  Printf.printf
    "iozone CVM mean: %.2f -> %.2f MB/s (+%.2f%%); redis CVM throughput \
     drop: %.2f%% -> %.2f%%\n"
    io_f io_l
    ((io_l -. io_f) /. io_f *. 100.)
    drop_f drop_l;
  (* Ring-poison sweep: every packaged vector against a fresh stack. *)
  let vectors = Hypervisor.Attacks.ring_vectors in
  let leaked =
    List.filter_map
      (fun (name, attack) ->
        let tb = Platform.Testbed.create () in
        let h = Platform.Testbed.cvm tb (Guest.Gprog.hello "p") in
        match attack tb.Platform.Testbed.kvm h with
        | Hypervisor.Attacks.Blocked why ->
            Printf.printf "  poison %-17s blocked: %s\n" name why;
            None
        | Hypervisor.Attacks.Leaked why ->
            Printf.printf "  poison %-17s LEAKED: %s\n" name why;
            Some name)
      vectors
  in
  let open Metrics.Export in
  let n = num_of_int in
  write_json "BENCH_exitless.json"
    (Obj
       [
         ( "micro",
           Obj
             [
               ("requests", n requests);
               ("exitful_mmio_exits", n exitful_exits);
               ("exitless_mmio_exits", n exitless_exits);
               ("exitful_coalesced_writes", n exitful_coalesced);
               ("exitless_coalesced_writes", n exitless_coalesced);
               ( "exitful_exits_per_request",
                 num_dp 2
                   (float_of_int exitful_exits /. float_of_int requests) );
               ("exitful_exits_per_1k", num_dp 1 (per_1k exitful_exits));
               ("exitless_exits_per_1k", num_dp 1 (per_1k exitless_exits));
               ("kick_reduction_pct", num_dp 2 reduction);
               ("kicks_suppressed", n suppressed);
               ("used_publishes", n notifications);
             ] );
         ( "iozone",
           Obj
             [
               ("cvm_mean_mb_s_exitful", num_dp 3 io_f);
               ("cvm_mean_mb_s_exitless", num_dp 3 io_l);
               ("gain_pct", num_dp 3 ((io_l -. io_f) /. io_f *. 100.));
             ] );
         ( "redis",
           Obj
             [
               ("throughput_drop_pct_exitful", num_dp 3 drop_f);
               ("throughput_drop_pct_exitless", num_dp 3 drop_l);
             ] );
         ( "poison_sweep",
           Obj
             [
               ("vectors", n (List.length vectors));
               ("blocked", n (List.length vectors - List.length leaked));
             ] );
       ]);
  verdict
    ((if exitful_done then [] else [ "exitful arm did not shut down" ])
    @ (if exitless_done then [] else [ "exitless arm did not shut down" ])
    @ (if reduction >= 90. then []
       else
         [ Printf.sprintf
             "exitless ring eliminated only %.1f%% of kicks (< 90%%)"
             reduction ])
    @ List.map (fun v -> "ring-poison vector " ^ v ^ " was not blocked") leaked)

(* ---------- attested inter-CVM channels: RTT + bandwidth ---------- *)

(* Two CVMs ping-pong a message [rounds] times, once over an attested
   SM-mediated channel (the ring page is mapped into both private
   halves; bytes move with two chan ecalls and zero host involvement)
   and once over the host-bounce baseline (each side publishes into its
   own shared-window slot and the host polls, copies between the two
   windows, and republishes at its service beat — the polling variant,
   i.e. the *cheapest* host-bounce there is, with no doorbell
   switches). Both arms pace themselves with seq spins and run under
   the same run-slice alternation, so the beat structure is identical;
   the arms differ exactly by who moves the bytes and how many beats a
   hop needs. Emits BENCH_channel.json and fails unless the channel
   RTT is strictly below the bounce baseline's. *)
let bench_channel ~quick =
  Metrics.Table.section
    "Attested inter-CVM channels — ping-pong RTT and bandwidth";
  let rounds = if quick then 6 else 12 in
  let drive tb ha hb ~slice ~beat =
    let kvm = tb.Platform.Testbed.kvm in
    let done_a = ref false and done_b = ref false in
    let beats = ref 0 in
    while (not (!done_a && !done_b)) && !beats < 4000 do
      incr beats;
      (if not !done_a then
         match Hypervisor.Kvm.run_cvm kvm ha ~hart:0 ~max_steps:slice with
         | Hypervisor.Kvm.C_shutdown -> done_a := true
         | Hypervisor.Kvm.C_error e -> failwith ("bench_channel A: " ^ e)
         | _ -> ());
      (if not !done_b then
         match Hypervisor.Kvm.run_cvm kvm hb ~hart:0 ~max_steps:slice with
         | Hypervisor.Kvm.C_shutdown -> done_b := true
         | Hypervisor.Kvm.C_error e -> failwith ("bench_channel B: " ^ e)
         | _ -> ());
      beat ()
    done;
    if not (!done_a && !done_b) then
      failwith "bench_channel: ping-pong did not converge"
  in
  let slice_for len = (4 * len) + 2500 in
  let chan_arm ~len =
    let tb = Platform.Testbed.create () in
    let slot = Zion.Layout.chan_slot_gpa 1 in
    let ab_seq = slot in
    let ba_seq = Int64.add slot (Int64.of_int Zion.Layout.chan_dir_off) in
    let prog_a =
      List.concat
        (List.init rounds (fun r ->
             Guest.Gprog.chan_send_fill ~chan:1 ~byte:'p' ~len
             @ Guest.Gprog.wait_u64_ge ~gpa:ba_seq ~target:(r + 1)
             @ Guest.Gprog.chan_recv_quiet ~chan:1))
      @ Guest.Gprog.shutdown
    in
    let prog_b =
      List.concat
        (List.init rounds (fun r ->
             Guest.Gprog.wait_u64_ge ~gpa:ab_seq ~target:(r + 1)
             @ Guest.Gprog.chan_recv_quiet ~chan:1
             @ Guest.Gprog.chan_send_fill ~chan:1 ~byte:'q' ~len))
      @ Guest.Gprog.shutdown
    in
    let ha = Platform.Testbed.cvm tb prog_a in
    let hb = Platform.Testbed.cvm tb prog_b in
    (match
       Hypervisor.Kvm.connect_channel tb.Platform.Testbed.kvm ha hb
         ~nonce_a:"bench-rtt-a" ~nonce_b:"bench-rtt-b"
     with
    | Ok 1 -> ()
    | Ok ch ->
        failwith (Printf.sprintf "bench_channel: unexpected chan id %d" ch)
    | Error e -> failwith ("bench_channel: " ^ e));
    let ledger = tb.Platform.Testbed.machine.Riscv.Machine.ledger in
    let mark = Metrics.Ledger.mark ledger in
    drive tb ha hb ~slice:(slice_for len) ~beat:(fun () -> ());
    Metrics.Ledger.since ledger mark
  in
  let bounce_arm ~len =
    let tb = Platform.Testbed.create () in
    let out_slot = Guest.Swiotlb.slot_gpa 8
    and in_slot = Guest.Swiotlb.slot_gpa 9 in
    let priv_buf = 0x205000L in
    let publish r =
      Guest.Gprog.fill_bytes ~gpa:(Int64.add out_slot 16L) ~byte:'p' ~len
      @ Guest.Gprog.store_u64 ~gpa:(Int64.add out_slot 8L) (Int64.of_int len)
      @ Guest.Gprog.store_u64 ~gpa:out_slot (Int64.of_int (r + 1))
    in
    let consume r =
      Guest.Gprog.wait_u64_ge ~gpa:in_slot ~target:(r + 1)
      @ Guest.Gprog.copy_words ~from_gpa:(Int64.add in_slot 16L)
          ~to_gpa:priv_buf ~len
    in
    let prog_a =
      List.concat (List.init rounds (fun r -> publish r @ consume r))
      @ Guest.Gprog.shutdown
    in
    let prog_b =
      List.concat (List.init rounds (fun r -> consume r @ publish r))
      @ Guest.Gprog.shutdown
    in
    let ha = Platform.Testbed.cvm tb prog_a in
    let hb = Platform.Testbed.cvm tb prog_b in
    let bus = tb.Platform.Testbed.machine.Riscv.Machine.bus in
    let ledger = tb.Platform.Testbed.machine.Riscv.Machine.ledger in
    let cost = tb.Platform.Testbed.machine.Riscv.Machine.cost in
    let pa map gpa =
      match Hypervisor.Shared_map.lookup map ~gpa with
      | Some pa -> pa
      | None -> failwith "bench_channel: shared slot unmapped"
    in
    let map_a = Hypervisor.Kvm.cvm_shared_map ha in
    let map_b = Hypervisor.Kvm.cvm_shared_map hb in
    let a_out = pa map_a out_slot and a_in = pa map_a in_slot in
    let b_out = pa map_b out_slot and b_in = pa map_b in_slot in
    let delivered_ab = ref 0L and delivered_ba = ref 0L in
    let bounce ~src ~dst delivered =
      let seq = Riscv.Bus.read bus src 8 in
      if seq > !delivered then begin
        let n = Int64.to_int (Riscv.Bus.read bus (Int64.add src 8L) 8) in
        let payload = Riscv.Bus.read_bytes bus (Int64.add src 16L) n in
        Riscv.Bus.write_bytes bus (Int64.add dst 16L) payload;
        Riscv.Bus.write bus (Int64.add dst 8L) 8 (Int64.of_int n);
        Riscv.Bus.write bus dst 8 seq;
        delivered := seq;
        Metrics.Ledger.charge ledger "host_bounce"
          (cost.Riscv.Cost.ring_host_service
          + Guest.Swiotlb.bounce_copy_cycles cost n
          + cost.Riscv.Cost.ring_notify)
      end;
      Metrics.Ledger.charge ledger "host_bounce" cost.Riscv.Cost.ring_host_poll
    in
    let mark = Metrics.Ledger.mark ledger in
    drive tb ha hb ~slice:(slice_for len)
      ~beat:(fun () ->
        bounce ~src:a_out ~dst:b_in delivered_ab;
        bounce ~src:b_out ~dst:a_in delivered_ba);
    Metrics.Ledger.since ledger mark
  in
  let rtt_len = 64 in
  let bw_len = Zion.Layout.chan_max_msg in
  let chan_rtt = float_of_int (chan_arm ~len:rtt_len) /. float_of_int rounds in
  let bounce_rtt =
    float_of_int (bounce_arm ~len:rtt_len) /. float_of_int rounds
  in
  let chan_bw_cycles = chan_arm ~len:bw_len in
  let bounce_bw_cycles = bounce_arm ~len:bw_len in
  let bytes = 2 * bw_len * rounds in
  (* 100 MHz clock: MB/s = bytes / (cycles / 1e8) / 1e6 *)
  let mb_s cycles = float_of_int bytes *. 100. /. float_of_int cycles in
  let chan_mb = mb_s chan_bw_cycles and bounce_mb = mb_s bounce_bw_cycles in
  Metrics.Table.print
    ~header:[ "arm"; "RTT (cycles)"; "bandwidth (MB/s)" ]
    [
      [ "attested channel"; fixed 0 chan_rtt; fixed 2 chan_mb ];
      [ "host bounce"; fixed 0 bounce_rtt; fixed 2 bounce_mb ];
    ];
  Printf.printf
    "channel RTT %.0f vs host-bounce %.0f cycles (%.1f%% lower); bandwidth \
     %.2f vs %.2f MB/s\n"
    chan_rtt bounce_rtt
    ((bounce_rtt -. chan_rtt) /. bounce_rtt *. 100.)
    chan_mb bounce_mb;
  let open Metrics.Export in
  let arm rtt mb =
    Obj [ ("rtt_cycles", num_dp 1 rtt); ("bandwidth_mb_s", num_dp 3 mb) ]
  in
  write_json "BENCH_channel.json"
    (Obj
       [
         ("rounds", num_of_int rounds);
         ("rtt_msg_bytes", num_of_int rtt_len);
         ("bw_msg_bytes", num_of_int bw_len);
         ("channel", arm chan_rtt chan_mb);
         ("host_bounce", arm bounce_rtt bounce_mb);
         ( "rtt_reduction_pct",
           num_dp 2 ((bounce_rtt -. chan_rtt) /. bounce_rtt *. 100.) );
       ]);
  if chan_rtt < bounce_rtt then Ok ()
  else
    Error
      (Printf.sprintf
         "channel RTT %.0f cycles is not below the host-bounce baseline %.0f"
         chan_rtt bounce_rtt)

(* ---------- Ablations ---------- *)

let bench_ablations ~quick:_ =
  let open Platform.Exp_ablation in
  Metrics.Table.section "Ablation — secure-memory block size";
  Metrics.Table.print
    ~header:[ "block"; "stage-1 faults %"; "avg fault cycles" ]
    (List.map
       (fun (p : block_size_point) ->
         [
           Printf.sprintf "%d KiB" p.block_kb;
           fixed 1 p.stage1_pct;
           fixed 0 p.avg_fault_cycles;
         ])
       (block_size_sweep ()));

  Metrics.Table.section "Ablation — vCPU page cache";
  let c = page_cache_ablation () in
  Metrics.Table.print
    ~header:[ "configuration"; "avg fault cycles" ]
    [
      [ "with per-vCPU page cache"; fixed 0 c.with_cache_avg ];
      [ "without (every fault grabs the list)"; fixed 0 c.without_cache_avg ];
      [ "penalty"; pct c.penalty_pct ];
    ];

  Metrics.Table.section "Ablation — hardened entry (shared-subtree sweep)";
  Metrics.Table.print
    ~header:[ "mapped shared pages"; "CVM entry cycles" ]
    (List.map
       (fun p -> [ string_of_int p.shared_pages; string_of_int p.entry_cycles ])
       (hardened_entry_costs ()));

  Metrics.Table.section "Ablation — concurrent-CVM scalability";
  let s = scalability () in
  Metrics.Table.print
    ~header:[ "design"; "concurrent confidential VMs" ]
    [
      [ "CURE/VirTEE-style (PMP region each)";
        string_of_int s.cure_style_limit ];
      [ "ZION (PMP pool + paging), demonstrated";
        string_of_int s.zion_cvms_run ];
    ];
  Ok ()

(* ---------- calibration sensitivity ---------- *)

let bench_sensitivity ~quick:_ =
  Metrics.Table.section
    "Calibration sensitivity — relative claims under scaled cost models";
  (* Scale every calibrated constant and check the paper's headline
     ratios: they must be (nearly) invariant, because they are produced
     by path structure, not by the constants. *)
  let ratios scale =
    let cost = Riscv.Cost.scaled scale in
    let mk config =
      let machine = Riscv.Machine.create ~cost ~dram_size:0x10000000L () in
      Zion.Monitor.create ~config machine
    in
    let short = mk Zion.Monitor.default_config in
    let long = mk { Zion.Monitor.default_config with long_path = true } in
    let unshared = mk { Zion.Monitor.default_config with shared_vcpu = false } in
    let e_short =
      float_of_int (Zion.Monitor.path_cost short Zion.Monitor.Entry_plain)
    in
    let e_long =
      float_of_int (Zion.Monitor.path_cost long Zion.Monitor.Entry_plain)
    in
    let e_sh =
      float_of_int (Zion.Monitor.path_cost short Zion.Monitor.Entry_with_mmio)
    in
    let e_unsh =
      float_of_int
        (Zion.Monitor.path_cost unshared Zion.Monitor.Entry_with_mmio)
    in
    ( (e_long -. e_short) /. e_long *. 100.,
      (e_unsh -. e_sh) /. e_unsh *. 100. )
  in
  Metrics.Table.print
    ~header:
      [ "cost scale"; "short-path entry gain %"; "shared-vCPU entry gain %" ]
    (List.map
       (fun scale ->
         let a, b = ratios scale in
         [ fixed 2 scale; fixed 2 a; fixed 2 b ])
       [ 0.5; 1.0; 2.0; 4.0 ]);
  Ok ()

(* ---------- Bechamel: wall-clock microbenchmarks ---------- *)

let bechamel_section ~quick =
  Metrics.Table.section
    "Simulator microbenchmarks (Bechamel, host wall-clock ns/op)";
  let open Bechamel in
  (* Pre-built stages so per-run work is the operation itself. *)
  let tb = Platform.Testbed.create () in
  let handle = Platform.Testbed.cvm tb [ Riscv.Decode.Jal (0, 0L) ] in
  Platform.Testbed.enable_timer tb ~hart:0;
  let switch_roundtrip () =
    Platform.Testbed.set_quantum tb ~hart:0 5_000;
    match
      Hypervisor.Kvm.run_cvm tb.Platform.Testbed.kvm handle ~hart:0
        ~max_steps:1_000_000
    with
    | Hypervisor.Kvm.C_timer -> ()
    | _ -> failwith "bechamel: expected timer exit"
  in
  let redis = Workloads.Redis.create () in
  let redis_req = Workloads.Resp.encode_command [ "SET"; "k"; "v" ] in
  let sha_buf = String.make 4096 'x' in
  let tests =
    Test.make_grouped ~name:"zion"
      [
        Test.make ~name:"cvm-switch-roundtrip"
          (Staged.stage switch_roundtrip);
        Test.make ~name:"redis-handle-set"
          (Staged.stage (fun () -> ignore (Workloads.Redis.handle redis redis_req)));
        Test.make ~name:"sha256-4KiB"
          (Staged.stage (fun () -> ignore (Crypto.Sha256.digest sha_buf)));
        Test.make ~name:"sv39-walk"
          (Staged.stage
             (let mem = Riscv.Physmem.create ~size:0x100000L in
              Riscv.Physmem.write_u64 mem 0x1000L
                (Riscv.Pte.make_pointer ~ppn:2L);
              Riscv.Physmem.write_u64 mem 0x2000L
                (Riscv.Pte.make_pointer ~ppn:3L);
              Riscv.Physmem.write_u64 mem 0x3000L
                (Riscv.Pte.make ~ppn:7L ~r:true ~valid:true ());
              let env =
                {
                  Riscv.Sv39.read_pte =
                    (fun pa ->
                      if Riscv.Xword.ult pa 0x100000L then
                        Some (Riscv.Physmem.read_u64 mem pa)
                      else None);
                  sum = false;
                  mxr = false;
                  user = false;
                }
              in
              fun () ->
                ignore (Riscv.Sv39.walk env ~root:0x1000L Riscv.Sv39.Load 0L)));
      ]
  in
  let cfg =
    Benchmark.cfg ~limit:300
      ~quota:(Time.second (if quick then 0.1 else 0.4))
      ~kde:None ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true
      ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | _ -> ())
    results;
  Metrics.Table.print
    ~header:[ "operation"; "ns/op (host)" ]
    (List.map
       (fun (n, v) -> [ n; fixed 1 v ])
       (List.sort compare !rows));
  Ok ()

(* ---------- post-run security audit ---------- *)

(* A platform-wide invariant sweep on a freshly exercised stack: the
   harness must leave no isolation property broken. *)
let bench_audit ~quick:_ =
  Metrics.Table.section "Post-run security audit";
  let tb = Platform.Testbed.create () in
  let h = Platform.Testbed.cvm tb (Guest.Gprog.hello "audit") in
  let shut_down =
    Hypervisor.Kvm.run_cvm_to_completion tb.Platform.Testbed.kvm h ~hart:0
      ~quantum:Platform.Testbed.quantum_cycles ~max_slices:50
    = Hypervisor.Kvm.C_shutdown
  in
  let violations =
    match Zion.Monitor.audit tb.Platform.Testbed.monitor with
    | Ok n ->
        Printf.printf "audit: %d facts checked, no violations\n" n;
        []
    | Error findings ->
        print_endline "AUDIT VIOLATIONS:";
        List.iter print_endline findings;
        [ Printf.sprintf "%d audit violation(s)" (List.length findings) ]
  in
  verdict
    ((if shut_down then [] else [ "audit guest did not shut down" ])
    @ violations)

(* ---------- the experiment registry ---------- *)

(* Every section, in run order. A section prints its tables, writes its
   BENCH file if it has one, and returns [Error] when its gate fails. *)
let sections =
  [
    ("vb-switch", bench_switches);
    ("tlb-retention", bench_tlb_retention);
    ("vc-page-fault", bench_faults);
    ("profiler", bench_profile);
    ("t1-rv8", bench_rv8);
    ("coremark", bench_coremark);
    ("sim", bench_sim);
    ("fig3-redis", bench_redis);
    ("fig4-iozone", bench_iozone);
    ("exitless", bench_exitless);
    ("channel", bench_channel);
    ("ablations", bench_ablations);
    ("sensitivity", bench_sensitivity);
    ("bechamel", bechamel_section);
    ("audit", bench_audit);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let names = List.filter (fun a -> a <> "--quick") args in
  (match List.filter (fun n -> not (List.mem_assoc n sections)) names with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown section(s): %s\nvalid sections: %s\n"
        (String.concat " " unknown)
        (String.concat " " (List.map fst sections));
      exit 2);
  print_endline "ZION paper-reproduction benchmark harness";
  print_endline
    (if quick then "(quick mode: reduced Redis request counts)"
     else "(full mode; pass --quick for a fast run)");
  let failures =
    List.filter_map
      (fun (name, section) ->
        if names <> [] && not (List.mem name names) then None
        else
          match section ~quick with
          | Ok () -> None
          | Error msg -> Some (name, msg)
          | exception e -> Some (name, Printexc.to_string e))
      sections
  in
  if failures = [] then print_endline "\nAll experiment sections completed."
  else begin
    print_newline ();
    List.iter (fun (name, msg) -> Printf.printf "FAIL [%s]: %s\n" name msg)
      failures;
    exit 1
  end
