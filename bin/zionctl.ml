(* zionctl — command-line front end for the ZION reproduction. The
   paper's tables and figures are regenerated, and every bound gated,
   by the bench harness ([dune exec bench/main.exe -- <section>]);
   zionctl drives single scenarios.

   Subcommands:
     boot         boot a confidential VM that prints a message
     attacks      run the packaged malicious-hypervisor attack vectors
     audit        boot a guest, then sweep the platform's security
                  invariants
     recover      stage an SM crash at a journal point and recover
     fuzz         fault-inject the SM under a hostile fuzzing hypervisor
                  (or the exhaustive SM-crash sweep)
     migrate      migrate a live CVM between two hosts over a lossy
                  channel
     telemetry    run a workload under the flight recorder and export
                  its telemetry (tables, JSON, Prometheus, Chrome
                  trace, JSON lines, folded profile, live health)
     channel      attested inter-CVM channel round-trip demo
     costs        dump the calibrated cost model *)

open Cmdliner

let fixed = Metrics.Table.fixed

(* A verb whose guest did not run to shutdown has not shown what it
   claims: say so and exit 1. *)
let require_shutdown what = function
  | Hypervisor.Kvm.C_shutdown -> ()
  | _ ->
      Printf.eprintf "zionctl: %s did not shut down\n" what;
      exit 1

(* ---------- boot ---------- *)

let boot_cmd =
  let message =
    Arg.(
      value
      & opt string "hello from zionctl"
      & info [ "m"; "message" ] ~doc:"Message the guest prints.")
  in
  let run message =
    let tb = Platform.Testbed.create () in
    let handle = Platform.Testbed.cvm tb (Guest.Gprog.hello (message ^ "\n")) in
    let outcome =
      Hypervisor.Kvm.run_cvm_to_completion tb.Platform.Testbed.kvm handle
        ~hart:0 ~quantum:Platform.Testbed.quantum_cycles ~max_slices:100
    in
    print_string (Zion.Monitor.console_output tb.Platform.Testbed.monitor);
    require_shutdown "guest" outcome
  in
  Cmd.v
    (Cmd.info "boot" ~doc:"Boot a confidential VM that prints a message")
    Term.(const run $ message)

(* ---------- attacks ---------- *)

(* Every packaged attack vector by CLI name, each fired on a fresh
   stack: the platform's secure-memory and DMA probes, hostile
   coalesced-MMIO registrations, exitless-ring poisoning, a replayed
   migration blob and hostile channel peers. *)
let attack_vectors =
  let module A = Hypervisor.Attacks in
  let platform attack () =
    let tb = Platform.Testbed.create () in
    let secmem = Zion.Monitor.secmem tb.Platform.Testbed.monitor in
    match Zion.Secmem.regions secmem with
    | (pool, _) :: _ -> attack tb.Platform.Testbed.machine ~pool_pa:pool
    | [] -> failwith "no pool"
  in
  let one_cvm attack () =
    let tb = Platform.Testbed.create () in
    attack tb.Platform.Testbed.kvm
      (Platform.Testbed.cvm tb (Guest.Gprog.hello "a"))
  in
  (* Entry validation on: the map-ring and quarantined-peer vectors go
     through the SM's shared-subtree sweep. *)
  let two_cvms attack () =
    let tb =
      Platform.Testbed.create
        ~config:
          { Zion.Monitor.default_config with validate_shared_on_entry = true }
        ()
    in
    let a = Platform.Testbed.cvm tb (Guest.Gprog.hello "a") in
    let b = Platform.Testbed.cvm tb (Guest.Gprog.hello "b") in
    attack tb.Platform.Testbed.kvm a b
  in
  let each wrap = List.map (fun (name, attack) -> (name, wrap attack)) in
  [
    ("read-secure-memory", platform A.read_secure_memory);
    ("write-secure-memory", platform A.write_secure_memory);
    ("dma-into-pool", platform A.dma_into_pool);
  ]
  @ each one_cvm
      (A.coalesce_vectors @ A.ring_vectors
      @ [ ("mig-replay-prepare", A.mig_replay_prepare) ])
  @ each two_cvms A.chan_vectors

let attacks_cmd =
  let vector =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"VECTOR"
          ~doc:
            "Vector to run, or $(b,all) (the default). An unknown name \
             lists the valid ones.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the verdicts as JSON instead of a table.")
  in
  let run name json_out =
    let chosen =
      if name = "all" then attack_vectors
      else
        match List.assoc_opt name attack_vectors with
        | Some fire -> [ (name, fire) ]
        | None ->
            Printf.eprintf "zionctl: unknown attack vector '%s' (%s | all)\n"
              name
              (String.concat " | " (List.map fst attack_vectors));
            exit 2
    in
    let verdicts =
      List.map
        (fun (name, fire) ->
          match fire () with
          | Hypervisor.Attacks.Blocked how -> (name, true, how)
          | Hypervisor.Attacks.Leaked what -> (name, false, what))
        chosen
    in
    if json_out then begin
      let open Metrics.Export in
      print_endline
        (json_to_string
           (Obj
              (List.map
                 (fun (name, blocked, how) ->
                   (name, Obj [ ("blocked", Bool blocked); ("how", Str how) ]))
                 verdicts)))
    end
    else
      Metrics.Table.print
        ~header:[ "vector"; "verdict"; "defence" ]
        (List.map
           (fun (name, blocked, how) ->
             [ name; (if blocked then "BLOCKED" else "LEAKED"); how ])
           verdicts);
    if List.exists (fun (_, blocked, _) -> not blocked) verdicts then exit 1
  in
  Cmd.v
    (Cmd.info "attacks"
       ~doc:
         "Run the packaged malicious-hypervisor attack vectors, each on a \
          fresh stack, and print one verdict per vector; exits 1 if any \
          leaked, 2 on an unknown vector name")
    Term.(const run $ vector $ json)

(* ---------- audit ---------- *)

let audit_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the audit result as a JSON object instead of text.")
  in
  let run json_out =
    let tb = Platform.Testbed.create () in
    let handle = Platform.Testbed.cvm tb (Guest.Gprog.hello "audit\n") in
    let outcome =
      Hypervisor.Kvm.run_cvm_to_completion tb.Platform.Testbed.kvm handle
        ~hart:0 ~quantum:Platform.Testbed.quantum_cycles ~max_slices:100
    in
    let result = Zion.Monitor.audit tb.Platform.Testbed.monitor in
    if json_out then begin
      let open Metrics.Export in
      print_endline
        (json_to_string
           (Obj
              (match result with
              | Ok facts ->
                  [
                    ("ok", Bool true);
                    ("facts_checked", num_of_int facts);
                    ("violations", List []);
                  ]
              | Error findings ->
                  [
                    ("ok", Bool false);
                    ( "violations",
                      List (List.map (fun f -> Str f) findings) );
                  ])))
    end
    else begin
      match result with
      | Ok facts -> Printf.printf "audit clean: %d facts checked\n" facts
      | Error findings ->
          Printf.printf "audit found %d violation(s):\n"
            (List.length findings);
          List.iter (fun f -> Printf.printf "  %s\n" f) findings
    end;
    require_shutdown "audit guest" outcome;
    match result with Ok _ -> () | Error _ -> exit 1
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Boot a guest to completion, then sweep the platform's global \
          security invariants and report every fact checked or \
          violation found")
    Term.(const run $ json)

(* ---------- recover ---------- *)

let recover_cmd =
  let point =
    Arg.(
      value & opt int 2
      & info [ "crash-point" ] ~docv:"N"
          ~doc:
            "Journal point at which the staged SM crash fires (each \
             intent append, checkpoint and completion mark is one \
             point).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the recovery report as a JSON object instead of text.")
  in
  let run point json_out =
    let tb = Platform.Testbed.create () in
    let mon = tb.Platform.Testbed.monitor in
    let j = Zion.Monitor.journal mon in
    (* Stage a crash mid-operation, reboot, then drive host-restart
       recovery — the CLI face of the chaos sweep's single case. *)
    Zion.Journal.set_crash_after j point;
    let crashed =
      match Zion.Monitor.create_cvm mon ~nvcpus:1 ~entry_pc:0x10000L with
      | _ ->
          Zion.Journal.disarm j;
          false
      | exception Zion.Journal.Crashed ->
          Zion.Monitor.crash_reboot mon;
          true
    in
    let rep = Zion.Monitor.recover mon in
    let audit_ok =
      match Zion.Monitor.audit mon with Ok _ -> true | Error _ -> false
    in
    if json_out then begin
      let open Metrics.Export in
      let n = num_of_int in
      print_endline
        (json_to_string
           (Obj
              [
                ("crashed", Bool crashed);
                ("pending", n rep.Zion.Monitor.rr_pending);
                ("rolled_forward", n rep.Zion.Monitor.rr_rolled_forward);
                ("rolled_back", n rep.Zion.Monitor.rr_rolled_back);
                ("parked", n rep.Zion.Monitor.rr_parked);
                ("pmp_synced", n rep.Zion.Monitor.rr_pmp_synced);
                ( "detail",
                  List
                    (List.map (fun d -> Str d) rep.Zion.Monitor.rr_detail) );
                ("audit_ok", Bool audit_ok);
              ]))
    end
    else begin
      Printf.printf
        "crash %s; recovery: %d pending, %d rolled forward, %d rolled \
         back, %d parked, %d harts resynced\n"
        (if crashed then
           Printf.sprintf "injected at journal point %d" point
         else "did not fire (operation completed first)")
        rep.Zion.Monitor.rr_pending rep.Zion.Monitor.rr_rolled_forward
        rep.Zion.Monitor.rr_rolled_back rep.Zion.Monitor.rr_parked
        rep.Zion.Monitor.rr_pmp_synced;
      List.iter (fun d -> Printf.printf "  %s\n" d)
        rep.Zion.Monitor.rr_detail;
      Printf.printf "post-recovery audit: %s\n"
        (if audit_ok then "clean" else "VIOLATIONS")
    end;
    if not audit_ok then exit 1
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Stage an SM crash at a chosen write-ahead-journal point, \
          model the reboot, run host-restart recovery and report what \
          it rolled forward or back")
    Term.(const run $ point $ json)

(* ---------- fuzz ---------- *)

let fuzz_cmd =
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"PRNG seed. Same seed, same build — same run.")
  in
  let iters =
    Arg.(
      value & opt int 2000
      & info [ "iters" ] ~docv:"N" ~doc:"Number of fuzzing iterations.")
  in
  let pool_mib =
    Arg.(
      value & opt int 2
      & info [ "pool-mib" ] ~docv:"MIB"
          ~doc:"Initial secure pool size (small pools exercise the \
                slow-path expansion protocol more).")
  in
  let no_retention =
    Arg.(
      value & flag
      & info [ "no-tlb-retention" ]
          ~doc:
            "Fuzz with the paper-faithful flush-on-every-switch TLB \
             instead of the VMID-tagged retention fast path. Survival \
             and a clean audit are required either way; the default \
             (retention on) puts the precise-shootdown machinery under \
             fire.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the report as a JSON object instead of text.")
  in
  let sm_crash =
    Arg.(
      value & flag
      & info [ "sm-crash" ]
          ~doc:
            "Instead of the randomized fuzzer, run the exhaustive \
             SM-crash sweep: kill the Secure Monitor at every \
             write-ahead-journal point of every journaled operation, \
             recover, and verify convergence (clean audit, idempotent \
             re-recovery, pool drains to all-free, and roll-forward \
             calls reach the uncrashed run's durable state). Deterministic; \
             ignores $(b,--seed) and $(b,--iters).")
  in
  let run_sm_crash json_out =
    let r = Hypervisor.Chaos.sm_crash_sweep () in
    if json_out then begin
      let open Metrics.Export in
      let n = num_of_int in
      print_endline
        (json_to_string
           (Obj
              [
                ( "ops",
                  Obj
                    (List.map
                       (fun (op, pts) -> (op, n pts))
                       r.Hypervisor.Chaos.sm_ops) );
                ("cases", n r.Hypervisor.Chaos.sm_cases);
                ("crashes", n r.Hypervisor.Chaos.sm_crashes);
                ("recoveries", n r.Hypervisor.Chaos.sm_recoveries);
                ("rolled_forward", n r.Hypervisor.Chaos.sm_rolled_forward);
                ("rolled_back", n r.Hypervisor.Chaos.sm_rolled_back);
                ( "failures",
                  List
                    (List.map
                       (fun f -> Str f)
                       r.Hypervisor.Chaos.sm_failures) );
                ("survived", Bool (Hypervisor.Chaos.sm_survived r));
              ]))
    end
    else Format.printf "%a@?" Hypervisor.Chaos.pp_sm_report r;
    if not (Hypervisor.Chaos.sm_survived r) then exit 1
  in
  let run seed iters pool_mib no_retention json_out sm_crash =
    if sm_crash then run_sm_crash json_out
    else begin
      let r =
        Hypervisor.Chaos.run ~pool_mib ~tlb_retention:(not no_retention)
          ~seed ~iters ()
      in
    if json_out then begin
      let open Metrics.Export in
      let n = num_of_int in
      print_endline
        (json_to_string
           (Obj
              [
                ("iterations", n r.Hypervisor.Chaos.iterations);
                ("calls", n r.Hypervisor.Chaos.calls);
                ("ok_calls", n r.Hypervisor.Chaos.ok_calls);
                ( "error_calls",
                  Obj
                    (List.map
                       (fun (label, count) -> (label, n count))
                       r.Hypervisor.Chaos.error_calls) );
                ("uncaught", n r.Hypervisor.Chaos.uncaught);
                ("audits", n r.Hypervisor.Chaos.audits);
                ( "violations",
                  List
                    (List.map
                       (fun v -> Str v)
                       r.Hypervisor.Chaos.violations) );
                ("quarantines", n r.Hypervisor.Chaos.quarantines);
                ( "quarantines_reclaimed",
                  n r.Hypervisor.Chaos.quarantines_reclaimed );
                ("cvms_created", n r.Hypervisor.Chaos.cvms_created);
                ("cvms_destroyed", n r.Hypervisor.Chaos.cvms_destroyed);
                ("migrations", n r.Hypervisor.Chaos.migrations);
                ( "migrations_committed",
                  n r.Hypervisor.Chaos.migrations_committed );
                ( "migrations_aborted",
                  n r.Hypervisor.Chaos.migrations_aborted );
                ("ring_poisons", n r.Hypervisor.Chaos.ring_poisons);
                ("ring_fallbacks", n r.Hypervisor.Chaos.ring_fallbacks);
                ("chan_opens", n r.Hypervisor.Chaos.chan_opens);
                ("chan_poisons", n r.Hypervisor.Chaos.chan_poisons);
                ( "chan_degradations",
                  n r.Hypervisor.Chaos.chan_degradations );
                ("coalesce_pokes", n r.Hypervisor.Chaos.coalesce_pokes);
                ("pool_clean", Bool r.Hypervisor.Chaos.pool_clean);
                ("survived", Bool (Hypervisor.Chaos.survived r));
              ]))
      end
      else Format.printf "%a@?" Hypervisor.Chaos.pp_report r;
      if not (Hypervisor.Chaos.survived r) then exit 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fault-inject the Secure Monitor under a hostile fuzzing \
          hypervisor (or, with $(b,--sm-crash), the exhaustive \
          crash-at-every-journal-point sweep) and report survival")
    Term.(
      const run $ seed $ iters $ pool_mib $ no_retention $ json $ sm_crash)

(* ---------- migrate ---------- *)

let migrate_cmd =
  let prob name doc =
    Arg.(
      value & opt float 0.0
      & info [ name ] ~docv:"P" ~doc:(doc ^ " probability on the courier channel, 0..1."))
  in
  let loss = prob "loss" "Per-message drop" in
  let dup = prob "dup" "Per-message duplication" in
  let reorder = prob "reorder" "Per-message hold-back (reorder)" in
  let corrupt = prob "corrupt" "Per-message byte-flip" in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Channel fault-schedule seed. Same seed, same build — same \
                delivery schedule.")
  in
  let chunk =
    Arg.(
      value & opt int 1024
      & info [ "chunk" ] ~docv:"BYTES"
          ~doc:"Chunk size the sealed image is streamed in.")
  in
  let crash_at =
    Arg.(
      value & opt (some int) None
      & info [ "crash-at" ] ~docv:"N"
          ~doc:
            "Kill one endpoint when its protocol-event counter reaches \
             $(docv); it recovers from its monitor's durable session \
             record a few ticks later.")
  in
  let crash_side =
    Arg.(
      value
      & opt
          (enum
             [ ("source", Hypervisor.Migrator.Source);
               ("dest", Hypervisor.Migrator.Dest) ])
          Hypervisor.Migrator.Source
      & info [ "crash-side" ] ~docv:"SIDE"
          ~doc:"Which endpoint $(b,--crash-at) kills: source or dest.")
  in
  let contains line sub =
    let n = String.length line and m = String.length sub in
    let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  let run loss dup reorder corrupt seed chunk crash_at crash_side =
    (* Source host: boot a guest, park it mid-loop. *)
    let tb_a = Platform.Testbed.create () in
    let src = tb_a.Platform.Testbed.monitor in
    let prog =
      Guest.Gprog.print "moved!"
      @ Riscv.Asm.li Riscv.Asm.t0 150_000L
      @ [
          Riscv.Decode.Op_imm (Riscv.Decode.Add, Riscv.Asm.t0, Riscv.Asm.t0, -1L);
          Riscv.Decode.Branch (Riscv.Decode.Bne, Riscv.Asm.t0, 0, -4L);
        ]
      @ Guest.Gprog.print " (resumed on the destination)\n"
      @ Guest.Gprog.shutdown
    in
    let handle = Platform.Testbed.cvm tb_a prog in
    let id = Hypervisor.Kvm.cvm_id handle in
    Platform.Testbed.enable_timer tb_a ~hart:0;
    Platform.Testbed.set_quantum tb_a ~hart:0 100_000;
    (match Zion.Monitor.run_vcpu src ~hart:0 ~cvm:id ~vcpu:0 ~max_steps:10_000_000 with
    | Ok Zion.Monitor.Exit_timer -> ()
    | _ -> failwith "expected a timer exit on the source");
    (* Destination host, linked by a pair of seeded lossy channels. *)
    let tb_b = Platform.Testbed.create () in
    let dst = tb_b.Platform.Testbed.monitor in
    let session = "zionctl" in
    let faults =
      {
        Hypervisor.Channel.no_faults with
        drop = loss;
        dup;
        reorder;
        corrupt;
      }
    in
    let crash =
      Option.map
        (fun at -> { Hypervisor.Migrator.at; side = crash_side })
        crash_at
    in
    let config =
      { Zion.Migrate_proto.default_config with chunk_size = chunk }
    in
    match
      Hypervisor.Migrator.run ~config ~faults ~seed ?crash ~src ~dst ~cvm:id
        ~session ()
    with
    | Error msg ->
        Printf.eprintf "migration failed to terminate: %s\n" msg;
        exit 1
    | Ok (outcome, stats) -> (
        Format.printf "%a@." Hypervisor.Migrator.pp_stats stats;
        (* per-CVM protocol counters and the chunk-RTT histogram *)
        let dump =
          Metrics.Registry.dump (Zion.Monitor.registry src)
          ^ Metrics.Registry.dump (Zion.Monitor.registry dst)
        in
        List.iter
          (fun line -> if contains line "migrate" then print_endline line)
          (String.split_on_char '\n' dump);
        (match Hypervisor.Migrator.handoff_clean ~src ~dst ~cvm:id ~session with
        | Ok `Source -> print_endline "owner: source (guest resumable in place)"
        | Ok `Dest -> print_endline "owner: destination"
        | Error msg ->
            Printf.eprintf "OWNERSHIP VIOLATION: %s\n" msg;
            exit 1);
        match outcome with
        | Hypervisor.Migrator.Aborted reason ->
            Printf.printf "aborted: %s — resuming on the source\n" reason;
            let resumed =
              Hypervisor.Kvm.run_cvm_to_completion tb_a.Platform.Testbed.kvm
                handle ~hart:0 ~quantum:Platform.Testbed.quantum_cycles
                ~max_slices:400
            in
            print_string (Zion.Monitor.console_output src);
            require_shutdown "source guest" resumed
        | Hypervisor.Migrator.Committed id_b ->
            Printf.printf "committed: destination CVM %d owns the guest\n" id_b;
            (match
               Zion.Monitor.run_vcpu dst ~hart:0 ~cvm:id_b ~vcpu:0
                 ~max_steps:10_000_000
             with
            | Ok Zion.Monitor.Exit_shutdown -> ()
            | _ -> failwith "destination run failed");
            print_string (Zion.Monitor.console_output dst))
  in
  Cmd.v
    (Cmd.info "migrate"
       ~doc:
         "Migrate a live CVM between two hosts over a lossy channel with \
          the crash-safe chunked protocol")
    Term.(
      const run $ loss $ dup $ reorder $ corrupt $ seed $ chunk $ crash_at
      $ crash_side)

(* ---------- telemetry ---------- *)

let print_health h =
  Metrics.Table.section
    (Printf.sprintf "tenants @ %d cycles (%d switches, %d internal faults)"
       h.Zion.Monitor.h_now h.Zion.Monitor.h_total_switches
       h.Zion.Monitor.h_internal_faults);
  Metrics.Table.print
    ~header:
      [ "cvm"; "state"; "entries"; "exits"; "sw/s"; "req p50"; "req p99";
        "faults"; "mmio coal"; "io supp"; "io coal"; "io rej"; "io fb";
        "ch g/a/r";
        "ch rej"; "ch deg"; "flags" ]
    (List.map
       (fun t ->
         [
           string_of_int t.Zion.Monitor.th_cvm;
           t.Zion.Monitor.th_state;
           string_of_int t.Zion.Monitor.th_entries;
           string_of_int t.Zion.Monitor.th_exits;
           fixed 1 t.Zion.Monitor.th_switch_rate;
           fixed 0 t.Zion.Monitor.th_request_p50;
           fixed 0 t.Zion.Monitor.th_request_p99;
           string_of_int t.Zion.Monitor.th_faults;
           string_of_int t.Zion.Monitor.th_mmio_coalesced;
           string_of_int t.Zion.Monitor.th_io_kicks_suppressed;
           string_of_int t.Zion.Monitor.th_io_coalesced;
           string_of_int t.Zion.Monitor.th_io_cal_rejections;
           string_of_int t.Zion.Monitor.th_io_fallbacks;
           Printf.sprintf "%d/%d/%d" t.Zion.Monitor.th_chan_grants
             t.Zion.Monitor.th_chan_accepts t.Zion.Monitor.th_chan_revokes;
           string_of_int t.Zion.Monitor.th_chan_peer_rejects;
           string_of_int t.Zion.Monitor.th_chan_degradations;
           String.concat ","
             ((if t.Zion.Monitor.th_stalled then [ "STALLED" ] else [])
             @
             match t.Zion.Monitor.th_quarantine_reason with
             | Some r -> [ "QUARANTINED:" ^ r ]
             | None -> []);
         ])
       h.Zion.Monitor.h_cvms)

(* Run one workload under an enabled flight recorder; hand back the
   testbed, the guest's outcome and, for redis, the request counts.
   With [live], print a health snapshot every [live] expired quanta,
   on a finer 50,000-cycle quantum so the run spans enough slices to
   watch. *)
let traced_run exp n ~live =
  let on_slice =
    Option.map
      (fun every slice tb ->
        if slice mod every = 0 then begin
          print_health
            (Zion.Monitor.health_snapshot tb.Platform.Testbed.monitor);
          print_newline ()
        end)
      live
  in
  let quantum, max_slices =
    if live = None then (None, None) else (Some 50_000, Some 4000)
  in
  match exp with
  | `Redis ->
      let tb, stats =
        Platform.Exp_redis.run_traced ~requests:n ~profile_interval:64
          ?quantum ?max_slices ?on_slice ()
      in
      (tb, stats.Platform.Exp_redis.t_outcome, Some stats)
  | (`Switch | `Fault | `Boot | `Net) as exp ->
      let tb =
        Platform.Testbed.create ~pool_mib:(if exp = `Fault then 1 else 8) ()
      in
      Metrics.Trace.enable (Zion.Monitor.trace tb.Platform.Testbed.monitor);
      let program =
        match exp with
        | `Switch -> Platform.Exp_switch.mmio_program ~iterations:n
        | `Fault ->
            Guest.Gprog.touch_pages ~start_gpa:0x800000L ~pages:n
            @ Guest.Gprog.shutdown
        | `Boot -> Guest.Gprog.hello "traced boot\n"
        | `Net ->
            List.concat
              (List.init n (fun i -> Guest.Gprog.net_send (string_of_int i)))
            @ Guest.Gprog.shutdown
      in
      let outcome =
        Hypervisor.Kvm.run_cvm_to_completion tb.Platform.Testbed.kvm
          (Platform.Testbed.cvm tb program)
          ~hart:0 ~quantum:
            (Option.value quantum ~default:Platform.Testbed.quantum_cycles)
          ~max_slices:(Option.value max_slices ~default:100)
          ?on_slice:(Option.map (fun f slice -> f slice tb) on_slice)
      in
      (tb, outcome, None)

(* The registry, MMIO, TLB, PMP, cycle-ledger and trace summaries (and,
   for redis, the request counts) as text tables. *)
let table_report tb run =
  let mon = tb.Platform.Testbed.monitor in
  let kvm = tb.Platform.Testbed.kvm in
  let tr = Zion.Monitor.trace mon in
  let counts header rows =
    Metrics.Table.render ~header
      (List.map (fun (c, n) -> [ c; string_of_int n ]) rows)
  in
  String.concat ""
    ([
       Metrics.Registry.dump (Zion.Monitor.registry mon);
       Printf.sprintf "MMIO: %d exits serviced, %d coalesced writes applied\n"
         (Hypervisor.Kvm.mmio_exits_serviced kvm)
         (Hypervisor.Kvm.coalesced_writes kvm);
       Metrics.Table.banner "TLB (per hart)";
       Metrics.Table.render
         ~header:[ "hart"; "hits"; "misses"; "flushes"; "occupancy" ]
         (Array.to_list
            (Array.mapi
               (fun i h ->
                 let tlb = h.Riscv.Hart.tlb in
                 List.map string_of_int
                   [
                     i; Riscv.Tlb.hits tlb; Riscv.Tlb.misses tlb;
                     Riscv.Tlb.flushes tlb; Riscv.Tlb.occupancy tlb;
                   ])
               tb.Platform.Testbed.machine.Riscv.Machine.harts));
       Metrics.Table.banner "PMP guard";
       counts [ "counter"; "count" ] (Zion.Monitor.pmp_counters mon);
       Metrics.Table.banner "cycle ledger (cycles by category)";
       counts [ "category"; "cycles" ]
         (Metrics.Ledger.categories
            tb.Platform.Testbed.machine.Riscv.Machine.ledger);
       Printf.sprintf "trace: %d events recorded, %d dropped (capacity %d)\n"
         (Metrics.Trace.recorded tr) (Metrics.Trace.dropped tr)
         (Metrics.Trace.capacity tr);
     ]
    @
    match run with
    | Some s ->
        [
          Printf.sprintf "run: %d/%d requests completed in %d cycles\n"
            s.Platform.Exp_redis.t_completed s.Platform.Exp_redis.t_requests
            s.Platform.Exp_redis.t_total_cycles;
        ]
    | None -> [])

(* The same facts as one JSON document: the registry's counters and
   histograms, then the MMIO, trace and ledger summaries and, for
   redis, the request counts. *)
let json_report tb run =
  let open Metrics.Export in
  let mon = tb.Platform.Testbed.monitor in
  let kvm = tb.Platform.Testbed.kvm in
  let tr = Zion.Monitor.trace mon in
  let n = num_of_int in
  let extra =
    [
      ( "mmio",
        Obj
          [
            ("exits_serviced", n (Hypervisor.Kvm.mmio_exits_serviced kvm));
            ("coalesced_writes", n (Hypervisor.Kvm.coalesced_writes kvm));
          ] );
      ( "trace",
        Obj
          [
            ("recorded", n (Metrics.Trace.recorded tr));
            ("dropped", n (Metrics.Trace.dropped tr));
            ("capacity", n (Metrics.Trace.capacity tr));
          ] );
      ( "ledger",
        Obj
          (List.map
             (fun (c, v) -> (c, n v))
             (Metrics.Ledger.categories
                tb.Platform.Testbed.machine.Riscv.Machine.ledger)) );
    ]
    @
    match run with
    | Some s ->
        [
          ( "run",
            Obj
              [
                ("requests", n s.Platform.Exp_redis.t_requests);
                ("completed", n s.Platform.Exp_redis.t_completed);
                ("total_cycles", n s.Platform.Exp_redis.t_total_cycles);
              ] );
        ]
    | None -> []
  in
  registry_to_json ~extra (Zion.Monitor.registry mon)

(* A size or period: a positive integer, else a usage error. *)
let positive =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | _ -> Error (`Msg ("expected a positive integer, got " ^ s))),
      Format.pp_print_int )

(* Check now that [path] opens for writing, without truncating it, so a
   bad path fails before the run and an existing file survives a failed
   run; return the writer. Either step failing prints why and exits 1. *)
let write_file path =
  let fail e =
    prerr_endline ("zionctl: cannot write " ^ e);
    exit 1
  in
  (try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 path)
   with Sys_error e -> fail e);
  fun data ->
    try
      let oc = open_out path in
      output_string oc data;
      close_out oc
    with Sys_error e ->
      fail (if String.starts_with ~prefix:path e then e else path ^ ": " ^ e)

let telemetry_cmd =
  let exp =
    Arg.(
      value
      & opt
          (enum
             [
               ("switch", `Switch); ("fault", `Fault); ("boot", `Boot);
               ("net", `Net); ("redis", `Redis);
             ])
          `Switch
      & info [ "exp" ] ~docv:"WORKLOAD"
          ~doc:
            "Workload to trace: $(b,switch) (MMIO world-switch storm), \
             $(b,fault) (page-touch storm over a small pool), $(b,boot) \
             (hello-world guest), $(b,net) (virtio-net sends: one \
             coalesced descriptor store and one doorbell exit each), or \
             $(b,redis) (RESP requests over virtio-net to the host-side \
             server, with request spans and the guest PC-sampling \
             profiler on).")
  in
  let size =
    Arg.(
      value
      & opt (some positive) None
      & info [ "n" ] ~docv:"N"
          ~doc:
            "MMIO loads (switch), pages touched (fault), packets sent \
             (net) or RESP requests (redis); boot ignores it. Default \
             50, or 24 for redis.")
  in
  let format =
    Arg.(
      value
      & opt
          (enum
             [
               ("table", `Table); ("json", `Json); ("prom", `Prom);
               ("chrome", `Chrome); ("jsonl", `Jsonl);
             ])
          `Table
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "$(b,table) for the counters, histograms, TLB, PMP, cycle \
             ledger and trace summaries as text; $(b,json) for the same \
             facts as one JSON document; $(b,prom) for Prometheus text \
             exposition of the registry; $(b,chrome) for a \
             chrome://tracing / Perfetto-loadable trace_event file; \
             $(b,jsonl) for one JSON object per trace event. $(b,json) \
             and $(b,prom) are parsed back before they are written; a \
             failed round trip exits 1.")
  in
  let file names doc =
    Arg.(value & opt (some string) None & info names ~docv:"FILE" ~doc)
  in
  let out =
    file [ "o"; "out" ] "Write the report to $(docv) instead of stdout."
  in
  let profile_out =
    file [ "profile-out" ]
      "Also write the guest profiler's folded stacks (flamegraph.pl \
       input) to $(docv). Needs $(b,--exp redis), the profiled workload."
  in
  let trace_out =
    file [ "trace-out" ]
      "Also write the Chrome trace_event export ($(b,--format chrome)) to \
       $(docv), so one Redis run yields report, profile and trace at once."
  in
  let live =
    Arg.(
      value
      & opt (some positive) None
      & info [ "live" ] ~docv:"N"
          ~doc:
            "Print a per-tenant health snapshot (switch rate, request \
             quantiles, stall and quarantine flags) every $(docv) \
             expired scheduling quanta and once at the end, on a finer \
             50,000-cycle quantum so the run spans enough slices to \
             watch.")
  in
  let run exp size format out profile_out trace_out live =
    if profile_out <> None && exp <> `Redis then
      `Error (true, "--profile-out needs --exp redis")
    else begin
      let emit =
        match out with Some path -> write_file path | None -> print_string
      in
      let profile_file = Option.map write_file profile_out in
      let trace_file = Option.map write_file trace_out in
      let n = Option.value size ~default:(if exp = `Redis then 24 else 50) in
      let tb, outcome, run = traced_run exp n ~live in
      let mon = tb.Platform.Testbed.monitor in
      let tr = Zion.Monitor.trace mon in
      if live <> None then print_health (Zion.Monitor.health_snapshot mon);
      let report =
        match format with
        | `Table -> table_report tb run
        | `Json -> Metrics.Export.json_to_string (json_report tb run) ^ "\n"
        | `Prom ->
            Metrics.Export.registry_to_prometheus (Zion.Monitor.registry mon)
        | `Chrome -> Metrics.Trace.to_chrome tr
        | `Jsonl -> Metrics.Trace.to_jsonl tr
      in
      let parsed_back =
        match format with
        | `Prom -> Result.map ignore (Metrics.Export.parse_prometheus report)
        | `Json -> Result.map ignore (Metrics.Export.parse_json report)
        | `Table | `Chrome | `Jsonl -> Ok ()
      in
      Result.iter_error
        (fun e ->
          prerr_endline ("zionctl: export does not parse back: " ^ e);
          exit 1)
        parsed_back;
      emit report;
      (match (profile_file, Zion.Monitor.profiler mon) with
      | Some write, Some p -> write (Metrics.Profile.folded p)
      | _ -> ());
      Option.iter (fun write -> write (Metrics.Trace.to_chrome tr)) trace_file;
      if outcome <> Hypervisor.Kvm.C_shutdown then begin
        prerr_endline "zionctl: traced guest did not shut down";
        exit 1
      end;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "telemetry"
       ~doc:
         "Run a workload under the SM flight recorder and export its \
          telemetry: registry tables or JSON, Prometheus text, the event \
          trace, the folded guest profile and live per-tenant health")
    Term.(
      ret
        (const run $ exp $ size $ format $ out $ profile_out $ trace_out
       $ live))

let channel_cmd =
  (* One ring payload, else a usage error: never cut silently. *)
  let payload =
    Arg.conv
      ( (fun s ->
          let n = String.length s in
          if n >= 1 && n <= Zion.Layout.chan_max_msg then Ok s
          else
            Error
              (`Msg
                 (Printf.sprintf "%d bytes; a channel message is 1 to %d" n
                    Zion.Layout.chan_max_msg))),
        Format.pp_print_string )
  in
  let msg =
    Arg.(
      value
      & opt payload "zion ping"
      & info [ "msg" ] ~docv:"STR"
          ~doc:
            "Message CVM A sends to CVM B over the attested channel, \
             1 to 2032 bytes (the ring payload); a longer one is a \
             usage error.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the result as JSON instead of a table.")
  in
  let run msg json_out =
    let tb = Platform.Testbed.create () in
    let kvm = tb.Platform.Testbed.kvm in
    let mon = tb.Platform.Testbed.monitor in
    (* First channel id is 1: both guest programs bind to it. *)
    let a =
      Platform.Testbed.cvm tb
        (Guest.Gprog.chan_send ~chan:1 ~msg @ Guest.Gprog.shutdown)
    in
    let b =
      Platform.Testbed.cvm tb
        (Guest.Gprog.chan_recv_print ~chan:1 @ Guest.Gprog.shutdown)
    in
    match
      Hypervisor.Kvm.connect_channel kvm a b ~nonce_a:"zionctl-challenge-a"
        ~nonce_b:"zionctl-challenge-b"
    with
    | Error e ->
        prerr_endline ("zionctl channel: handshake failed: " ^ e);
        exit 1
    | Ok ch ->
        let run h =
          Hypervisor.Kvm.run_cvm_to_completion kvm h ~hart:0 ~quantum:100_000
            ~max_slices:1000
        in
        let oa = run a and ob = run b in
        let done_ok =
          oa = Hypervisor.Kvm.C_shutdown && ob = Hypervisor.Kvm.C_shutdown
        in
        let counter id name =
          Metrics.Registry.counter
            ~scope:(Metrics.Registry.Cvm id)
            (Zion.Monitor.registry mon) name
        in
        let ida = Hypervisor.Kvm.cvm_id a
        and idb = Hypervisor.Kvm.cvm_id b in
        let console = Zion.Monitor.console_output mon in
        (* A prints the send status, then B every byte it received. *)
        let delivered = console = "S" ^ msg in
        (match Zion.Monitor.chan_revoke mon ~chan:ch ~cvm:ida with
        | Ok () -> ()
        | Error e ->
            prerr_endline
              ("zionctl channel: revoke failed: " ^ Zion.Ecall.error_to_string e);
            exit 1);
        let audit_clean =
          match Zion.Monitor.audit mon with Ok _ -> true | Error _ -> false
        in
        if json_out then begin
          let open Metrics.Export in
          let n = num_of_int in
          print_endline
            (json_to_string
               (Obj
                  [
                    ("chan", n ch);
                    ("completed", Bool done_ok);
                    ("console", Str console);
                    ("delivered", Bool delivered);
                    ("grants_a", n (counter ida "sm.chan.grants"));
                    ("accepts_b", n (counter idb "sm.chan.accepts"));
                    ("revokes_a", n (counter ida "sm.chan.revokes"));
                    ("audit_clean", Bool audit_clean);
                  ]))
        end
        else begin
          Metrics.Table.section "attested inter-CVM channel";
          print_string console;
          if console <> "" && console.[String.length console - 1] <> '\n' then
            print_newline ();
          Metrics.Table.print
            ~header:[ "chan"; "a"; "b"; "phase"; "strikes"; "reason" ]
            (List.map
               (fun ci ->
                 [
                   string_of_int ci.Zion.Monitor.ci_id;
                   string_of_int ci.Zion.Monitor.ci_a;
                   string_of_int ci.Zion.Monitor.ci_b;
                   ci.Zion.Monitor.ci_phase;
                   string_of_int ci.Zion.Monitor.ci_strikes;
                   (match ci.Zion.Monitor.ci_reason with
                   | Some r -> r
                   | None -> "-");
                 ])
               (Zion.Monitor.chan_list mon));
          Metrics.Table.print
            ~header:[ "metric"; "value" ]
            [
              [ "guest outcome"; (if done_ok then "shutdown" else "incomplete") ];
              [ "message delivered"; (if delivered then "intact" else "NO") ];
              [ "grants (A)"; string_of_int (counter ida "sm.chan.grants") ];
              [ "accepts (B)"; string_of_int (counter idb "sm.chan.accepts") ];
              [ "revokes (A)"; string_of_int (counter ida "sm.chan.revokes") ];
              [ "audit"; (if audit_clean then "clean" else "VIOLATIONS") ];
            ]
        end;
        if not (done_ok && delivered && audit_clean) then exit 1
  in
  Cmd.v
    (Cmd.info "channel"
       ~doc:
         "Attested inter-CVM channel demo: grant, mutual attestation \
          verification, accept, guest send and receive over the shared \
          ring, revoke with scrub and precise shootdown. The hostile-peer \
          vectors run under $(b,attacks). Exits 1 unless both guests \
          shut down, B printed exactly the message A sent and the audit \
          is clean")
    Term.(const run $ msg $ json)

(* ---------- costs ---------- *)

let costs_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the full model as a JSON object instead of a table.")
  in
  let run json_out =
    let fields = Riscv.Cost.to_assoc Riscv.Cost.default in
    if json_out then
      print_endline
        Metrics.Export.(
          json_to_string
            (Obj (List.map (fun (k, v) -> (k, num_of_int v)) fields)))
    else begin
      Metrics.Table.section "calibrated cost model (cycles)";
      Metrics.Table.print ~header:[ "unit"; "cycles" ]
        (List.map (fun (k, v) -> [ k; string_of_int v ]) fields)
    end
  in
  Cmd.v
    (Cmd.info "costs" ~doc:"Print the calibrated cycle-cost model")
    Term.(const run $ json)

let () =
  let doc = "ZION confidential-VM architecture — simulation toolkit" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "zionctl" ~doc)
          [
            boot_cmd; attacks_cmd; audit_cmd; recover_cmd; fuzz_cmd;
            migrate_cmd; telemetry_cmd; channel_cmd; costs_cmd;
          ]))
