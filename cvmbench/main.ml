(* cvmbench: the repository's end-to-end benchmark.

   Four real-guest workloads run on [Platform.Testbed] through
   [Hypervisor.Kvm] and [Zion.Monitor]. Every metric is reported on one
   of two clocks: the modeled 100 MHz [Metrics.Ledger] cycle clock,
   which is deterministic at a fixed seed, and the host monotonic
   clock. The benchmark measures each layer from outside: it times its
   own calls into each library's public functions and reads public
   counters. README.md gives the workload rationale and which layer
   metric should move which end-to-end metric.

   Usage:
     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. With --trace 0 the metrics
   are the end-to-end ones, from untraced repetitions only; with
   --trace 1 they are the per-layer ones, from a run that interleaves
   untraced and traced phases (the monitor's flight recorder on, and
   the benchmark's own spans around every library call). *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (redis_net|coremark_cvm|cvm_churn|blk_ring) \
     --seed N --seconds S --trace 0|1 [--out DIR]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out : string;
}

let parse argv =
  let rec go a = function
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some s -> go { a with seed = s } rest
        | None -> usage ())
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0. -> go { a with seconds = s } rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--out" :: v :: rest -> go { a with out = v } rest
    | [] -> a
    | _ -> usage ()
  in
  go
    { workload = ""; seed = 1; seconds = 10.; trace = false; out = "cvmbench/_out" }
    (List.tl (Array.to_list argv))

let elapsed t0 = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9

let median xs =
  Metrics.Stats.percentile 50. (Array.of_list xs)

let ops_per_s (r : Guests.rep) = float_of_int r.ops /. r.timed_s

(* A metric, and its value, by name in a (name, unit, value) list. *)
let find name metrics = List.find (fun (k, _, _) -> k = name) metrics

let value name metrics =
  let _, _, v = find name metrics in
  v

(* Host-time per-layer metrics of one traced rep, from its spans. *)
let host_layers (r : Guests.rep) =
  let totals = Spans.totals () in
  let t name = Spans.total totals name in
  let per x = x /. float_of_int r.ops in
  let run_cvm = t "hypervisor.run_cvm" and create = t "hypervisor.create_cvm" in
  let instret = value "riscv.instret_per_op" r.modeled *. float_of_int r.ops in
  [
    ("hypervisor.run_cvm_s_per_op", "s/op", per run_cvm.incl_s);
    ("hypervisor.run_cvm_self_s_per_op", "s/op", per run_cvm.self_s);
    ("hypervisor.run_cvm_calls_per_op", "1/op", per (float_of_int run_cvm.calls));
    ( "hypervisor.create_cvm_s",
      "s",
      if create.calls = 0 then 0. else create.incl_s /. float_of_int create.calls );
    ("zion.destroy_s_per_op", "s/op", per (t "zion.destroy_cvm").incl_s);
    ("workloads.server_s_per_op", "s/op", per (t "workloads.server").incl_s);
    ( "riscv.sim_mips",
      "MIPS",
      if run_cvm.incl_s = 0. then 0. else instret /. run_cvm.incl_s /. 1e6 );
    ("guest.assemble_s", "s", r.assemble_s);
    ("platform.testbed_create_s", "s", r.testbed_create_s);
  ]

(* Repetitions until [budget_s] host seconds have passed, at least
   [min_reps] of each arm. With [trace] the reps alternate untraced,
   traced, untraced, ... so that neither arm profits from running
   later. Each rep builds its own testbed; the previous one is
   collected before the next starts so its collection is never timed.
   Returns the untraced reps and the traced reps, each traced rep with
   its per-layer host-time metrics. *)
let run_reps (w : Guests.instance) ~trace ~budget_s ~min_reps =
  let rep ~traced =
    Gc.full_major ();
    if traced then Spans.start ();
    let r = w.Guests.run ~traced in
    let h = if traced then host_layers r else [] in
    Spans.stop ();
    (r, h)
  in
  (* Warm-up: the first rep of a process runs measurably slower (the
     runtime is still growing its heap), so it is run and discarded. *)
  let warm = rep ~traced:false in
  let t0 = Monotonic_clock.now () in
  let rec go untraced traced n =
    if (n >= min_reps && elapsed t0 >= budget_s) || (n > 0 && Guests.past_deadline ())
    then
      (warm, List.rev untraced, List.rev traced)
    else begin
      let u = rep ~traced:false in
      if trace then go (u :: untraced) (rep ~traced:true :: traced) (n + 1)
      else go (u :: untraced) traced (n + 1)
    end
  in
  go [] [] 0

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* Cross-process determinism: the modeled metrics of a given build at a
   given seed are recorded the first time and must match ever after. *)
let check_across_processes ~out ~workload ~seed modeled =
  let text =
    String.concat ""
      (List.map (fun (k, _, v) -> Printf.sprintf "%s %.17g\n" k v) modeled)
  in
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  (try Sys.mkdir out 0o755 with Sys_error _ -> ());
  let path =
    Filename.concat out (Printf.sprintf "modeled-%s-%d-%s.txt" workload seed exe)
  in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let prev = really_input_string ic (in_channel_length ic) in
    close_in ic;
    prev = text
  end
  else begin
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    output_string oc text;
    close_out oc;
    Sys.rename tmp path;
    true
  end

let sum f reps = List.fold_left (fun acc (r, _) -> acc + f r) 0 reps

(* End-to-end metrics, from untraced reps only. *)
let e2e_metrics (first : Guests.rep) untraced =
  let modeled k = find k first.modeled in
  let top_heap_bytes = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  [
    modeled "modeled_cycles_per_op";
    modeled "modeled_op_p50_cycles";
    modeled "modeled_op_p99_cycles";
    ("setup_s", "s", median (List.map (fun ((r : Guests.rep), _) -> r.setup_s) untraced));
    ("host_peak_heap_mib", "MiB", float_of_int top_heap_bytes /. 1048576.);
  ]

(* Per-layer metrics: the modeled ones of any rep, the host-time ones
   as medians over the traced reps, the normal-VM reference arm, and
   the tracing overhead against the interleaved untraced reps. *)
let layer_metrics (inst : Guests.instance) (first : Guests.rep) ~untraced ~traced
    ~attempted ~failed ~error =
  let e2e =
    [ "modeled_cycles_per_op"; "modeled_op_p50_cycles"; "modeled_op_p99_cycles" ]
  in
  let last = fst (List.nth traced (List.length traced - 1)) in
  let ops_s reps = median (List.map (fun (r, _) -> ops_per_s r) reps) in
  let host_median k = median (List.map (fun (_, h) -> value k h) traced) in
  let per_op f =
    median
      (List.map (fun ((r : Guests.rep), _) -> f r /. float_of_int r.ops) untraced)
  in
  let cvm_overhead =
    match inst.reference with
    | None -> 0.
    | Some reference -> (
        let image, peer = reference () in
        match Guests.normal_vm_cycles ?peer image with
        | nvm ->
            Metrics.Stats.pct_change ~baseline:(float_of_int nvm)
              (float_of_int first.timed_cycles)
        | exception Failure e ->
            error ("reference arm: " ^ e);
            0.)
  in
  List.filter (fun (k, _, _) -> not (List.mem k e2e)) first.modeled
  @ List.map (fun (k, u, _) -> (k, u, host_median k)) (snd (List.hd traced))
  @ [
      ("host_ops_per_s", "1/s", ops_s untraced);
      ("cvm_overhead_pct", "%", cvm_overhead);
      ("guest.image_bytes", "B", float_of_int first.image_bytes);
      ("ocaml.minor_words_per_op", "words/op", per_op (fun r -> r.minor_words));
      ("ocaml.major_words_per_op", "words/op", per_op (fun r -> r.major_words));
      ( "trace.overhead_pct",
        "%",
        (ops_s untraced -. ops_s traced) /. ops_s untraced *. 100. );
      ( "trace.events_per_op",
        "1/op",
        float_of_int last.trace_events /. float_of_int last.ops );
      ("trace.dropped", "count", float_of_int last.trace_dropped);
      ( "ops_failed_pct",
        "%",
        100. *. float_of_int failed /. float_of_int attempted );
    ]

(* However a guest behaves, a run ends within this many seconds. *)
let run_limit_s = 150.

let () =
  Guests.deadline :=
    Int64.add (Monotonic_clock.now ()) (Int64.of_float (run_limit_s *. 1e9));
  let a = parse Sys.argv in
  let w =
    match List.find_opt (fun w -> w.Guests.name = a.workload) Guests.all with
    | Some w -> w
    | None -> usage ()
  in
  (* The program sees only the inputs generated here from the seed. *)
  let inst = w.instance (Workloads.Prng.create ~seed:(Int64.of_int a.seed)) in
  let errors = ref [] in
  let error e = errors := e :: !errors in
  let report () = List.iter (Printf.eprintf "cvmbench: %s\n") (List.rev !errors) in
  match run_reps inst ~trace:a.trace ~budget_s:a.seconds ~min_reps:3 with
  | exception Failure e ->
      error e;
      report ();
      print_result ~correct:false ~attempted:1 ~failed:1 [];
      exit 1
  | warm, untraced, traced ->
      let all = (warm :: untraced) @ traced in
      let first = fst warm in
      let attempted = sum (fun r -> r.Guests.ops) all in
      let failed = sum (fun r -> r.Guests.failed) all in
      (* Determinism guard: every modeled metric is identical across
         repetitions, traced or not, and across processes. *)
      List.iteri
        (fun i ((r : Guests.rep), _) ->
          List.iter2
            (fun (k, _, v0) (_, _, v) ->
              if v <> v0 then
                error (Printf.sprintf "rep %d: %s = %.17g, rep 0 had %.17g" i k v v0))
            first.modeled r.modeled)
        all;
      if
        not
          (check_across_processes ~out:a.out ~workload:w.name ~seed:a.seed
             first.modeled)
      then error "modeled metrics differ from an earlier process at this seed";
      let metrics =
        if a.trace then begin
          Spans.write_jsonl
            (Filename.concat a.out (Printf.sprintf "spans-%s-%d.jsonl" w.name a.seed));
          layer_metrics inst first ~untraced ~traced ~attempted ~failed ~error
        end
        else e2e_metrics first untraced
      in
      let correct = failed = 0 && !errors = [] in
      report ();
      Printf.eprintf
        "cvmbench: %s seed %d: %d untraced + %d traced reps, %d ops, %d failed\n"
        w.name a.seed (List.length untraced) (List.length traced) attempted failed;
      Printf.eprintf "  host_ops_per_s of each untraced rep: %s\n"
        (String.concat " "
           (List.map (fun (r, _) -> Printf.sprintf "%.4g" (ops_per_s r)) untraced));
      List.iter (fun (k, u, v) -> Printf.eprintf "  %-40s %16.6g %s\n" k v u) metrics;
      print_result ~correct ~attempted ~failed metrics;
      if not correct then exit 1
