(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. IV) plus the ablations indexed in DESIGN.md, then
   runs Bechamel microbenchmarks of the performance-critical
   primitives.

     dune exec bench/main.exe            # everything, full scale
     dune exec bench/main.exe -- --fast  # reduced scale (CI-friendly)
     dune exec bench/main.exe -- --skip-micro
     dune exec bench/main.exe -- --csv   # also write fig4/fig5/table3 CSVs
     dune exec bench/main.exe -- --audit # chaos/live under the invariant audit
     dune exec bench/main.exe -- --jobs 4 # experiment-cell parallelism
     dune exec bench/main.exe -- --shards 4 # intra-run flow-hash sharding
     dune exec bench/main.exe -- --flows 2000000 # SCALE section volume

   Reports are bit-identical for every --jobs and --shards value (the
   fan-out in Sim.Experiment and the flow-hash sharding in Sim.Flowsim
   are deterministic); only the wall times change.

   Experiment index (see DESIGN.md section 4):
     FIG4   - Figure 4: max load per middlebox type vs volume, campus
     FIG5   - Figure 5: same, Waxman topology
     TABLE3 - Table III: per-type max/min load distribution, campus
     ABL-K     - candidate-set size sensitivity
     ABL-CACHE - flow-cache lookup suppression (Sec. III.D)
     ABL-FRAG  - fragmentation vs label switching (Sec. III.E)
     ABL-FAIL  - middlebox failure: fast failover vs re-optimization
     ABL-LIVE  - live reconfiguration: versioned config pushes vs control loss
     ABL-CORRUPT - silent state corruption vs anti-entropy digest repair
     ABL-REOPT - warm-started LP re-optimization vs cold re-solve
     ABL-EPOCH - adaptation across measurement epochs (stale weights)
     ABL-SKETCH- Count-Min sketched measurement vs exact
     ABL-LP    - LP formulation Eq.(1) vs Eq.(2) *)

(* Every flag is validated before any section runs: an unknown or
   misspelled flag, a value flag without a value, or a non-positive
   count prints the usage line and exits 2. *)
let fast, skip_micro, audit, csv_dir, json_out, jobs, shards, scale_flows =
  let fast = ref false and skip_micro = ref false and audit = ref false in
  let csv = ref false and json = ref false in
  let jobs = ref None and shards = ref None and flows = ref None in
  let positive name r =
    Arg.Int
      (fun n ->
        if n < 1 then raise (Arg.Bad (name ^ " expects a positive integer"));
        r := Some n)
  in
  Arg.parse
    (Arg.align
      [
        ("--fast", Arg.Set fast, " reduced scale (CI-friendly)");
        ("--skip-micro", Arg.Set skip_micro,
         " skip the wall-clock MICRO-CLASSIFIER table and bechamel section");
        ("--audit", Arg.Set audit,
         " run the auditable experiments under the invariant audit");
        ("--csv", Arg.Set csv, " also write fig4/fig5/table3 CSVs to bench_csv/");
        ("--json", Arg.Set json, " also write BENCH_pktsim.json");
        ("--jobs", positive "--jobs" jobs, "N experiment-cell parallelism");
        ("--shards", positive "--shards" shards, "N intra-run parallelism");
        ("--flows", positive "--flows" flows, "N SCALE section volume");
      ])
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "usage: main.exe [--fast] [--skip-micro] [--audit] [--csv] [--json] \
     [--jobs N] [--shards N] [--flows N]";
  let default = Option.value ~default:(Stdx.Domain_pool.default_jobs ()) in
  ( !fast, !skip_micro, !audit,
    (if !csv then Some "bench_csv" else None),
    !json,
    (* experiment-cell parallelism *)
    default !jobs,
    (* Intra-run parallelism: flow-hash sharding inside each Flowsim
       run, parallel setup phases inside each Pktsim run.  Orthogonal
       to --jobs and equally determinism-free. *)
    default !shards,
    (* flow volume of the SCALE section's one big packed run *)
    Option.value !flows ~default:(if !fast then 200_000 else 1_000_000) )

(* Perf trajectory for --json: wall seconds per experiment, plus engine
   event counts for the packet-level ones (events/sec is the packet
   simulator's real throughput metric — hop fast-forwarding lowers the
   event count itself, so both numbers are recorded). *)
let timings : (string * float) list ref = ref []
let event_counts : (string, int * int) Hashtbl.t = Hashtbl.create 8
let note_events name ~events ~hops = Hashtbl.replace event_counts name (events, hops)

(* Sequential baselines from a previous BENCH_pktsim.json in the cwd:
   entries recorded at jobs = 1 give speedup_vs_seq on parallel runs
   (CI benches --jobs 1 first, then --jobs N over the same artifact).
   The file is written one experiment per line, so a line-oriented
   scan is all the parsing needed. *)
let seq_baselines =
  let find_sub line pat =
    let n = String.length line and m = String.length pat in
    let rec go i =
      if i + m > n then None
      else if String.sub line i m = pat then Some (i + m)
      else go (i + 1)
    in
    go 0
  in
  let field line key =
    Option.map
      (fun start ->
        let stop = ref start in
        let n = String.length line in
        while
          !stop < n && (match line.[!stop] with ',' | '}' -> false | _ -> true)
        do
          incr stop
        done;
        String.trim (String.sub line start (!stop - start)))
      (find_sub line (Printf.sprintf "\"%s\": " key))
  in
  match open_in "BENCH_pktsim.json" with
  | exception Sys_error _ -> []
  | ic ->
    let acc = ref [] in
    (try
       while true do
         let line = input_line ic in
         match field line "name" with
         | None -> ()
         | Some quoted ->
           let name = Scanf.sscanf quoted "%S" Fun.id in
           let entry_jobs =
             match Option.map int_of_string_opt (field line "jobs") with
             | Some (Some j) -> j
             | _ -> 1 (* older files predate the jobs field and ran sequentially *)
           in
           let seconds =
             match
               Option.map float_of_string_opt (field line "wall_seconds")
             with
             | Some (Some s) -> Some s
             | _ -> (
               match Option.map float_of_string_opt (field line "seconds") with
               | Some (Some s) -> Some s
               | _ -> None)
           in
           match seconds with
           | Some s when entry_jobs = 1 -> acc := (name, s) :: !acc
           | _ -> ()
       done
     with End_of_file | Scanf.Scan_failure _ | Failure _ -> ());
    close_in ic;
    !acc

(* The SCALE section's record: one big sharded+packed flowsim run with
   its own in-process sequential baseline (so speedup never depends on
   a previous artifact being present). *)
let scale_record : string option ref = ref None

(* The ABL-REOPT section's record: per-scenario pivot counts and timed
   warm-vs-cold re-solve latency, written under the top-level "reopt"
   key.  Pivot counts are deterministic; only the ms figures are
   wall-clock. *)
let reopt_record : string option ref = ref None

(* The ALLOC section's record: minor words per engine event on the two
   fixed probe workloads, against the committed pre-optimization
   baselines.  Written under the top-level "alloc" key. *)
let alloc_record : string option ref = ref None

let write_json () =
  let path = "BENCH_pktsim.json" in
  let oc = open_out path in
  let total_seconds =
    List.fold_left (fun acc (_, s) -> acc +. s) 0.0 !timings
  in
  let entries =
    List.rev_map
      (fun (name, seconds) ->
        let events, hops =
          Option.value ~default:(0, 0) (Hashtbl.find_opt event_counts name)
        in
        let events_per_sec =
          if events > 0 && seconds > 0.0 then float_of_int events /. seconds
          else 0.0
        in
        (* JSON null when there is no sequential baseline on record —
           an absent measurement, not a measured slowdown to 0x. *)
        let speedup_vs_seq =
          if jobs = 1 then "1.00"
          else
            match List.assoc_opt name seq_baselines with
            | Some base when seconds > 0.0 ->
              Printf.sprintf "%.2f" (base /. seconds)
            | _ -> "null"
        in
        Printf.sprintf
          "    {\"name\": %S, \"jobs\": %d, \"wall_seconds\": %.3f, \
           \"seconds\": %.3f, \"events_processed\": %d, \"router_hops\": %d, \
           \"events_per_sec\": %.0f, \"speedup_vs_seq\": %s}"
          name jobs seconds seconds events hops events_per_sec speedup_vs_seq)
      !timings
  in
  Printf.fprintf oc
    "{\n  \"jobs\": %d,\n  \"shards\": %d,\n  \"total_wall_seconds\": %.3f,\n  \
     \"scaling\": %s,\n  \"reopt\": %s,\n  \"alloc\": %s,\n  \
     \"experiments\": [\n%s\n  ]\n}\n"
    jobs shards total_seconds
    (Option.value ~default:"null" !scale_record)
    (Option.value ~default:"null" !reopt_record)
    (Option.value ~default:"null" !alloc_record)
    (String.concat ",\n" entries);
  close_out oc;
  Format.printf "[wrote %s]@." path

let write_csv name content =
  match csv_dir with
  | None -> ()
  | Some dir ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Filename.concat dir name in
    let oc = open_out path in
    output_string oc content;
    close_out oc;
    Format.printf "[wrote %s]@." path

let section name = Format.printf "@.##### %s #####@.@." name

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  Format.printf "[%s took %.1fs]@." name dt;
  timings := (name, dt) :: !timings;
  r

let flow_counts =
  if fast then [ 30_000; 90_000; 150_000 ] else Sim.Experiment.default_flow_counts

let () =
  Format.printf "[experiment-cell parallelism: %d jobs]@." jobs;
  Format.printf "[intra-run sharding: %d shards]@." shards;

  section "FIG4: campus topology (Figure 4)";
  let fig4 =
    timed "FIG4" (fun () ->
        Sim.Experiment.run_figure Sim.Experiment.Campus ~flow_counts ~jobs
          ~shards ())
  in
  note_events "FIG4" ~events:fig4.Sim.Experiment.fig_events ~hops:0;
  Format.printf "%a@." Sim.Report.pp_figure fig4;
  write_csv "fig4.csv" (Sim.Report.figure_csv fig4);

  section "FIG5: Waxman topology (Figure 5)";
  let fig5 =
    timed "FIG5" (fun () ->
        Sim.Experiment.run_figure Sim.Experiment.Waxman ~flow_counts ~jobs
          ~shards ())
  in
  note_events "FIG5" ~events:fig5.Sim.Experiment.fig_events ~hops:0;
  Format.printf "%a@." Sim.Report.pp_figure fig5;
  write_csv "fig5.csv" (Sim.Report.figure_csv fig5);

  section "TABLE3: load distribution, campus (Table III)";
  let table3 =
    timed "TABLE3" (fun () ->
        Sim.Experiment.run_table3 ~flows:(if fast then 150_000 else 300_000)
          ~jobs ~shards ())
  in
  note_events "TABLE3" ~events:table3.Sim.Experiment.t3_events ~hops:0;
  Format.printf "%a@." Sim.Report.pp_table3 table3.Sim.Experiment.t3_rows;
  write_csv "table3.csv" (Sim.Report.table3_csv table3.Sim.Experiment.t3_rows);

  section "TABLE3-WAXMAN: load distribution, Waxman (supplementary)";
  let table3w =
    timed "TABLE3-WAXMAN" (fun () ->
        Sim.Experiment.run_table3 ~scenario:Sim.Experiment.Waxman
          ~flows:(if fast then 150_000 else 300_000) ~jobs ~shards ())
  in
  note_events "TABLE3-WAXMAN" ~events:table3w.Sim.Experiment.t3_events ~hops:0;
  Format.printf "%a@." Sim.Report.pp_table3 table3w.Sim.Experiment.t3_rows;

  section "ABL-K: candidate-set size sensitivity";
  let abk =
    timed "ABL-K" (fun () ->
        Sim.Experiment.ablation_k ~flows:(if fast then 60_000 else 120_000)
          ~jobs ~shards ())
  in
  note_events "ABL-K" ~events:abk.Sim.Experiment.k_events ~hops:0;
  Format.printf "%a@." Sim.Report.pp_k_ablation abk.Sim.Experiment.k_points;

  section "ABL-CACHE: flow cache vs multi-field lookups (Sec. III.D)";
  let abc =
    timed "ABL-CACHE" (fun () ->
        Sim.Experiment.ablation_cache ~flows:(if fast then 500 else 2_000)
          ~shards ())
  in
  note_events "ABL-CACHE" ~events:abc.Sim.Experiment.cache_events ~hops:0;
  Format.printf "%a@." Sim.Report.pp_cache_ablation abc;

  section "ABL-CACHESIZE: flow-cache capacity vs lookups";
  let abcs =
    timed "ABL-CACHESIZE" (fun () ->
        Sim.Experiment.ablation_cache_size
          ~flows:(if fast then 300 else 1_000) ~jobs ~shards ())
  in
  note_events "ABL-CACHESIZE" ~events:abcs.Sim.Experiment.cs_events ~hops:0;
  Format.printf "%a@." Sim.Report.pp_cache_size_ablation
    abcs.Sim.Experiment.cs_points;

  section "ABL-FRAG: fragmentation vs label switching (Sec. III.E)";
  let abf =
    timed "ABL-FRAG" (fun () ->
        Sim.Experiment.ablation_fragmentation
          ~flows:(if fast then 500 else 2_000) ~jobs ~shards ())
  in
  note_events "ABL-FRAG" ~events:abf.Sim.Experiment.frag_events ~hops:0;
  Format.printf "%a@." Sim.Report.pp_frag_ablation abf;

  section "ABL-FAIL: middlebox failure, failover vs re-optimization";
  let abfail =
    timed "ABL-FAIL" (fun () ->
        Sim.Experiment.ablation_failure
          ~flows:(if fast then 60_000 else 120_000) ~jobs ~shards ())
  in
  note_events "ABL-FAIL" ~events:abfail.Sim.Experiment.fail_events ~hops:0;
  Format.printf "%a@." Sim.Report.pp_failure_ablation abfail;

  section "ABL-CHAOS: in-run faults, detection-delay sweep";
  let abchaos =
    timed "ABL-CHAOS" (fun () ->
        Sim.Experiment.ablation_chaos ~flows:(if fast then 300 else 800) ~audit
          ~jobs ~shards ())
  in
  note_events "ABL-CHAOS"
    ~events:
      (List.fold_left
         (fun acc (r : Sim.Experiment.chaos_row) ->
           acc + r.Sim.Experiment.chaos_events_processed)
         abchaos.Sim.Experiment.chaos_probe_events
         abchaos.Sim.Experiment.chaos_rows)
    ~hops:0;
  Format.printf "%a@." Sim.Report.pp_chaos_ablation abchaos;

  section "ABL-LIVE: live reconfiguration, control-loss sweep";
  let ablive =
    timed "ABL-LIVE" (fun () ->
        Sim.Experiment.ablation_live ~flows:(if fast then 300 else 500) ~audit
          ~jobs ~shards ())
  in
  note_events "ABL-LIVE"
    ~events:
      (List.fold_left
         (fun acc (r : Sim.Experiment.live_row) ->
           acc + r.Sim.Experiment.live_events_processed)
         ablive.Sim.Experiment.live_probe_events
         ablive.Sim.Experiment.live_rows)
    ~hops:0;
  Format.printf "%a@." Sim.Report.pp_live_ablation ablive;
  write_csv "abl_live.csv" (Sim.Report.live_csv ablive);
  write_csv "abl_live_devices.csv" (Sim.Report.live_devices_csv ablive);

  section "ABL-QUORUM: replicated controller under chaos";
  let abq =
    timed "ABL-QUORUM" (fun () ->
        Sim.Experiment.ablation_quorum ~flows:(if fast then 200 else 400)
          ~audit ~jobs ~shards ())
  in
  note_events "ABL-QUORUM"
    ~events:
      (List.fold_left
         (fun acc (r : Sim.Experiment.quorum_row) ->
           acc + r.Sim.Experiment.qr_events_processed)
         abq.Sim.Experiment.q_probe_events abq.Sim.Experiment.q_rows)
    ~hops:0;
  Format.printf "%a@." Sim.Report.pp_quorum_ablation abq;
  write_csv "abl_quorum.csv" (Sim.Report.quorum_csv abq);

  section "ABL-CORRUPT: silent corruption vs anti-entropy repair";
  let abc =
    timed "ABL-CORRUPT" (fun () ->
        Sim.Experiment.ablation_corrupt ~flows:(if fast then 200 else 400)
          ~audit ~jobs ~shards ())
  in
  note_events "ABL-CORRUPT"
    ~events:
      (List.fold_left
         (fun acc (r : Sim.Experiment.corrupt_row) ->
           acc + r.Sim.Experiment.cr_events_processed)
         abc.Sim.Experiment.c_probe_events abc.Sim.Experiment.c_rows)
    ~hops:0;
  Format.printf "%a@." Sim.Report.pp_corrupt_ablation abc;
  write_csv "abl_corrupt.csv" (Sim.Report.corrupt_csv abc);

  section "ABL-REOPT: warm-started re-optimization vs cold re-solve";
  (* 400 flows even in fast mode: with fewer flows the measured
     traffic support keeps growing between epochs and the in-run warm
     path falls back on every epoch of the small campus topology,
     hiding the pivot savings the sweep exists to show. *)
  let reopt_flows = 400 in
  let abreopt =
    timed "ABL-REOPT" (fun () ->
        Sim.Experiment.ablation_reopt ~flows:reopt_flows ~audit ~jobs ~shards ())
  in
  note_events "ABL-REOPT"
    ~events:
      (List.fold_left
         (fun acc (r : Sim.Experiment.reopt_row) ->
           acc + r.Sim.Experiment.rp_events_processed)
         (List.fold_left
            (fun acc (i : Sim.Experiment.reopt_scenario_info) ->
              acc + i.Sim.Experiment.ri_probe_events)
            0 abreopt.Sim.Experiment.rp_infos)
         abreopt.Sim.Experiment.rp_rows)
    ~hops:0;
  Format.printf "%a@." Sim.Report.pp_reopt_ablation abreopt;
  write_csv "abl_reopt.csv" (Sim.Report.reopt_csv abreopt);
  write_csv "abl_reopt_steps.csv" (Sim.Report.reopt_steps_csv abreopt);

  (* Timed warm-vs-cold re-solve latency: replay each scenario's churn
     chain several times per mode and report ms per reoptimize call.
     The pivot counts come from the deterministic report above; only
     the ms figures here are wall-clock, so they stay on bracketed
     lines and in the JSON. *)
  let time_chains scenario =
    let steps =
      Sim.Experiment.reopt_replay scenario ~flows:reopt_flows ~seed:17 ()
    in
    let failure_sets =
      List.map (fun (s : Sim.Experiment.reopt_step) -> s.Sim.Experiment.rs_failed) steps
    in
    let deployment = Sim.Experiment.build_deployment scenario ~seed:17 in
    let workload =
      Sim.Workload.generate ~deployment ~seed:17 ~flows:reopt_flows ()
    in
    let traffic = Sim.Workload.measure workload in
    let base =
      match
        Sdm.Controller.configure deployment ~rules:workload.Sim.Workload.rules
          (Sdm.Controller.Load_balanced traffic)
      with
      | Ok c -> c
      | Error e -> failwith ("ABL-REOPT timing: " ^ e)
    in
    let reps = 5 in
    let chain_ms use_warm =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        ignore
          (List.fold_left
             (fun c failed ->
               match
                 Sdm.Controller.reoptimize c ~failed ~use_warm ~traffic ()
               with
               | Ok c' -> c'
               | Error e -> failwith ("ABL-REOPT timing: " ^ e))
             base failure_sets)
      done;
      (Unix.gettimeofday () -. t0)
      /. float_of_int (reps * List.length failure_sets)
      *. 1e3
    in
    let cold_ms = chain_ms false and warm_ms = chain_ms true in
    let sum f = List.fold_left (fun acc s -> acc + f s) 0 steps in
    Format.printf "[ABL-REOPT %s: cold %.2f ms/solve, warm %.2f ms/solve]@."
      (Sim.Experiment.scenario_name scenario)
      cold_ms warm_ms;
    (scenario, steps, cold_ms, warm_ms,
     sum (fun s -> s.Sim.Experiment.rs_cold_pivots),
     sum (fun s -> s.Sim.Experiment.rs_warm_pivots))
  in
  let chain_timings =
    List.map time_chains [ Sim.Experiment.Campus; Sim.Experiment.Waxman ]
  in
  reopt_record :=
    Some
      (Printf.sprintf "{\"scenarios\": [%s], \"agree_steps\": %d, \"total_steps\": %d}"
         (String.concat ", "
            (List.map
               (fun (scenario, steps, cold_ms, warm_ms, cold_pivots, warm_pivots) ->
                 let name = Sim.Experiment.scenario_name scenario in
                 let row warm =
                   List.find
                     (fun (r : Sim.Experiment.reopt_row) ->
                       r.Sim.Experiment.rp_scenario = name
                       && r.Sim.Experiment.rp_warm = warm)
                     abreopt.Sim.Experiment.rp_rows
                 in
                 let cold_row = row false and warm_row = row true in
                 Printf.sprintf
                   "{\"name\": %S, \"routers\": %d, \"replay_steps\": %d, \
                    \"replay_cold_pivots\": %d, \"replay_warm_pivots\": %d, \
                    \"cold_ms_per_solve\": %.3f, \"warm_ms_per_solve\": %.3f, \
                    \"run_cold_pivots\": %d, \"run_warm_pivots\": %d, \
                    \"run_warm_used\": %d, \"run_fallback\": %d}"
                   name cold_row.Sim.Experiment.rp_routers (List.length steps)
                   cold_pivots warm_pivots cold_ms warm_ms
                   cold_row.Sim.Experiment.rp_pivots
                   warm_row.Sim.Experiment.rp_pivots
                   warm_row.Sim.Experiment.rp_warm_used
                   warm_row.Sim.Experiment.rp_fallback)
               chain_timings))
         abreopt.Sim.Experiment.rp_agree abreopt.Sim.Experiment.rp_total);

  section "ABL-EPOCH: adaptation across measurement epochs";
  let abe =
    timed "ABL-EPOCH" (fun () ->
        let deployment =
          Sim.Experiment.build_deployment Sim.Experiment.Campus ~seed:17
        in
        Sim.Epochsim.run ~deployment
          ~base_flows:(if fast then 30_000 else 60_000)
          ~jobs ~shards ())
  in
  note_events "ABL-EPOCH" ~events:abe.Sim.Epochsim.ep_events ~hops:0;
  Format.printf "%a@." Sim.Report.pp_epochs abe.Sim.Epochsim.ep_rows;

  section "ABL-SKETCH: Count-Min sketched measurement vs exact";
  let absk =
    timed "ABL-SKETCH" (fun () ->
        Sim.Experiment.ablation_sketch
          ~flows:(if fast then 60_000 else 120_000) ~jobs ~shards ())
  in
  note_events "ABL-SKETCH" ~events:absk.Sim.Experiment.sk_events ~hops:0;
  Format.printf "%a@." Sim.Report.pp_sketch_ablation
    absk.Sim.Experiment.sk_points;

  section "ABL-LAT: end-to-end latency overhead of enforcement";
  let ablat =
    timed "ABL-LAT" (fun () ->
        Sim.Experiment.ablation_latency ~flows:(if fast then 300 else 1_000)
          ~jobs ~shards ())
  in
  note_events "ABL-LAT" ~events:ablat.Sim.Experiment.events_processed
    ~hops:ablat.Sim.Experiment.router_hops;
  Format.printf "%a@." Sim.Report.pp_latency_ablation ablat;

  section "ABL-QUEUE: middlebox queueing, HP vs LB latency";
  let abq =
    timed "ABL-QUEUE" (fun () ->
        Sim.Experiment.ablation_queue ~flows:(if fast then 300 else 800) ~jobs
          ~shards ())
  in
  note_events "ABL-QUEUE" ~events:abq.Sim.Experiment.events_processed
    ~hops:abq.Sim.Experiment.router_hops;
  Format.printf "%a@." Sim.Report.pp_queue_ablation abq;

  section "ABL-LP: Eq.(1) exact vs Eq.(2) simplified";
  let abl =
    timed "ABL-LP" (fun () ->
        Sim.Experiment.ablation_lp ~flows:(if fast then 2_000 else 5_000) ~jobs
          ~shards ())
  in
  note_events "ABL-LP" ~events:abl.Sim.Experiment.lp_events ~hops:0;
  Format.printf "%a@." Sim.Report.pp_lp_ablation abl;

  section "CONFIG: controller dissemination volume (campus, LB)";
  let () =
    let deployment = Sim.Experiment.build_deployment Sim.Experiment.Campus ~seed:17 in
    let workload =
      Sim.Workload.generate ~deployment ~seed:17 ~flows:30_000 ()
    in
    let traffic = Sim.Workload.measure workload in
    match
      Sdm.Controller.configure deployment ~rules:workload.Sim.Workload.rules
        (Sdm.Controller.Load_balanced traffic)
    with
    | Ok c ->
      Format.printf "%a@." Sdm.Controller.pp_config_summary
        (Sdm.Controller.config_summary c);
      Format.printf "%a@." Sim.Controlplane.pp_report
        (Sim.Controlplane.price c ~traffic);
      (match Sdm.Verify.check c with
      | Ok () -> Format.printf "static verification: configuration certified@."
      | Error vs ->
        Format.printf "static verification FAILED (%d violations)@."
          (List.length vs))
    | Error e -> Format.printf "configuration failed: %s@." e
  in
  ()

(* ---- SCALE: one big run, flow-hash sharded + packed state ---------- *)

(* The sequential baseline is the same packed run at shards = 1, timed
   in this very process, so the speedup recorded here never depends on
   a previous artifact being present (unlike the per-experiment
   speedup_vs_seq, which compares across --jobs invocations).  The
   packed store is off-heap (Bigarray), so top_heap_words reflects the
   simulator's working set, not the flow population. *)
let run_scale () =
  Format.printf "@.##### SCALE: intra-run sharding, one big flowsim run #####@.@.";
  let deployment =
    Sim.Experiment.build_deployment Sim.Experiment.Campus ~seed:17
  in
  let packed =
    Sim.Workload.generate_packed ~deployment ~seed:17 ~flows:scale_flows ()
  in
  let store_mb =
    float_of_int (scale_flows * Sim.Workload.Packed.bytes_per_flow) /. 1048576.0
  in
  let controller =
    match
      Sdm.Controller.configure deployment
        ~rules:packed.Sim.Workload.Packed.rules Sdm.Controller.Hot_potato
    with
    | Ok c -> c
    | Error e -> failwith ("SCALE: " ^ e)
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let seq, t_seq =
    time (fun () ->
        Sim.Flowsim.run_packed ~shards:1 ~controller ~workload:packed ())
  in
  let sharded, t_par =
    time (fun () ->
        Sim.Flowsim.run_packed ~shards ~controller ~workload:packed ())
  in
  if sharded <> seq then failwith "SCALE: sharded run diverged from sequential";
  let peak_heap_mb =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words
    *. float_of_int (Sys.word_size / 8)
    /. 1048576.0
  in
  let speedup = if t_par > 0.0 then t_seq /. t_par else 1.0 in
  (* Wall times and the heap high-water mark are nondeterministic, so
     they stay on bracketed lines (CI's determinism diff filters those
     out); the deterministic summary carries only exact quantities. *)
  Format.printf "flows %d, packed store %.1f MB (%d B/flow), events %d@."
    scale_flows store_mb Sim.Workload.Packed.bytes_per_flow
    seq.Sim.Flowsim.events;
  Format.printf "sharded run identical to sequential: %b@." (sharded = seq);
  Format.printf
    "[SCALE seq %.2fs, %d shard(s) %.2fs, speedup %.2fx, peak heap %.1f MB]@."
    t_seq shards t_par speedup peak_heap_mb;
  scale_record :=
    Some
      (Printf.sprintf
         "{\"flows\": %d, \"shards\": %d, \"seq_wall_seconds\": %.3f, \
          \"sharded_wall_seconds\": %.3f, \"speedup_vs_seq\": %.2f, \
          \"events\": %d, \"peak_heap_mb\": %.1f, \"store_mb\": %.1f}"
         scale_flows shards t_seq t_par speedup seq.Sim.Flowsim.events
         peak_heap_mb store_mb)

let () = run_scale ()

(* ---- ALLOC: hot-path allocation per event -------------------------- *)

(* Minor-heap allocation per engine event over two fixed probe
   workloads, against the baselines measured with the same probes at
   the commit immediately preceding the zero-allocation hot-path work
   (packed flow keys, flat open-addressing tables, pooled DES events).
   [Gc.minor_words] counts the calling domain only, so both probes
   force jobs = 1 / shards = 1 regardless of the bench flags — on the
   domain pool the numbers would silently undercount.  Everything here
   is GC telemetry or wall clock, so the whole report stays on
   bracketed lines (CI's determinism diff filters those); the exact
   values go into BENCH_pktsim.json under "alloc". *)
let table3_baseline_words_per_event = 62.65
let pktsim_baseline_words_per_event = 162.80

let run_alloc () =
  Format.printf "@.##### ALLOC: hot-path allocation per event #####@.@.";
  let bracket f =
    let minor0 = Gc.minor_words () in
    let promoted0 = (Gc.quick_stat ()).Gc.promoted_words in
    let t0 = Unix.gettimeofday () in
    let events = f () in
    let dt = Unix.gettimeofday () -. t0 in
    ( events,
      Gc.minor_words () -. minor0,
      (Gc.quick_stat ()).Gc.promoted_words -. promoted0,
      dt )
  in
  let report name ~events ~minor ~promoted ~dt ~baseline =
    let per_event = minor /. float_of_int (max 1 events) in
    let reduction = baseline /. Float.max per_event 1e-9 in
    let events_per_sec =
      if dt > 0.0 then float_of_int events /. dt else 0.0
    in
    Format.printf
      "[%s: %d events, %.2f minor words/event (baseline %.2f, %.1fx less), \
       %.0f promoted words, %.0f events/sec]@."
      name events per_event baseline reduction promoted events_per_sec;
    Printf.sprintf
      "{\"probe\": %S, \"events\": %d, \"minor_words_per_event\": %.2f, \
       \"baseline_minor_words_per_event\": %.2f, \"reduction_factor\": %.2f, \
       \"promoted_words\": %.0f, \"events_per_sec\": %.0f, \
       \"wall_seconds\": %.3f}"
      name events per_event baseline reduction promoted events_per_sec dt
  in
  (* Probe 1: TABLE3's flow-level run — classification + steering for
     every flow, the Selector/Xhash fast path. *)
  let t3_events, t3_minor, t3_promoted, t3_dt =
    bracket (fun () ->
        (Sim.Experiment.run_table3 ~flows:150_000 ~seed:17 ~jobs:1 ~shards:1 ())
          .Sim.Experiment.t3_events)
  in
  let t3_json =
    report "TABLE3" ~events:t3_events ~minor:t3_minor ~promoted:t3_promoted
      ~dt:t3_dt ~baseline:table3_baseline_words_per_event
  in
  (* Probe 2: a packet-level run — flow caches, label tables and the
     pooled event loop.  Setup (deployment, workload, controller) is
     built outside the bracket; only [Pktsim.run] is measured. *)
  let deployment =
    Sim.Experiment.build_deployment Sim.Experiment.Campus ~seed:21
  in
  let workload =
    Sim.Workload.generate ~deployment ~seed:21 ~flows:2_000 ()
  in
  let traffic = Sim.Workload.measure workload in
  let controller =
    match
      Sdm.Controller.configure deployment ~rules:workload.Sim.Workload.rules
        (Sdm.Controller.Load_balanced traffic)
    with
    | Ok c -> c
    | Error e -> failwith ("ALLOC: " ^ e)
  in
  let pk_events, pk_minor, pk_promoted, pk_dt =
    bracket (fun () ->
        (Sim.Pktsim.run ~controller ~workload ()).Sim.Pktsim.events_processed)
  in
  let pk_json =
    report "PKTSIM" ~events:pk_events ~minor:pk_minor ~promoted:pk_promoted
      ~dt:pk_dt ~baseline:pktsim_baseline_words_per_event
  in
  alloc_record := Some (Printf.sprintf "[%s, %s]" t3_json pk_json)

let () = run_alloc ()

(* ---- Classifier scaling ------------------------------------------- *)

(* Synthetic rule sets of growing size: compare the linear scan's and
   the trie's lookup cost as the table grows (linear is O(n); the trie
   should stay flat). *)
let classifier_scaling () =
  Format.printf "@.##### MICRO-CLASSIFIER: matcher scaling #####@.@.";
  let rng = Stdx.Rng.create 99 in
  let random_prefix () =
    if Stdx.Rng.int rng 4 = 0 then Netpkt.Addr.Prefix.any
    else begin
      let len = 8 * (1 + Stdx.Rng.int rng 3) in
      Netpkt.Addr.Prefix.make
        (Netpkt.Addr.of_octets (Stdx.Rng.int rng 32) (Stdx.Rng.int rng 32)
           (Stdx.Rng.int rng 32) 0)
        len
    end
  in
  let random_port () =
    match Stdx.Rng.int rng 3 with
    | 0 -> Policy.Descriptor.Any_port
    | 1 -> Policy.Descriptor.Port (Stdx.Rng.int rng 1024)
    | _ ->
      let a = Stdx.Rng.int rng 1024 in
      Policy.Descriptor.Port_range (a, a + Stdx.Rng.int rng 64)
  in
  let make_rules n =
    List.init n (fun id ->
        Policy.Rule.make ~id
          ~descriptor:
            (Policy.Descriptor.make ~src:(random_prefix ()) ~dst:(random_prefix ())
               ~sport:(random_port ()) ~dport:(random_port ()) ())
          ~actions:Policy.Action.[ FW ])
  in
  let random_flow () =
    Netpkt.Flow.make
      ~src:
        (Netpkt.Addr.of_octets (Stdx.Rng.int rng 32) (Stdx.Rng.int rng 32)
           (Stdx.Rng.int rng 32) (Stdx.Rng.int rng 256))
      ~dst:
        (Netpkt.Addr.of_octets (Stdx.Rng.int rng 32) (Stdx.Rng.int rng 32)
           (Stdx.Rng.int rng 32) (Stdx.Rng.int rng 256))
      ~proto:6 ~sport:(Stdx.Rng.int rng 1100) ~dport:(Stdx.Rng.int rng 1100)
  in
  let lookups = 10_000 in
  let flows = Array.init lookups (fun _ -> random_flow ()) in
  let time f =
    let t0 = Unix.gettimeofday () in
    let acc = ref 0 in
    Array.iter (fun flow -> if f flow <> None then incr acc) flows;
    let dt = Unix.gettimeofday () -. t0 in
    (dt /. float_of_int lookups *. 1e9, !acc)
  in
  Format.printf "%8s %12s %12s %12s@." "rules" "linear ns" "trie ns"
    "trie nodes";
  List.iter
    (fun n ->
      let rules = make_rules n in
      let trie = Policy.Trie.build rules in
      let lin_ns, lin_hits = time (fun f -> Policy.Rule.first_match rules f) in
      let trie_ns, trie_hits = time (fun f -> Policy.Trie.first_match trie f) in
      (* Both must agree on every lookup — a live cross-check. *)
      if lin_hits <> trie_hits then
        failwith "classifier disagreement in scaling bench";
      Format.printf "%8d %12.0f %12.0f %12d@." n lin_ns trie_ns
        (Policy.Trie.node_count trie))
    [ 16; 64; 256; 1024; 4096 ]

(* Wall-clock per-lookup timings, so this table is as nondeterministic
   as the bechamel section below: --skip-micro drops both, which also
   keeps the CI determinism diff over the remaining report clean. *)
let () = if not skip_micro then classifier_scaling ()

(* ---- Bechamel microbenchmarks ------------------------------------- *)

open Bechamel
open Toolkit

let micro_tests () =
  let dep = Sim.Experiment.build_deployment Sim.Experiment.Campus ~seed:42 in
  let workload = Sim.Workload.generate ~deployment:dep ~seed:42 ~flows:5_000 () in
  let rules = workload.Sim.Workload.rules in
  let trie = Policy.Trie.build rules in
  let flows =
    Array.map
      (fun (f : Sim.Workload.flow_spec) -> f.Sim.Workload.flow)
      workload.Sim.Workload.flows
  in
  let n_flows = Array.length flows in
  let counter = ref 0 in
  let next_flow () =
    counter := (!counter + 1) mod n_flows;
    flows.(!counter)
  in
  let graph = dep.Sdm.Deployment.topo.Netgraph.Topology.graph in
  let traffic = Sim.Workload.measure workload in
  let candidates = Sdm.Candidate.compute dep ~k:Sdm.Controller.default_k in
  let cache = Policy.Flow_cache.create () in
  Array.iteri
    (fun i f ->
      if i < 2000 then
        ignore
          (Policy.Flow_cache.insert cache ~now:0.0 f ~rule_id:0
             ~actions:Policy.Action.[ FW ] ()))
    flows;
  let controller =
    match
      Sdm.Controller.configure dep ~rules (Sdm.Controller.Load_balanced traffic)
    with
    | Ok c -> c
    | Error e -> failwith e
  in
  let rule0 =
    List.find (fun r -> not (Policy.Action.is_permit r.Policy.Rule.actions)) rules
  in
  [
    Test.make ~name:"policy-match/trie"
      (Staged.stage (fun () -> ignore (Policy.Trie.first_match trie (next_flow ()))));
    Test.make ~name:"policy-match/linear"
      (Staged.stage (fun () -> ignore (Policy.Rule.first_match rules (next_flow ()))));
    Test.make ~name:"flow-cache/lookup"
      (Staged.stage (fun () ->
           ignore (Policy.Flow_cache.lookup cache ~now:1.0 (next_flow ()))));
    Test.make ~name:"flow-hash/fnv1a"
      (Staged.stage (fun () -> ignore (Netpkt.Flow.hash (next_flow ()))));
    Test.make ~name:"selector/next-hop-lb"
      (Staged.stage (fun () ->
           ignore
             (Sdm.Controller.next_hop controller (Mbox.Entity.Proxy 0) ~rule:rule0
                ~nf:Policy.Action.FW (next_flow ()))));
    Test.make ~name:"dijkstra/campus-sssp"
      (Staged.stage (fun () -> ignore (Netgraph.Dijkstra.run graph 0)));
    Test.make ~name:"lp/eq2-campus-solve"
      (Staged.stage (fun () ->
           ignore (Sdm.Lp_formulation.solve_simplified candidates ~rules ~traffic ())));
  ]

let run_micro () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) () in
  Format.printf "@.##### MICRO: Bechamel microbenchmarks #####@.@.";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Format.printf "%-28s %14.1f ns/op@." name est
          | _ -> Format.printf "%-28s (no estimate)@." name)
        analyzed)
    (micro_tests ())

let () = if not skip_micro then run_micro ()
let () = if json_out then write_json ()
