(* Audit columns: "-" in tables, empty in CSVs, when the online audit
   was off for the run. *)
let audit_cell s =
  match Experiment.audit_violations s with None -> "-" | Some n -> string_of_int n

let audit_csv s =
  match Experiment.audit_violations s with None -> "" | Some n -> string_of_int n

let max_load (s : Pktsim.stats) = Array.fold_left Stdlib.max 0.0 s.Pktsim.loads

let lookup_fraction (s : Pktsim.stats) =
  float_of_int s.Pktsim.multi_field_lookups
  /. float_of_int (max 1 s.Pktsim.injected_packets)

let millions v =
  if v >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.1fk" (v /. 1e3)
  else Printf.sprintf "%.0f" v

let pp_figure ppf (fig : Experiment.figure) =
  Format.fprintf ppf "=== Max middlebox load vs traffic volume (%s topology) ===@."
    (Experiment.scenario_name fig.Experiment.scenario);
  let nfs =
    match fig.Experiment.points with
    | [] -> []
    | p :: _ -> List.map fst p.Experiment.max_loads
  in
  List.iter
    (fun nf ->
      Format.fprintf ppf "@.-- %s --@." (Policy.Action.nf_to_string nf);
      Format.fprintf ppf "%12s %10s %10s %10s %10s@." "flows" "packets" "HP"
        "Rand" "LB";
      List.iter
        (fun (p : Experiment.point) ->
          let hp, rand, lb = List.assoc nf p.Experiment.max_loads in
          Format.fprintf ppf "%12d %10s %10s %10s %10s@." p.Experiment.flows
            (millions (float_of_int p.Experiment.total_packets))
            (millions hp) (millions rand) (millions lb))
        fig.Experiment.points)
    nfs

let figure_csv (fig : Experiment.figure) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "nf,flows,packets,hp,rand,lb\n";
  List.iter
    (fun (p : Experiment.point) ->
      List.iter
        (fun (nf, (hp, rand, lb)) ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%d,%d,%.0f,%.0f,%.0f\n"
               (Policy.Action.nf_to_string nf)
               p.Experiment.flows p.Experiment.total_packets hp rand lb))
        p.Experiment.max_loads)
    fig.Experiment.points;
  Buffer.contents buf

let table3_csv rows =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "nf,hp_max,hp_min,rand_max,rand_min,lb_max,lb_min\n";
  List.iter
    (fun (r : Experiment.table3_row) ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f\n"
           (Policy.Action.nf_to_string r.Experiment.nf)
           r.Experiment.hp_max r.Experiment.hp_min r.Experiment.rand_max
           r.Experiment.rand_min r.Experiment.lb_max r.Experiment.lb_min))
    rows;
  Buffer.contents buf

let pp_table3 ppf rows =
  Format.fprintf ppf
    "=== Load distribution: max/min load per middlebox type (Table III) ===@.";
  Format.fprintf ppf "%-10s %12s %12s %12s@." "Middlebox" "Hot-potato"
    "Random" "Load-balance";
  List.iter
    (fun (r : Experiment.table3_row) ->
      let name = Policy.Action.nf_to_string r.Experiment.nf in
      Format.fprintf ppf "%-10s %12.0f %12.0f %12.0f@." (name ^ " max.")
        r.Experiment.hp_max r.Experiment.rand_max r.Experiment.lb_max;
      Format.fprintf ppf "%-10s %12.0f %12.0f %12.0f@." (name ^ " min.")
        r.Experiment.hp_min r.Experiment.rand_min r.Experiment.lb_min)
    rows

let pp_k_ablation ppf points =
  Format.fprintf ppf
    "=== Ablation: candidate-set size k vs LB max load (campus) ===@.";
  Format.fprintf ppf "%14s" "k (FW/IDS, WP/TM)";
  (match points with
  | [] -> ()
  | p :: _ ->
    List.iter
      (fun (nf, _) -> Format.fprintf ppf " %10s" (Policy.Action.nf_to_string nf))
      p.Experiment.lb_max_by_nf);
  Format.fprintf ppf "@.";
  List.iter
    (fun (p : Experiment.k_point) ->
      Format.fprintf ppf "%9d, %5d" p.Experiment.k_fw_ids p.Experiment.k_wp_tm;
      List.iter
        (fun (_, v) -> Format.fprintf ppf " %10s" (millions v))
        p.Experiment.lb_max_by_nf;
      Format.fprintf ppf "@.")
    points

let pp_cache_ablation ppf (s : Pktsim.stats) =
  Format.fprintf ppf
    "=== Ablation: flow cache vs multi-field lookups (Sec. III.D) ===@.";
  (* Lookup events happen per packet *arrival* at proxies and
     middleboxes; normalise by the proxy-side injections. *)
  Format.fprintf ppf
    "packets injected: %d@.multi-field lookups: %d@.cache hits: %d@.negative \
     hits: %d@.lookup fraction: %.4f@."
    s.Pktsim.injected_packets s.Pktsim.multi_field_lookups s.Pktsim.cache_hits
    s.Pktsim.cache_negative_hits (lookup_fraction s)

let pp_cache_size_ablation ppf points =
  Format.fprintf ppf
    "=== Ablation: flow-cache capacity vs multi-field lookups ===@.";
  Format.fprintf ppf "%10s %18s %12s@." "capacity" "lookup fraction" "evictions";
  List.iter
    (fun (p : Experiment.cache_size_point) ->
      Format.fprintf ppf "%10s %18.4f %12d@."
        (match p.Experiment.capacity with
        | Some c -> string_of_int c
        | None -> "unbounded")
        (lookup_fraction p.Experiment.size_stats)
        p.Experiment.size_stats.Pktsim.cache_evictions)
    points

let pp_frag_ablation ppf (f : Experiment.frag_stats) =
  let ls = f.Experiment.label_switched in
  Format.fprintf ppf
    "=== Ablation: fragmentation, IP-over-IP vs label switching (Sec. III.E) \
     ===@.";
  Format.fprintf ppf
    "extra fragments, IP-over-IP only: %d@.extra fragments, with label \
     switching: %d@.tunneled legs: %d@.label-switched legs: %d@."
    f.Experiment.ip_over_ip.Pktsim.fragments_created ls.Pktsim.fragments_created
    ls.Pktsim.tunneled_packets ls.Pktsim.label_switched_packets

let pp_failure_ablation ppf (f : Experiment.failure_report) =
  Format.fprintf ppf
    "=== Ablation: middlebox failure, fast failover vs re-optimization ===@.";
  Format.fprintf ppf "failed middlebox: mbox%d (%s), %d survivors of its type@."
    f.Experiment.failed_mbox
    (Policy.Action.nf_to_string f.Experiment.failed_nf)
    f.Experiment.survivors;
  Format.fprintf ppf "max %s load before failure (LB):      %s@."
    (Policy.Action.nf_to_string f.Experiment.failed_nf)
    (millions f.Experiment.before_max);
  Format.fprintf ppf "after failure, local fast failover:    %s@."
    (millions f.Experiment.failover_max);
  Format.fprintf ppf "after controller re-optimization:      %s (lambda %s)@."
    (millions f.Experiment.reoptimized_max)
    (millions f.Experiment.reoptimized_lambda);
  Format.fprintf ppf "hot-potato under the same failure:     %s@."
    (millions f.Experiment.hp_failover_max)

(* ABL-LIVE's per-device view comes from its lossiest row (the first
   of the highest loss) — the one where retries and version lag
   actually have something to show. *)
let iter_devices (l : Experiment.live_report) f =
  match
    List.fold_left
      (fun best (r : Experiment.live_row) ->
        match best with
        | Some (b : Experiment.live_row)
          when b.Experiment.live_loss >= r.Experiment.live_loss -> best
        | _ -> Some r)
      None l.Experiment.live_rows
  with
  | None -> ()
  | Some r ->
    let s = r.Experiment.live_stats in
    List.iteri
      (fun i name ->
        let version = s.Pktsim.entity_config_version.(i) in
        f name version
          (s.Pktsim.final_config_version - version)
          s.Pktsim.entity_control_retries.(i) s.Pktsim.entity_control_lost.(i))
      l.Experiment.live_devices

(* Versions that reached the staged window without a quorum commit —
   ABL-QUORUM's headline safety number; always 0. *)
let uncommitted (s : Pktsim.stats) =
  s.Pktsim.reoptimizations - s.Pktsim.quorum_commits

let replica_versions (s : Pktsim.stats) =
  String.concat "/" (List.map string_of_int (Array.to_list s.Pktsim.replica_versions))

let pp_chaos_ablation ppf (c : Experiment.chaos_report) =
  Format.fprintf ppf
    "=== ABL-CHAOS: in-run faults, detection-delay sweep (campus) ===@.";
  Format.fprintf ppf "crash: mbox%d (%s) at t=%.1f, never restored@."
    c.Experiment.chaos_victim
    (Policy.Action.nf_to_string c.Experiment.chaos_victim_nf)
    c.Experiment.chaos_crash_at;
  (match c.Experiment.chaos_link with
  | Some (u, v) ->
    Format.fprintf ppf "link: %d-%d fails at t=%.1f, restored at t=%.1f@." u v
      c.Experiment.chaos_link_fail_at c.Experiment.chaos_link_restore_at
  | None -> ());
  Format.fprintf ppf "control-packet loss: %.0f%% (masked by retransmission)@."
    (100.0 *. c.Experiment.chaos_control_loss);
  Format.fprintf ppf "%-16s %7s %9s %10s %8s %10s %8s %9s %14s %6s@." "mode"
    "detect" "injected" "delivered" "dropped" "violating" "retries" "recovery"
    "max surviving" "audit";
  List.iter
    (fun (r : Experiment.chaos_row) ->
      let s = r.Experiment.chaos_stats in
      (* Time from the crash to the last policy violation. *)
      let recovery =
        if s.Pktsim.policy_violations = 0 then 0.0
        else
          Stdlib.max 0.0
            (s.Pktsim.last_violation_time -. c.Experiment.chaos_crash_at)
      in
      Format.fprintf ppf "%-16s %7s %9d %10d %8d %10d %8d %9.1f %14s %6s@."
        r.Experiment.chaos_mode
        (if Float.is_integer r.Experiment.chaos_delay then
           Printf.sprintf "%.0f" r.Experiment.chaos_delay
         else "never")
        s.Pktsim.injected_packets s.Pktsim.delivered_packets
        s.Pktsim.dropped_packets s.Pktsim.policy_violations
        s.Pktsim.control_retries recovery
        (millions r.Experiment.chaos_max_surviving)
        (audit_cell s))
    c.Experiment.chaos_rows

let pp_live_ablation ppf (l : Experiment.live_report) =
  Format.fprintf ppf
    "=== ABL-LIVE: live reconfiguration, control-loss sweep (campus) ===@.";
  Format.fprintf ppf
    "epoch %.1f, reconcile %.1f; stale HP max %s, clairvoyant LB max %s@."
    l.Experiment.live_epoch l.Experiment.live_reconcile
    (millions (max_load l.Experiment.live_stale))
    (millions (max_load l.Experiment.live_clairvoyant));
  Format.fprintf ppf "%8s %9s %10s %10s %9s %7s %6s %5s %9s %6s %10s %6s@."
    "loss" "injected" "delivered" "violating" "versions" "pushes" "acks" "lost"
    "degraded" "stale" "max load" "audit";
  List.iter
    (fun (r : Experiment.live_row) ->
      let s = r.Experiment.live_stats in
      Format.fprintf ppf
        "%7.0f%% %9d %10d %10d %9d %7d %6d %5d %9d %6d %10s %6s@."
        (100.0 *. r.Experiment.live_loss)
        s.Pktsim.injected_packets s.Pktsim.delivered_packets
        s.Pktsim.policy_violations s.Pktsim.final_config_version
        s.Pktsim.config_pushes s.Pktsim.config_acks s.Pktsim.config_lost
        s.Pktsim.config_degraded s.Pktsim.stale_devices
        (millions (max_load s)) (audit_cell s))
    l.Experiment.live_rows;
  Format.fprintf ppf "@.per device (lossiest row):@.";
  Format.fprintf ppf "%-10s %8s %5s %8s %5s@." "device" "version" "lag"
    "retries" "lost";
  iter_devices l (fun name version lag retries lost ->
      Format.fprintf ppf "%-10s %8d %5d %8d %5d@." name version lag retries lost)

let live_csv (l : Experiment.live_report) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "loss,injected,delivered,violating,versions,pushes,acks,lost,degraded,stale,bytes,max_load,audit\n";
  List.iter
    (fun (r : Experiment.live_row) ->
      let s = r.Experiment.live_stats in
      Buffer.add_string buf
        (Printf.sprintf "%.2f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.0f,%s\n"
           r.Experiment.live_loss s.Pktsim.injected_packets
           s.Pktsim.delivered_packets s.Pktsim.policy_violations
           s.Pktsim.final_config_version s.Pktsim.config_pushes
           s.Pktsim.config_acks s.Pktsim.config_lost s.Pktsim.config_degraded
           s.Pktsim.stale_devices s.Pktsim.config_bytes (max_load s)
           (audit_csv s)))
    l.Experiment.live_rows;
  Buffer.contents buf

let live_devices_csv (l : Experiment.live_report) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "device,version,lag,retries,lost\n";
  iter_devices l (fun name version lag retries lost ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%d,%d,%d\n" name version lag retries lost));
  Buffer.contents buf

let pp_quorum_ablation ppf (q : Experiment.quorum_report) =
  Format.fprintf ppf
    "=== ABL-QUORUM: replicated controller under chaos (campus) ===@.";
  Format.fprintf ppf
    "%d replicas (majority quorum), leader at router %d; epoch %.1f, \
     reconcile %.1f@."
    q.Experiment.q_replicas q.Experiment.q_leader_router q.Experiment.q_epoch
    q.Experiment.q_reconcile;
  Format.fprintf ppf
    "leader crash at %.1f; partition %.1f-%.1f; probe %d events@."
    q.Experiment.q_crash_at q.Experiment.q_partition_at q.Experiment.q_heal_at
    q.Experiment.q_probe.Pktsim.events_processed;
  Format.fprintf ppf
    "%-13s %5s %9s %10s %9s %7s %8s %7s %6s %6s %6s %9s %6s %6s %12s %6s@."
    "scenario" "loss" "injected" "delivered" "versions" "rounds" "commits"
    "aborts" "msgs" "lost" "elect" "degraded" "stale" "uncomm" "replicas"
    "audit";
  List.iter
    (fun (r : Experiment.quorum_row) ->
      let s = r.Experiment.qr_stats in
      Format.fprintf ppf
        "%-13s %4.0f%% %9d %10d %9d %7d %8d %7d %6d %6d %6d %9d %6d %6d %12s \
         %6s@."
        r.Experiment.qr_scenario
        (100.0 *. r.Experiment.qr_loss)
        s.Pktsim.injected_packets s.Pktsim.delivered_packets
        s.Pktsim.final_config_version s.Pktsim.quorum_rounds
        s.Pktsim.quorum_commits s.Pktsim.quorum_aborts s.Pktsim.quorum_msgs
        s.Pktsim.quorum_lost s.Pktsim.leader_changes s.Pktsim.config_degraded
        s.Pktsim.stale_devices (uncommitted s) (replica_versions s)
        (audit_cell s))
    q.Experiment.q_rows

let quorum_csv (q : Experiment.quorum_report) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "scenario,loss,injected,delivered,violating,versions,rounds,commits,aborts,msgs,lost,elections,degraded,stale,uncommitted,replica_versions,audit\n";
  List.iter
    (fun (r : Experiment.quorum_row) ->
      let s = r.Experiment.qr_stats in
      Buffer.add_string buf
        (Printf.sprintf "%s,%.2f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%s\n"
           r.Experiment.qr_scenario r.Experiment.qr_loss
           s.Pktsim.injected_packets s.Pktsim.delivered_packets
           s.Pktsim.policy_violations s.Pktsim.final_config_version
           s.Pktsim.quorum_rounds s.Pktsim.quorum_commits
           s.Pktsim.quorum_aborts s.Pktsim.quorum_msgs s.Pktsim.quorum_lost
           s.Pktsim.leader_changes s.Pktsim.config_degraded
           s.Pktsim.stale_devices (uncommitted s) (replica_versions s)
           (audit_csv s)))
    q.Experiment.q_rows;
  Buffer.contents buf

let sweep_cell = function
  | None -> "off"
  | Some p -> Printf.sprintf "%.1f" p

let pp_corrupt_ablation ppf (c : Experiment.corrupt_report) =
  Format.fprintf ppf
    "=== ABL-CORRUPT: silent corruption vs anti-entropy repair (campus) ===@.";
  Format.fprintf ppf
    "horizon %.1f; epoch %.1f, reconcile %.1f; sweep period %.1f when on; \
     probe %d events@."
    c.Experiment.c_probe.Pktsim.sim_time c.Experiment.c_epoch
    c.Experiment.c_reconcile c.Experiment.c_default_sweep
    c.Experiment.c_probe.Pktsim.events_processed;
  Format.fprintf ppf
    "%-4s %5s %6s %9s %10s %7s %6s %6s %6s %9s %8s %8s %7s %6s@." "plan"
    "rate" "sweep" "injected" "delivered" "corrupt" "manif" "detect" "repair"
    "violating" "win-mean" "win-max" "swbytes" "audit";
  List.iter
    (fun (r : Experiment.corrupt_row) ->
      let s = r.Experiment.cr_stats in
      Format.fprintf ppf
        "%-4s %5.2f %6s %9d %10d %7d %6d %6d %6d %9d %8.2f %8.2f %7d %6s@."
        r.Experiment.cr_strategy r.Experiment.cr_rate
        (sweep_cell r.Experiment.cr_sweep)
        s.Pktsim.injected_packets s.Pktsim.delivered_packets
        s.Pktsim.corruptions_injected s.Pktsim.corruptions_manifested
        s.Pktsim.corruptions_detected s.Pktsim.corruptions_repaired
        s.Pktsim.policy_violations s.Pktsim.repair_window_mean
        s.Pktsim.repair_window_max s.Pktsim.sweep_bytes (audit_cell s))
    c.Experiment.c_rows

let corrupt_csv (c : Experiment.corrupt_report) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "plan,rate,sweep_period,injected,delivered,corruptions,manifested,detected,repaired,violating,window_mean,window_max,sweep_rounds,sweep_msgs,sweep_bytes,audit\n";
  List.iter
    (fun (r : Experiment.corrupt_row) ->
      let s = r.Experiment.cr_stats in
      Buffer.add_string buf
        (Printf.sprintf "%s,%.3f,%s,%d,%d,%d,%d,%d,%d,%d,%.3f,%.3f,%d,%d,%d,%s\n"
           r.Experiment.cr_strategy r.Experiment.cr_rate
           (match r.Experiment.cr_sweep with
           | None -> ""
           | Some p -> Printf.sprintf "%.3f" p)
           s.Pktsim.injected_packets s.Pktsim.delivered_packets
           s.Pktsim.corruptions_injected s.Pktsim.corruptions_manifested
           s.Pktsim.corruptions_detected s.Pktsim.corruptions_repaired
           s.Pktsim.policy_violations s.Pktsim.repair_window_mean
           s.Pktsim.repair_window_max s.Pktsim.sweep_rounds s.Pktsim.sweep_msgs
           s.Pktsim.sweep_bytes (audit_csv s)))
    c.Experiment.c_rows;
  Buffer.contents buf

let pp_reopt_ablation ppf (r : Experiment.reopt_report) =
  Format.fprintf ppf
    "=== ABL-REOPT: warm-started re-optimization vs cold re-solve ===@.";
  Format.fprintf ppf "control-packet loss: %.0f%% (masked by retransmission)@."
    (100.0 *. r.Experiment.rp_control_loss);
  List.iter
    (fun (i : Experiment.reopt_scenario_info) ->
      let v1, v2 = i.Experiment.ri_victims in
      Format.fprintf ppf
        "%s: %d routers; epoch %.1f, reconcile %.1f; churn mbox%d \
         %.1f-%.1f, mbox%d %.1f-%.1f@."
        i.Experiment.ri_name i.Experiment.ri_routers i.Experiment.ri_epoch
        i.Experiment.ri_reconcile v1 i.Experiment.ri_crash1
        i.Experiment.ri_recover1 v2 i.Experiment.ri_crash2
        i.Experiment.ri_recover2)
    r.Experiment.rp_infos;
  Format.fprintf ppf "%-8s %8s %5s %7s %7s %7s %5s %9s %9s %10s %10s %9s %9s %10s %6s@."
    "scenario" "routers" "mode" "reopts" "pivots" "phase1" "warm" "fallback"
    "injected" "delivered" "violating" "versions" "degraded" "max load" "audit";
  List.iter
    (fun (row : Experiment.reopt_row) ->
      let s = row.Experiment.rp_stats in
      Format.fprintf ppf
        "%-8s %8d %5s %7d %7d %7d %5d %9d %9d %10d %10d %9d %9d %10s %6s@."
        row.Experiment.rp_scenario row.Experiment.rp_routers
        (if row.Experiment.rp_warm then "warm" else "cold")
        s.Pktsim.reoptimizations s.Pktsim.reopt_pivots
        s.Pktsim.reopt_phase1_pivots s.Pktsim.reopt_warm_used
        s.Pktsim.reopt_fallback s.Pktsim.injected_packets
        s.Pktsim.delivered_packets s.Pktsim.policy_violations
        s.Pktsim.final_config_version s.Pktsim.config_degraded
        (millions (max_load s)) (audit_cell s))
    r.Experiment.rp_rows;
  Format.fprintf ppf "@.controller-level churn replay (per re-optimization):@.";
  Format.fprintf ppf "%-8s %4s %-10s %11s %11s %5s %9s %6s@." "scenario" "step"
    "failed" "cold pivots" "warm pivots" "warm" "fallback" "agree";
  List.iter
    (fun (name, steps) ->
      List.iteri
        (fun i (s : Experiment.reopt_step) ->
          Format.fprintf ppf "%-8s %4d %-10s %11d %11d %5s %9s %6s@." name
            (i + 1)
            (match s.Experiment.rs_failed with
            | [] -> "-"
            | l -> String.concat "+" (List.map string_of_int l))
            s.Experiment.rs_cold_pivots s.Experiment.rs_warm_pivots
            (if s.Experiment.rs_warm_used then "yes" else "no")
            (if s.Experiment.rs_fallback then "yes" else "no")
            (if s.Experiment.rs_agree then "yes" else "NO"))
        steps)
    r.Experiment.rp_replays;
  Format.fprintf ppf "warm/cold objective agreement: %d/%d replay steps@."
    r.Experiment.rp_agree r.Experiment.rp_total

let reopt_csv (r : Experiment.reopt_report) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "scenario,routers,mode,reopts,pivots,phase1,warm_used,fallback,injected,delivered,violating,versions,degraded,max_load,audit\n";
  List.iter
    (fun (row : Experiment.reopt_row) ->
      let s = row.Experiment.rp_stats in
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.0f,%s\n"
           row.Experiment.rp_scenario row.Experiment.rp_routers
           (if row.Experiment.rp_warm then "warm" else "cold")
           s.Pktsim.reoptimizations s.Pktsim.reopt_pivots
           s.Pktsim.reopt_phase1_pivots s.Pktsim.reopt_warm_used
           s.Pktsim.reopt_fallback s.Pktsim.injected_packets
           s.Pktsim.delivered_packets s.Pktsim.policy_violations
           s.Pktsim.final_config_version s.Pktsim.config_degraded (max_load s)
           (audit_csv s)))
    r.Experiment.rp_rows;
  Buffer.contents buf

let reopt_steps_csv (r : Experiment.reopt_report) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "scenario,step,failed,cold_pivots,warm_pivots,cold_lambda,warm_lambda,warm_used,fallback,agree\n";
  List.iter
    (fun (name, steps) ->
      List.iteri
        (fun i (s : Experiment.reopt_step) ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%d,%s,%d,%d,%.6f,%.6f,%b,%b,%b\n" name (i + 1)
               (String.concat "+" (List.map string_of_int s.Experiment.rs_failed))
               s.Experiment.rs_cold_pivots s.Experiment.rs_warm_pivots
               s.Experiment.rs_cold_lambda s.Experiment.rs_warm_lambda
               s.Experiment.rs_warm_used s.Experiment.rs_fallback
               s.Experiment.rs_agree))
        steps)
    r.Experiment.rp_replays;
  Buffer.contents buf

let pp_sketch_ablation ppf points =
  Format.fprintf ppf
    "=== Ablation: Count-Min sketched measurement vs exact (campus) ===@.";
  (match points with
  | [] -> ()
  | p :: _ ->
    Format.fprintf ppf "exact matrix: %d cells; exact lambda %s; realized max %s@."
      p.Experiment.exact_cells
      (millions p.Experiment.exact_lambda)
      (millions p.Experiment.exact_realized_max));
  Format.fprintf ppf "%10s %14s %12s %14s@." "epsilon" "sketch cells" "lambda"
    "realized max";
  List.iter
    (fun (p : Experiment.sketch_point) ->
      Format.fprintf ppf "%10.4f %14d %12s %14s@." p.Experiment.epsilon
        p.Experiment.sketch_cells
        (millions p.Experiment.sketched_lambda)
        (millions p.Experiment.sketched_realized_max))
    points

let pp_epochs ppf metrics =
  Format.fprintf ppf
    "=== Ablation: epoch adaptation under drifting traffic (campus) ===@.";
  Format.fprintf ppf "%6s %9s %9s %12s %14s %10s %8s@." "epoch" "flows"
    "packets" "stale LB" "clairvoyant" "HP" "gap";
  List.iter
    (fun (m : Epochsim.epoch_metrics) ->
      Format.fprintf ppf "%6d %9d %9s %12s %14s %10s %8.2f@." m.Epochsim.epoch
        m.Epochsim.flows
        (millions (float_of_int m.Epochsim.packets))
        (millions m.Epochsim.stale_lb_max)
        (millions m.Epochsim.clairvoyant_lb_max)
        (millions m.Epochsim.hp_max)
        m.Epochsim.staleness_gap)
    metrics

let pp_engine ppf runs =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 runs in
  Format.fprintf ppf "engine events: %d processed, %d router hops fast-forwarded@."
    (sum (fun s -> s.Pktsim.events_processed))
    (sum (fun s -> s.Pktsim.router_hops))

let pp_latency_ablation ppf (l : Experiment.latency_report) =
  let e = l.Experiment.enforced and p = l.Experiment.plain in
  Format.fprintf ppf
    "=== Ablation: end-to-end latency with/without enforcement (campus, LB) \
     ===@.";
  Format.fprintf ppf "%12s %10s %10s %10s@." "" "mean" "p50" "p99";
  Format.fprintf ppf "%12s %10.2f %10.2f %10.2f@." "enforced"
    e.Pktsim.latency_mean e.Pktsim.latency_p50 e.Pktsim.latency_p99;
  Format.fprintf ppf "%12s %10.2f %10.2f %10.2f@." "plain"
    p.Pktsim.latency_mean p.Pktsim.latency_p50 p.Pktsim.latency_p99;
  Format.fprintf ppf "mean enforcement overhead: %.2fx@."
    (if p.Pktsim.latency_mean > 0.0 then
       e.Pktsim.latency_mean /. p.Pktsim.latency_mean
     else 1.0);
  pp_engine ppf [ e; p ]

let pp_queue_ablation ppf (q : Experiment.queue_report) =
  let hp = q.Experiment.queue_hp and lb = q.Experiment.queue_lb in
  Format.fprintf ppf
    "=== Ablation: middlebox queueing, HP vs LB latency (campus) ===@.";
  Format.fprintf ppf "service rate: %.1f pkt/unit per middlebox@."
    q.Experiment.service_rate;
  Format.fprintf ppf "%6s %12s %14s %14s@." "" "util(max)" "latency mean"
    "latency p99";
  Format.fprintf ppf "%6s %12.2f %14.2f %14.2f@." "HP" q.Experiment.hp_util_max
    hp.Pktsim.latency_mean hp.Pktsim.latency_p99;
  Format.fprintf ppf "%6s %12.2f %14.2f %14.2f@." "LB" q.Experiment.lb_util_max
    lb.Pktsim.latency_mean lb.Pktsim.latency_p99;
  pp_engine ppf [ q.Experiment.queue_probe; hp; lb ]

let pp_lp_ablation ppf (l : Experiment.lp_compare) =
  Format.fprintf ppf
    "=== Ablation: LP formulation Eq.(1) exact vs Eq.(2) simplified ===@.";
  Format.fprintf ppf
    "exact:      lambda=%.0f realized=%.0f vars=%d constraints=%d weight \
     rows=%d@."
    l.Experiment.exact_lambda l.Experiment.exact_realized
    l.Experiment.exact_vars l.Experiment.exact_constraints
    l.Experiment.exact_weight_rows;
  Format.fprintf ppf
    "simplified: lambda=%.0f realized=%.0f vars=%d constraints=%d weight \
     rows=%d@."
    l.Experiment.simplified_lambda l.Experiment.simplified_realized
    l.Experiment.simplified_vars l.Experiment.simplified_constraints
    l.Experiment.simplified_weight_rows
