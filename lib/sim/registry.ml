type params = {
  seed : int;
  flows : int option;
  fast : bool;
  audit : bool;
  jobs : int;
  shards : int;
}

type outcome = {
  print : Format.formatter -> unit;
  events : int;
  hops : int;
  csvs : (string * string) list;
  audits : int list;
  failure : string option;
}

type entry = {
  name : string;
  section : string;
  title : string;
  default_flows : (int * int) option;
  auditable : bool;
  run : params -> outcome;
}

let outcome ?(hops = 0) ?(csvs = []) ?(audits = []) ?failure ~events print =
  { print; events; hops; csvs; audits; failure }

let show pp v ppf = Format.fprintf ppf "%a@." pp v
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* [run] receives the resolved flow count: the explicit one, else the
   entry's default for the scale; entries without defaults ignore it. *)
let make ?default_flows ?(auditable = false) name section title run =
  let resolve (p : params) =
    match (p.flows, default_flows) with
    | Some n, _ -> n
    | None, Some (full, fast) -> if p.fast then fast else full
    | None, None -> 0
  in
  { name; section; title; default_flows; auditable;
    run = (fun p -> run p (resolve p)) }

let config scenario ~seed ~flows =
  let deployment = Experiment.build_deployment scenario ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  let traffic = Workload.measure workload in
  match
    Sdm.Controller.configure deployment ~rules:workload.Workload.rules
      (Sdm.Controller.Load_balanced traffic)
  with
  | Error e -> outcome ~events:0 ~failure:("configuration failed: " ^ e) ignore
  | Ok c ->
    let violations =
      match Sdm.Verify.check c with Ok () -> [] | Error vs -> vs
    in
    let verdict =
      if violations = [] then "static verification: configuration certified"
      else Printf.sprintf "static verification: %d violations" (List.length violations)
    in
    let print ppf =
      Format.fprintf ppf "%a@." Sdm.Controller.pp_config_summary
        (Sdm.Controller.config_summary c);
      Format.fprintf ppf "%a@." Controlplane.pp_report (Controlplane.price c ~traffic);
      Format.fprintf ppf "%s@." verdict;
      List.iter (Format.fprintf ppf "  %a@." Sdm.Verify.pp_violation) violations
    in
    outcome ~events:0 ?failure:(if violations = [] then None else Some verdict) print

(* Packet-level runs: their events and router hops, summed. *)
let pkt runs =
  outcome
    ~events:(sum (fun s -> s.Pktsim.events_processed) runs)
    ~hops:(sum (fun s -> s.Pktsim.router_hops) runs)

(* Packet-level sweeps: the probe runs plus every row, and each row's
   audit count when auditing was on. *)
let sweep ~probes ~stats rows =
  let rows = List.map stats rows in
  pkt (probes @ rows) ~audits:(List.filter_map Experiment.audit_violations rows)

let chaos_outcome (r : Experiment.chaos_report) =
  sweep ~probes:[ r.chaos_probe ] r.chaos_rows
    ~stats:(fun x -> x.Experiment.chaos_stats)
    (show Report.pp_chaos_ablation r)

let reopt_outcome (r : Experiment.reopt_report) =
  let failure =
    if r.rp_agree = r.rp_total then None
    else
      Some
        (Printf.sprintf "warm/cold objective mismatch (%d/%d steps)"
           r.rp_agree r.rp_total)
  in
  sweep r.rp_rows ?failure
    ~probes:(List.map (fun i -> i.Experiment.ri_probe) r.rp_infos)
    ~stats:(fun x -> x.Experiment.rp_stats)
    ~csvs:
      [
        ("abl_reopt.csv", Report.reopt_csv r);
        ("abl_reopt_steps.csv", Report.reopt_steps_csv r);
      ]
    (show Report.pp_reopt_ablation r)

let figure name section title scenario csv =
  make name section title (fun p _ ->
      let flow_counts = if p.fast then Some [ 30_000; 90_000; 150_000 ] else None in
      let fig =
        Experiment.run_figure scenario ?flow_counts ~seed:p.seed ~jobs:p.jobs
          ~shards:p.shards ()
      in
      outcome ~events:fig.fig_events ~csvs:[ (csv, Report.figure_csv fig) ]
        (show Report.pp_figure fig))

let table3 ?scenario ?csv p flows =
  let t =
    Experiment.run_table3 ?scenario ~flows ~seed:p.seed ~jobs:p.jobs
      ~shards:p.shards ()
  in
  outcome ~events:t.t3_events
    ~csvs:(Option.to_list (Option.map (fun n -> (n, Report.table3_csv t.t3_rows)) csv))
    (show Report.pp_table3 t.t3_rows)

let all =
  [
    figure "fig4" "FIG4" "campus topology (Figure 4)" Experiment.Campus
      "fig4.csv";
    figure "fig5" "FIG5" "Waxman topology (Figure 5)" Experiment.Waxman
      "fig5.csv";
    make "table3" "TABLE3" "load distribution, campus (Table III)"
      ~default_flows:(300_000, 150_000) (table3 ~csv:"table3.csv");
    make "table3-waxman" "TABLE3-WAXMAN"
      "load distribution, Waxman (supplementary)"
      ~default_flows:(300_000, 150_000) (table3 ~scenario:Experiment.Waxman);
    make "k" "ABL-K" "candidate-set size sensitivity"
      ~default_flows:(120_000, 60_000) (fun p flows ->
        let r =
          Experiment.ablation_k ~flows ~seed:p.seed ~jobs:p.jobs ~shards:p.shards ()
        in
        outcome ~events:r.k_events (show Report.pp_k_ablation r.k_points));
    make "cache" "ABL-CACHE" "flow cache vs multi-field lookups (Sec. III.D)"
      ~default_flows:(2_000, 500) (fun p flows ->
        let r = Experiment.ablation_cache ~flows ~seed:p.seed ~shards:p.shards () in
        pkt [ r ] (show Report.pp_cache_ablation r));
    make "cachesize" "ABL-CACHESIZE" "flow-cache capacity vs lookups"
      ~default_flows:(1_000, 300) (fun p flows ->
        let r =
          Experiment.ablation_cache_size ~flows ~seed:p.seed ~jobs:p.jobs
            ~shards:p.shards ()
        in
        pkt
          (List.map (fun x -> x.Experiment.size_stats) r)
          (show Report.pp_cache_size_ablation r));
    make "frag" "ABL-FRAG" "fragmentation vs label switching (Sec. III.E)"
      ~default_flows:(2_000, 500) (fun p flows ->
        let r =
          Experiment.ablation_fragmentation ~flows ~seed:p.seed ~jobs:p.jobs
            ~shards:p.shards ()
        in
        pkt [ r.label_switched; r.ip_over_ip ] (show Report.pp_frag_ablation r));
    make "fail" "ABL-FAIL" "middlebox failure, failover vs re-optimization"
      ~default_flows:(120_000, 60_000) (fun p flows ->
        let r =
          Experiment.ablation_failure ~flows ~seed:p.seed ~jobs:p.jobs
            ~shards:p.shards ()
        in
        outcome ~events:r.fail_events (show Report.pp_failure_ablation r));
    make "chaos" "ABL-CHAOS" "in-run faults, detection-delay sweep"
      ~default_flows:(800, 300) ~auditable:true (fun p flows ->
        chaos_outcome
          (Experiment.ablation_chaos ~flows ~seed:p.seed ~audit:p.audit
             ~jobs:p.jobs ~shards:p.shards ()));
    make "live" "ABL-LIVE" "live reconfiguration, control-loss sweep"
      ~default_flows:(500, 300) ~auditable:true (fun p flows ->
        let r =
          Experiment.ablation_live ~flows ~seed:p.seed ~audit:p.audit
            ~jobs:p.jobs ~shards:p.shards ()
        in
        sweep ~probes:[ r.live_stale; r.live_clairvoyant ] r.live_rows
          ~stats:(fun x -> x.Experiment.live_stats)
          ~csvs:
            [
              ("abl_live.csv", Report.live_csv r);
              ("abl_live_devices.csv", Report.live_devices_csv r);
            ]
          (show Report.pp_live_ablation r));
    make "quorum" "ABL-QUORUM" "replicated controller under chaos"
      ~default_flows:(400, 200) ~auditable:true (fun p flows ->
        let r =
          Experiment.ablation_quorum ~flows ~seed:p.seed ~audit:p.audit
            ~jobs:p.jobs ~shards:p.shards ()
        in
        sweep ~probes:[ r.q_probe ] r.q_rows
          ~stats:(fun x -> x.Experiment.qr_stats)
          ~csvs:[ ("abl_quorum.csv", Report.quorum_csv r) ]
          (show Report.pp_quorum_ablation r));
    make "corrupt" "ABL-CORRUPT" "silent corruption vs anti-entropy repair"
      ~default_flows:(400, 200) ~auditable:true (fun p flows ->
        let r =
          Experiment.ablation_corrupt ~flows ~seed:p.seed ~audit:p.audit
            ~jobs:p.jobs ~shards:p.shards ()
        in
        sweep ~probes:[ r.c_probe ] r.c_rows
          ~stats:(fun x -> x.Experiment.cr_stats)
          ~csvs:[ ("abl_corrupt.csv", Report.corrupt_csv r) ]
          (show Report.pp_corrupt_ablation r));
    (* 400 flows even in fast mode: with fewer flows the measured
       traffic support keeps growing between epochs and the in-run warm
       path falls back on every epoch of the small campus topology,
       hiding the pivot savings the sweep exists to show. *)
    make "reopt" "ABL-REOPT" "warm-started re-optimization vs cold re-solve"
      ~default_flows:(400, 400) ~auditable:true (fun p flows ->
        reopt_outcome
          (Experiment.ablation_reopt ~flows ~seed:p.seed ~audit:p.audit
             ~jobs:p.jobs ~shards:p.shards ()));
    make "epoch" "ABL-EPOCH" "adaptation across measurement epochs"
      ~default_flows:(60_000, 30_000) (fun p flows ->
        let deployment = Experiment.build_deployment Experiment.Campus ~seed:p.seed in
        let r =
          Epochsim.run ~deployment ~base_flows:flows ~seed:p.seed ~jobs:p.jobs
            ~shards:p.shards ()
        in
        outcome ~events:r.ep_events (show Report.pp_epochs r.ep_rows));
    make "sketch" "ABL-SKETCH" "Count-Min sketched measurement vs exact"
      ~default_flows:(120_000, 60_000) (fun p flows ->
        let r =
          Experiment.ablation_sketch ~flows ~seed:p.seed ~jobs:p.jobs
            ~shards:p.shards ()
        in
        outcome ~events:r.sk_events (show Report.pp_sketch_ablation r.sk_points));
    make "lat" "ABL-LAT" "end-to-end latency overhead of enforcement"
      ~default_flows:(1_000, 300) (fun p flows ->
        let r =
          Experiment.ablation_latency ~flows ~seed:p.seed ~jobs:p.jobs
            ~shards:p.shards ()
        in
        pkt [ r.enforced; r.plain ] (show Report.pp_latency_ablation r));
    make "queue" "ABL-QUEUE" "middlebox queueing, HP vs LB latency"
      ~default_flows:(800, 300) (fun p flows ->
        let r =
          Experiment.ablation_queue ~flows ~seed:p.seed ~jobs:p.jobs
            ~shards:p.shards ()
        in
        pkt [ r.queue_probe; r.queue_hp; r.queue_lb ]
          (show Report.pp_queue_ablation r));
    make "lp" "ABL-LP" "Eq.(1) exact vs Eq.(2) simplified"
      ~default_flows:(5_000, 2_000) (fun p flows ->
        let r =
          Experiment.ablation_lp ~flows ~seed:p.seed ~jobs:p.jobs ~shards:p.shards ()
        in
        outcome ~events:r.lp_events (show Report.pp_lp_ablation r));
    make "config" "CONFIG" "controller dissemination volume (campus, LB)"
      ~default_flows:(30_000, 30_000) (fun p flows ->
        config Experiment.Campus ~seed:p.seed ~flows);
  ]

let find name = List.find_opt (fun e -> e.name = name) all

let failures ~audit o =
  let violations = List.fold_left ( + ) 0 o.audits in
  Option.to_list o.failure
  @
  if audit && violations > 0 then
    [ Printf.sprintf "%d invariant violation(s)" violations ]
  else []
