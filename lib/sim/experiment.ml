type scenario = Campus | Waxman

let scenario_name = function Campus -> "campus" | Waxman -> "waxman"

let mbox_counts =
  Policy.Action.[ (WP, 4); (FW, 7); (IDS, 7); (TM, 4) ]

let build_deployment scenario ~seed =
  let topo =
    match scenario with
    | Campus -> Netgraph.Campus.generate ~seed ()
    | Waxman -> Netgraph.Waxman.generate ~seed ()
  in
  Sdm.Deployment.standard ~topo ~mbox_counts ~seed:(seed + 1)

let strategies = [ "HP"; "Rand"; "LB" ]

type strategy_run = {
  strategy : string;
  controller : Sdm.Controller.t;
  result : Flowsim.result;
  lambda : float option;
}

let configure_exn deployment ~rules kind =
  match Sdm.Controller.configure deployment ~rules kind with
  | Ok c -> c
  | Error e -> failwith ("controller configuration failed: " ^ e)

(* ---- Parallel cell fan-out --------------------------------------- *)

(* Every sweep below expresses its cells as a list of independent
   thunks evaluated through [Stdx.Domain_pool.map].  Results come back
   in input order and each thunk is a pure function of its captured
   (immutable) inputs — the deployment, workload and controllers are
   never mutated by a run — so the report is bit-identical whatever
   [jobs] is.  [jobs] defaults to {!Stdx.Domain_pool.default_jobs}. *)
let fan_out ?jobs thunks =
  Array.to_list (Stdx.Domain_pool.map ?jobs (fun f -> f ()) (Array.of_list thunks))

(* Per-cell integer seed: the [i]-th child stream of the sweep's root
   seed ({!Stdx.Rng.derive}), order-independent so a cell's workload
   is a function of (root seed, cell index) alone — not of which
   domain ran it or how many cells preceded it. *)
let cell_seed ~seed i =
  Int64.to_int (Stdx.Rng.int64 (Stdx.Rng.derive (Stdx.Rng.create seed) i))
  land max_int

let flow_events runs =
  List.fold_left (fun acc r -> acc + r.result.Flowsim.events) 0 runs

let run_strategies ~deployment ~flows ?(per_class = 5) ?(seed = 17) ?rule_seed
    ?jobs ?shards () =
  let workload = Workload.generate ~deployment ~per_class ~seed ?rule_seed ~flows () in
  let rules = workload.Workload.rules in
  let traffic = Workload.measure workload in
  let run kind name () =
    let controller = configure_exn deployment ~rules kind in
    let result = Flowsim.run ?shards ~controller ~workload () in
    let lambda =
      Option.map (fun lp -> lp.Sdm.Lp_formulation.lambda) controller.Sdm.Controller.lp
    in
    { strategy = name; controller; result; lambda }
  in
  ( workload,
    fan_out ?jobs
      [
        run Sdm.Controller.Hot_potato "HP";
        run Sdm.Controller.Random_uniform "Rand";
        run (Sdm.Controller.Load_balanced traffic) "LB";
      ] )

(* ---- Figures 4 and 5 -------------------------------------------- *)

type point = {
  flows : int;
  total_packets : int;
  max_loads : (Policy.Action.nf * (float * float * float)) list;
}

type figure = { scenario : scenario; points : point list; fig_events : int }

let default_flow_counts = List.init 10 (fun i -> 30_000 * (i + 1))

let nf_list = List.map fst mbox_counts

let point_of_runs ~flows ~total_packets runs =
  let find name = List.find (fun r -> r.strategy = name) runs in
  let hp = find "HP" and rand = find "Rand" and lb = find "LB" in
  let max_loads =
    List.map
      (fun nf ->
        ( nf,
          ( Flowsim.max_load_of_nf hp.controller hp.result nf,
            Flowsim.max_load_of_nf rand.controller rand.result nf,
            Flowsim.max_load_of_nf lb.controller lb.result nf ) ))
      nf_list
  in
  { flows; total_packets; max_loads }

let run_figure scenario ?(flow_counts = default_flow_counts) ?(per_class = 5)
    ?(seed = 17) ?jobs ?shards () =
  let deployment = build_deployment scenario ~seed in
  let cells =
    List.mapi
      (fun i flows () ->
        (* Fixed policy set across the sweep; fresh flow population per
           volume point — the paper scales traffic, not policies.  The
           inner strategies stay sequential: the sweep itself is the
           parallel axis.  [shards] parallelism nests inside the cell
           (the domain pool is per-map, so the two axes compose). *)
        let workload, runs =
          run_strategies ~deployment ~flows ~per_class ~seed:(cell_seed ~seed i)
            ~rule_seed:seed ~jobs:1 ?shards ()
        in
        ( point_of_runs ~flows ~total_packets:workload.Workload.total_packets runs,
          flow_events runs ))
      flow_counts
  in
  let results = fan_out ?jobs cells in
  {
    scenario;
    points = List.map fst results;
    fig_events = List.fold_left (fun acc (_, e) -> acc + e) 0 results;
  }

(* ---- Table III --------------------------------------------------- *)

type table3_row = {
  nf : Policy.Action.nf;
  hp_max : float;
  hp_min : float;
  rand_max : float;
  rand_min : float;
  lb_max : float;
  lb_min : float;
}

type table3 = { t3_rows : table3_row list; t3_events : int }

let run_table3 ?(scenario = Campus) ?(flows = 300_000) ?(per_class = 5)
    ?(seed = 17) ?jobs ?shards () =
  let deployment = build_deployment scenario ~seed in
  let _, runs = run_strategies ~deployment ~flows ~per_class ~seed ?jobs ?shards () in
  let find name = List.find (fun r -> r.strategy = name) runs in
  let hp = find "HP" and rand = find "Rand" and lb = find "LB" in
  let min_max run nf =
    let loads = Flowsim.loads_of_nf run.controller run.result nf in
    let s = Stdx.Stats.summarize loads in
    (s.Stdx.Stats.max, s.Stdx.Stats.min)
  in
  let rows =
    List.map
      (fun nf ->
        let hp_max, hp_min = min_max hp nf in
        let rand_max, rand_min = min_max rand nf in
        let lb_max, lb_min = min_max lb nf in
        { nf; hp_max; hp_min; rand_max; rand_min; lb_max; lb_min })
      nf_list
  in
  { t3_rows = rows; t3_events = flow_events runs }

(* ---- Ablations ---------------------------------------------------- *)

type k_point = {
  k_fw_ids : int;
  k_wp_tm : int;
  lb_max_by_nf : (Policy.Action.nf * float) list;
}

type k_sweep = { k_points : k_point list; k_events : int }

let ablation_k ?(scenario = Campus) ?(flows = 120_000) ?(seed = 17) ?jobs
    ?shards () =
  let deployment = build_deployment scenario ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  let rules = workload.Workload.rules in
  let traffic = Workload.measure workload in
  let cell (k_fw_ids, k_wp_tm) () =
    let k = function
      | Policy.Action.FW | Policy.Action.IDS -> k_fw_ids
      | Policy.Action.WP | Policy.Action.TM | Policy.Action.Custom _ -> k_wp_tm
    in
    let controller =
      match
        Sdm.Controller.configure deployment ~rules ~k
          (Sdm.Controller.Load_balanced traffic)
      with
      | Ok c -> c
      | Error e -> failwith ("ablation_k: " ^ e)
    in
    let result = Flowsim.run ?shards ~controller ~workload () in
    ( {
        k_fw_ids;
        k_wp_tm;
        lb_max_by_nf =
          List.map
            (fun nf -> (nf, Flowsim.max_load_of_nf controller result nf))
            nf_list;
      },
      result.Flowsim.events )
  in
  let results =
    fan_out ?jobs (List.map cell [ (1, 1); (2, 1); (2, 2); (4, 2); (6, 3) ])
  in
  {
    k_points = List.map fst results;
    k_events = List.fold_left (fun acc (_, e) -> acc + e) 0 results;
  }

type cache_stats = {
  packets : int;
  lookups : int;
  hits : int;
  negative_hits : int;
  lookup_fraction : float;
  cache_events : int;
}

(* Packet-level runs use a smaller flow population: they simulate every
   single packet. *)
let pkt_level_controller ?(seed = 17) ~flows () =
  let deployment = build_deployment Campus ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  let traffic = Workload.measure workload in
  let controller =
    configure_exn deployment ~rules:workload.Workload.rules
      (Sdm.Controller.Load_balanced traffic)
  in
  (controller, workload)

let ablation_cache ?(flows = 2_000) ?(seed = 17) ?(shards = 1) () =
  let controller, workload = pkt_level_controller ~seed ~flows () in
  let stats =
    Pktsim.run ~config:{ Pktsim.default_config with shards } ~controller
      ~workload ()
  in
  (* Lookup events happen per packet *arrival* at proxies and
     middleboxes; normalise by the proxy-side injections. *)
  let packets = stats.Pktsim.injected_packets in
  {
    packets;
    lookups = stats.Pktsim.multi_field_lookups;
    hits = stats.Pktsim.cache_hits;
    negative_hits = stats.Pktsim.cache_negative_hits;
    lookup_fraction =
      float_of_int stats.Pktsim.multi_field_lookups
      /. float_of_int (max 1 packets);
    cache_events = stats.Pktsim.events_processed;
  }

type cache_size_point = {
  capacity : int option;
  size_lookup_fraction : float;
  size_evictions : int;
}

type cache_size_sweep = { cs_points : cache_size_point list; cs_events : int }

let ablation_cache_size ?(flows = 1_000) ?(seed = 17) ?jobs ?(shards = 1) () =
  let controller, workload = pkt_level_controller ~seed ~flows () in
  let cell capacity () =
    let stats =
      Pktsim.run
        ~config:{ Pktsim.default_config with cache_capacity = capacity; shards }
        ~controller ~workload ()
    in
    ( {
        capacity;
        size_lookup_fraction =
          float_of_int stats.Pktsim.multi_field_lookups
          /. float_of_int (max 1 stats.Pktsim.injected_packets);
        size_evictions = stats.Pktsim.cache_evictions;
      },
      stats.Pktsim.events_processed )
  in
  let results = fan_out ?jobs (List.map cell [ Some 16; Some 64; Some 256; None ]) in
  {
    cs_points = List.map fst results;
    cs_events = List.fold_left (fun acc (_, e) -> acc + e) 0 results;
  }

type frag_stats = {
  fragments_ip_over_ip : int;
  fragments_label_switched : int;
  tunneled_legs : int;
  label_switched_legs : int;
  frag_events : int;
}

let ablation_fragmentation ?(flows = 2_000) ?(seed = 17) ?jobs ?(shards = 1) () =
  let controller, workload = pkt_level_controller ~seed ~flows () in
  let cell label_switching () =
    Pktsim.run
      ~config:{ Pktsim.default_config with label_switching; shards }
      ~controller ~workload ()
  in
  match fan_out ?jobs [ cell true; cell false ] with
  | [ with_ls; without_ls ] ->
    {
      fragments_ip_over_ip = without_ls.Pktsim.fragments_created;
      fragments_label_switched = with_ls.Pktsim.fragments_created;
      tunneled_legs = with_ls.Pktsim.tunneled_packets;
      label_switched_legs = with_ls.Pktsim.label_switched_packets;
      frag_events =
        with_ls.Pktsim.events_processed + without_ls.Pktsim.events_processed;
    }
  | _ -> assert false

type failure_report = {
  failed_mbox : int;
  failed_nf : Policy.Action.nf;
  before_max : float;
  failover_max : float;
  reoptimized_max : float;
  reoptimized_lambda : float;
  hp_failover_max : float;
  survivors : int;
  fail_events : int;
}

let ablation_failure ?(scenario = Campus) ?(flows = 120_000) ?(seed = 17) ?jobs
    ?shards () =
  let deployment = build_deployment scenario ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  let rules = workload.Workload.rules in
  let traffic = Workload.measure workload in
  let lb = configure_exn deployment ~rules (Sdm.Controller.Load_balanced traffic) in
  let before = Flowsim.run ?shards ~controller:lb ~workload () in
  (* Kill the most-loaded IDS middlebox. *)
  let nf = Policy.Action.IDS in
  let victims = Sdm.Deployment.middleboxes_of deployment nf in
  let failed =
    List.fold_left
      (fun best (m : Mbox.Middlebox.t) ->
        if before.Flowsim.loads.(m.id) > before.Flowsim.loads.(best) then m.id
        else best)
      (List.hd victims).Mbox.Middlebox.id victims
  in
  let alive id = id <> failed in
  let max_ids result =
    List.fold_left
      (fun acc (m : Mbox.Middlebox.t) ->
        if m.id = failed then acc else max acc result.Flowsim.loads.(m.id))
      0.0 victims
  in
  (* The three post-probe runs are independent of each other (only of
     the probe's victim choice), so they fan out as one batch. *)
  let cells =
    [
      (* Phase 1: local fast failover with the stale LP weights. *)
      (fun () -> (Flowsim.run ~alive ?shards ~controller:lb ~workload (), 0.0));
      (* Phase 2: the controller re-optimizes without the failed box. *)
      (fun () ->
        let reopt_controller =
          match
            Sdm.Controller.configure deployment ~rules ~failed:[ failed ]
              (Sdm.Controller.Load_balanced traffic)
          with
          | Ok c -> c
          | Error e -> failwith ("ablation_failure reoptimize: " ^ e)
        in
        let lambda =
          match reopt_controller.Sdm.Controller.lp with
          | Some lp -> lp.Sdm.Lp_formulation.lambda
          | None -> 0.0
        in
        (Flowsim.run ?shards ~controller:reopt_controller ~workload (), lambda));
      (* Baseline: hot-potato under the same failure. *)
      (fun () ->
        let hp = configure_exn deployment ~rules Sdm.Controller.Hot_potato in
        (Flowsim.run ~alive ?shards ~controller:hp ~workload (), 0.0));
    ]
  in
  match fan_out ?jobs cells with
  | [ (failover, _); (reopt, reopt_lambda); (hp_failover, _) ] ->
    {
      failed_mbox = failed;
      failed_nf = nf;
      before_max = Flowsim.max_load_of_nf lb before nf;
      failover_max = max_ids failover;
      reoptimized_max = max_ids reopt;
      reoptimized_lambda = reopt_lambda;
      hp_failover_max = max_ids hp_failover;
      survivors = List.length victims - 1;
      fail_events =
        before.Flowsim.events + failover.Flowsim.events + reopt.Flowsim.events
        + hp_failover.Flowsim.events;
    }
  | _ -> assert false

(* ---- ABL-CHAOS: in-run faults, detection delay sweep ------------- *)

type chaos_row = {
  chaos_mode : string;
  chaos_delay : float; (* infinity on the no-failover row *)
  chaos_injected : int;
  chaos_delivered : int;
  chaos_dropped : int;
  chaos_violations : int;
  chaos_retries : int;
  chaos_recovery : float;
  chaos_max_surviving : float;
  chaos_events_processed : int;
  chaos_audit : int option;
}

type chaos_report = {
  chaos_victim : int;
  chaos_victim_nf : Policy.Action.nf;
  chaos_crash_at : float;
  chaos_link : (int * int) option;
  chaos_link_fail_at : float;
  chaos_link_restore_at : float;
  chaos_control_loss : float;
  chaos_probe_events : int;
  chaos_rows : chaos_row list;
}

let audit_violations (stats : Pktsim.stats) =
  Option.map
    (fun (r : Audit.Checker.report) -> r.Audit.Checker.violations)
    stats.Pktsim.audit_report

let ablation_chaos ?(flows = 500) ?(seed = 17) ?(audit = false)
    ?(detection_delays = [ 2.0; 10.0; 40.0 ]) ?jobs ?(shards = 1) () =
  let deployment = build_deployment Campus ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  let rules = workload.Workload.rules in
  let traffic = Workload.measure workload in
  let lb = configure_exn deployment ~rules (Sdm.Controller.Load_balanced traffic) in
  let hp = configure_exn deployment ~rules Sdm.Controller.Hot_potato in
  (* A fault-free probe run fixes the victim (the busiest IDS box under
     LB) and the horizon the fault schedule is placed within. *)
  let probe =
    Pktsim.run
      ~config:{ Pktsim.default_config with shards }
      ~controller:lb ~workload ()
  in
  let nf = Policy.Action.IDS in
  let victims = Sdm.Deployment.middleboxes_of deployment nf in
  let victim =
    List.fold_left
      (fun best (m : Mbox.Middlebox.t) ->
        if probe.Pktsim.loads.(m.id) > probe.Pktsim.loads.(best) then m.id
        else best)
      (List.hd victims).Mbox.Middlebox.id victims
  in
  let crash_at = 0.25 *. probe.Pktsim.sim_time in
  let link_fail_at = 0.45 *. probe.Pktsim.sim_time in
  let link_restore_at = 0.65 *. probe.Pktsim.sim_time in
  (* A gateway-core link to fail and restore mid-run: campus cores are
     dual-homed to both gateways, so the graph stays connected and
     OSPF reroutes around the outage. *)
  let topo = deployment.Sdm.Deployment.topo in
  let link =
    match Netgraph.Topology.gateways topo with
    | [] -> None
    | gw :: _ ->
      List.find_map
        (fun { Netgraph.Graph.dst; _ } ->
          match Netgraph.Topology.role topo dst with
          | Netgraph.Topology.Core -> Some (gw, dst)
          | _ -> None)
        (Netgraph.Graph.neighbors topo.Netgraph.Topology.graph gw)
  in
  let control_loss = 0.02 in
  let schedule =
    Fault.Schedule.make ~control_loss ~loss_seed:(seed + 3)
      (Fault.Schedule.[ { at = crash_at; what = Mbox_crash victim } ]
      @
      match link with
      | None -> []
      | Some (u, v) ->
        Fault.Schedule.
          [
            { at = link_fail_at; what = Link_fail (u, v) };
            { at = link_restore_at; what = Link_restore (u, v) };
          ])
  in
  let max_surviving stats =
    List.fold_left
      (fun acc (m : Mbox.Middlebox.t) ->
        if m.id = victim then acc else Stdlib.max acc stats.Pktsim.loads.(m.id))
      0.0 victims
  in
  let row ~mode ~controller ~failover ~delay =
    let config =
      {
        Pktsim.default_config with
        faults = Some schedule;
        detection_delay = delay;
        failover;
        audit;
        shards;
      }
    in
    let stats = Pktsim.run ~config ~controller ~workload () in
    {
      chaos_mode = mode;
      chaos_delay = (if failover then delay else infinity);
      chaos_injected = stats.Pktsim.injected_packets;
      chaos_delivered = stats.Pktsim.delivered_packets;
      chaos_dropped = stats.Pktsim.dropped_packets;
      chaos_violations = stats.Pktsim.policy_violations;
      chaos_retries = stats.Pktsim.control_retries;
      chaos_recovery =
        (if stats.Pktsim.policy_violations = 0 then 0.0
         else Stdlib.max 0.0 (stats.Pktsim.last_violation_time -. crash_at));
      chaos_max_surviving = max_surviving stats;
      chaos_events_processed = stats.Pktsim.events_processed;
      chaos_audit = audit_violations stats;
    }
  in
  {
    chaos_victim = victim;
    chaos_victim_nf = nf;
    chaos_crash_at = crash_at;
    chaos_link = link;
    chaos_link_fail_at = link_fail_at;
    chaos_link_restore_at = link_restore_at;
    chaos_control_loss = control_loss;
    chaos_probe_events = probe.Pktsim.events_processed;
    chaos_rows =
      fan_out ?jobs
        (List.concat_map
           (fun d ->
             [
               (fun () ->
                 row ~mode:"HP+failover" ~controller:hp ~failover:true ~delay:d);
               (fun () ->
                 row ~mode:"LB+failover" ~controller:lb ~failover:true ~delay:d);
             ])
           detection_delays
        @ [
            (fun () ->
              row ~mode:"LB, no failover" ~controller:lb ~failover:false
                ~delay:0.0);
          ]);
  }

(* ---- ABL-LIVE: live reconfiguration, control-loss sweep ---------- *)

type live_row = {
  live_loss : float;
  live_injected : int;
  live_delivered : int;
  live_violations : int;
  live_versions : int;
  live_pushes : int;
  live_acks : int;
  live_lost : int;
  live_degraded : int;
  live_stale : int;
  live_bytes : int;
  live_max_load : float;
  live_events_processed : int;
  live_audit : int option;
}

type live_device = {
  dev_name : string;
  dev_version : int;
  dev_lag : int;
  dev_retries : int;
  dev_lost : int;
}

type live_report = {
  live_epoch : float;
  live_reconcile : float;
  live_stale_max : float;
  live_clairvoyant_max : float;
  live_probe_events : int;
  live_rows : live_row list;
  live_devices : live_device list;
}

let ablation_live ?(flows = 500) ?(seed = 17) ?(audit = false)
    ?(control_losses = [ 0.0; 0.02; 0.10 ]) ?jobs ?(shards = 1) () =
  let deployment = build_deployment Campus ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  let rules = workload.Workload.rules in
  let traffic = Workload.measure workload in
  let hp = configure_exn deployment ~rules Sdm.Controller.Hot_potato in
  let lb = configure_exn deployment ~rules (Sdm.Controller.Load_balanced traffic) in
  let max_load (stats : Pktsim.stats) =
    Array.fold_left Stdlib.max 0.0 stats.Pktsim.loads
  in
  (* A probe run under the stale hot-potato plan fixes the horizon the
     re-optimization epochs are spread across, and is itself the
     stale-weight baseline the live rows should beat.  The clairvoyant
     run — the controller knew the whole traffic matrix up front, the
     best any measurement-driven loop can converge to — is independent
     of it, so the two probes fan out together. *)
  let stale, clairvoyant =
    match
      fan_out ?jobs
        [
          (fun () ->
            Pktsim.run
              ~config:{ Pktsim.default_config with shards }
              ~controller:hp ~workload ());
          (fun () ->
            Pktsim.run
              ~config:{ Pktsim.default_config with shards }
              ~controller:lb ~workload ());
        ]
    with
    | [ s; c ] -> (s, c)
    | _ -> assert false
  in
  let epoch = stale.Pktsim.sim_time /. 5.0 in
  let reconcile = epoch /. 4.0 in
  let live =
    {
      Pktsim.default_live with
      epoch_interval = epoch;
      reconcile_interval = reconcile;
    }
  in
  let run_loss loss =
    let faults =
      (* loss = 0 still goes through the fault plumbing so the control
         channel is exercised end-to-end; only the Bernoulli parameter
         differs across the sweep. *)
      Some (Fault.Schedule.make ~control_loss:loss ~loss_seed:(seed + 3) [])
    in
    let config =
      { Pktsim.default_config with faults; live = Some live; audit; shards }
    in
    let stats = Pktsim.run ~config ~controller:hp ~workload () in
    let row =
      {
        live_loss = loss;
        live_injected = stats.Pktsim.injected_packets;
        live_delivered = stats.Pktsim.delivered_packets;
        live_violations = stats.Pktsim.policy_violations;
        live_versions = stats.Pktsim.final_config_version;
        live_pushes = stats.Pktsim.config_pushes;
        live_acks = stats.Pktsim.config_acks;
        live_lost = stats.Pktsim.config_lost;
        live_degraded = stats.Pktsim.config_degraded;
        live_stale = stats.Pktsim.stale_devices;
        live_bytes = stats.Pktsim.config_bytes;
        live_max_load = max_load stats;
        live_events_processed = stats.Pktsim.events_processed;
        live_audit = audit_violations stats;
      }
    in
    (row, stats)
  in
  let runs = fan_out ?jobs (List.map (fun loss () -> run_loss loss) control_losses) in
  (* Per-device attribution comes from the lossiest run — the one
     where retries and version lag actually have something to show. *)
  let devices =
    match
      List.fold_left
        (fun best (row, stats) ->
          match best with
          | Some (brow, _) when brow.live_loss >= row.live_loss -> best
          | _ -> Some (row, stats))
        None runs
    with
    | None -> []
    | Some (_, stats) ->
      let n_proxies = Array.length deployment.Sdm.Deployment.proxies in
      List.init
        (Array.length stats.Pktsim.entity_config_version)
        (fun i ->
          {
            dev_name =
              (if i < n_proxies then Printf.sprintf "proxy%d" i
               else Printf.sprintf "mbox%d" (i - n_proxies));
            dev_version = stats.Pktsim.entity_config_version.(i);
            dev_lag =
              stats.Pktsim.final_config_version
              - stats.Pktsim.entity_config_version.(i);
            dev_retries = stats.Pktsim.entity_control_retries.(i);
            dev_lost = stats.Pktsim.entity_control_lost.(i);
          })
  in
  {
    live_epoch = epoch;
    live_reconcile = reconcile;
    live_stale_max = max_load stale;
    live_clairvoyant_max = max_load clairvoyant;
    live_probe_events =
      stale.Pktsim.events_processed + clairvoyant.Pktsim.events_processed;
    live_rows = List.map fst runs;
    live_devices = devices;
  }

(* ---- ABL-QUORUM: replicated controller under chaos --------------- *)

type quorum_row = {
  qr_scenario : string;
  qr_loss : float;
  qr_injected : int;
  qr_delivered : int;
  qr_violations : int;
  qr_versions : int;
  qr_rounds : int;
  qr_commits : int;
  qr_aborts : int;
  qr_msgs : int;
  qr_lost : int;
  qr_elections : int;
  qr_degraded : int;
  qr_stale : int;
  qr_uncommitted : int;
  qr_replicas : int list;
  qr_events_processed : int;
  qr_audit : int option;
}

type quorum_report = {
  q_replicas : int;
  q_epoch : float;
  q_reconcile : float;
  q_crash_at : float;
  q_partition_at : float;
  q_heal_at : float;
  q_leader_router : int;
  q_probe_events : int;
  q_rows : quorum_row list;
}

let ablation_quorum ?(flows = 500) ?(seed = 17) ?(audit = false) ?jobs
    ?(shards = 1) () =
  let deployment = build_deployment Campus ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  let rules = workload.Workload.rules in
  let hp = configure_exn deployment ~rules Sdm.Controller.Hot_potato in
  (* A fault-free probe under the stale plan fixes the horizon the
     epochs and the fault schedule are placed within. *)
  let probe =
    Pktsim.run
      ~config:{ Pktsim.default_config with shards }
      ~controller:hp ~workload ()
  in
  let horizon = probe.Pktsim.sim_time in
  let epoch = horizon /. 5.0 in
  let reconcile = epoch /. 4.0 in
  let replicas = 3 in
  let live =
    {
      Pktsim.default_live with
      epoch_interval = epoch;
      reconcile_interval = reconcile;
      replicas;
    }
  in
  let leader_router = Controlplane.default_router deployment in
  let crash_at = 0.3 *. horizon in
  let partition_at = 0.35 *. horizon in
  let heal_at = 0.7 *. horizon in
  (* Split brain: cut every link of the lead replica's attachment
     router, leaving the leader alone on the minority side of the
     partition while the two standbys (and most devices) stay
     connected on the other. *)
  let leader_links =
    List.map
      (fun { Netgraph.Graph.dst; _ } -> (leader_router, dst))
      (Netgraph.Graph.neighbors
         deployment.Sdm.Deployment.topo.Netgraph.Topology.graph leader_router)
  in
  let schedule_of = function
    | "leader crash" ->
      ( 0.02,
        Fault.Schedule.make ~control_loss:0.02 ~loss_seed:(seed + 3)
          Fault.Schedule.[ { at = crash_at; what = Ctrl_crash 0 } ] )
    | "split brain" ->
      ( 0.02,
        Fault.Schedule.make ~control_loss:0.02 ~loss_seed:(seed + 3)
          (List.map
             (fun (u, v) ->
               Fault.Schedule.{ at = partition_at; what = Link_fail (u, v) })
             leader_links
          @ List.map
              (fun (u, v) ->
                Fault.Schedule.{ at = heal_at; what = Link_restore (u, v) })
              leader_links) )
    | "quorum loss" ->
      (0.45, Fault.Schedule.make ~control_loss:0.45 ~loss_seed:(seed + 3) [])
    | s -> invalid_arg ("ablation_quorum: unknown scenario " ^ s)
  in
  let row scenario =
    let loss, schedule = schedule_of scenario in
    let config =
      {
        Pktsim.default_config with
        faults = Some schedule;
        live = Some live;
        audit;
        shards;
      }
    in
    let stats = Pktsim.run ~config ~controller:hp ~workload () in
    {
      qr_scenario = scenario;
      qr_loss = loss;
      qr_injected = stats.Pktsim.injected_packets;
      qr_delivered = stats.Pktsim.delivered_packets;
      qr_violations = stats.Pktsim.policy_violations;
      qr_versions = stats.Pktsim.final_config_version;
      qr_rounds = stats.Pktsim.quorum_rounds;
      qr_commits = stats.Pktsim.quorum_commits;
      qr_aborts = stats.Pktsim.quorum_aborts;
      qr_msgs = stats.Pktsim.quorum_msgs;
      qr_lost = stats.Pktsim.quorum_lost;
      qr_elections = stats.Pktsim.leader_changes;
      qr_degraded = stats.Pktsim.config_degraded;
      qr_stale = stats.Pktsim.stale_devices;
      (* Versions that reached the staged window without a quorum
         commit — the headline safety number; always 0. *)
      qr_uncommitted =
        stats.Pktsim.reoptimizations - stats.Pktsim.quorum_commits;
      qr_replicas = Array.to_list stats.Pktsim.replica_versions;
      qr_events_processed = stats.Pktsim.events_processed;
      qr_audit = audit_violations stats;
    }
  in
  {
    q_replicas = replicas;
    q_epoch = epoch;
    q_reconcile = reconcile;
    q_crash_at = crash_at;
    q_partition_at = partition_at;
    q_heal_at = heal_at;
    q_leader_router = leader_router;
    q_probe_events = probe.Pktsim.events_processed;
    q_rows =
      fan_out ?jobs
        (List.map
           (fun s () -> row s)
           [ "leader crash"; "split brain"; "quorum loss" ]);
  }

(* ---- ABL-CORRUPT: silent corruption vs anti-entropy repair ------- *)

type corrupt_row = {
  cr_strategy : string;
  cr_rate : float;
  cr_sweep : float option;
  cr_injected : int;
  cr_delivered : int;
  cr_corruptions : int;
  cr_manifested : int;
  cr_detected : int;
  cr_repaired : int;
  cr_violations : int;
  cr_window_mean : float;
  cr_window_max : float;
  cr_sweep_rounds : int;
  cr_sweep_msgs : int;
  cr_sweep_bytes : int;
  cr_events_processed : int;
  cr_audit : int option;
}

type corrupt_report = {
  c_horizon : float;
  c_epoch : float;
  c_reconcile : float;
  c_default_sweep : float;
  c_probe_events : int;
  c_rows : corrupt_row list;
}

let ablation_corrupt ?(flows = 500) ?(seed = 17) ?(audit = false)
    ?(rates = [ 0.1; 0.4 ]) ?sweep_periods ?jobs ?(shards = 1) () =
  let deployment = build_deployment Campus ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  let rules = workload.Workload.rules in
  let traffic = Workload.measure workload in
  let n_proxies = Array.length deployment.Sdm.Deployment.proxies in
  let n_mboxes = Array.length deployment.Sdm.Deployment.middleboxes in
  let hp = configure_exn deployment ~rules Sdm.Controller.Hot_potato in
  let lb = configure_exn deployment ~rules (Sdm.Controller.Load_balanced traffic) in
  (* A fault-free probe fixes the horizon the corruption burst and the
     sweep cadence are placed within. *)
  let probe =
    Pktsim.run
      ~config:{ Pktsim.default_config with shards }
      ~controller:hp ~workload ()
  in
  let horizon = probe.Pktsim.sim_time in
  let epoch = horizon /. 5.0 in
  let reconcile = epoch /. 4.0 in
  let default_sweep = horizon /. 12.0 in
  let sweep_periods =
    match sweep_periods with
    | Some ps -> ps
    | None -> [ None; Some default_sweep ]
  in
  let row (name, controller) rate sweep =
    let faults =
      (* The corruption burst is a pure function of (seed, rate,
         horizon, deployment) — identical for every sweep period, so a
         row pair differs only in whether the sweep is armed.  A mild
         2% control loss keeps the query/re-push ladder honest. *)
      Fault.Schedule.make ~control_loss:0.02 ~loss_seed:(seed + 3)
        (Fault.Schedule.corruption_events ~seed:(seed + 5) ~rate ~horizon
           ~n_proxies ~n_mboxes)
    in
    let live =
      {
        Pktsim.default_live with
        epoch_interval = epoch;
        reconcile_interval = reconcile;
        sweep_period = sweep;
      }
    in
    let config =
      {
        Pktsim.default_config with
        faults = Some faults;
        live = Some live;
        audit;
        shards;
      }
    in
    let stats = Pktsim.run ~config ~controller ~workload () in
    {
      cr_strategy = name;
      cr_rate = rate;
      cr_sweep = sweep;
      cr_injected = stats.Pktsim.injected_packets;
      cr_delivered = stats.Pktsim.delivered_packets;
      cr_corruptions = stats.Pktsim.corruptions_injected;
      cr_manifested = stats.Pktsim.corruptions_manifested;
      cr_detected = stats.Pktsim.corruptions_detected;
      cr_repaired = stats.Pktsim.corruptions_repaired;
      cr_violations = stats.Pktsim.policy_violations;
      cr_window_mean = stats.Pktsim.repair_window_mean;
      cr_window_max = stats.Pktsim.repair_window_max;
      cr_sweep_rounds = stats.Pktsim.sweep_rounds;
      cr_sweep_msgs = stats.Pktsim.sweep_msgs;
      cr_sweep_bytes = stats.Pktsim.sweep_bytes;
      cr_events_processed = stats.Pktsim.events_processed;
      cr_audit = audit_violations stats;
    }
  in
  let cells =
    List.concat_map
      (fun strategy ->
        List.concat_map
          (fun rate -> List.map (fun sweep -> (strategy, rate, sweep)) sweep_periods)
          rates)
      [ ("HP", hp); ("LB", lb) ]
  in
  {
    c_horizon = horizon;
    c_epoch = epoch;
    c_reconcile = reconcile;
    c_default_sweep = default_sweep;
    c_probe_events = probe.Pktsim.events_processed;
    c_rows =
      fan_out ?jobs
        (List.map (fun (s, rate, sweep) () -> row s rate sweep) cells);
  }

(* ---- ABL-REOPT: warm-started re-optimization vs cold re-solve ---- *)

type reopt_step = {
  rs_failed : int list;
  rs_cold_pivots : int;
  rs_warm_pivots : int;
  rs_cold_lambda : float;
  rs_warm_lambda : float;
  rs_warm_used : bool;
  rs_fallback : bool;
  rs_agree : bool;
}

let lambda_agree ~cold ~warm =
  Float.abs (warm -. cold) <= 1e-6 *. Stdlib.max 1.0 (Float.abs cold)

(* Two boxes from different functions, so excluding either never
   empties a candidate set (7 FW and 7 IDS boxes are deployed). *)
let churn_victims deployment =
  let first nf =
    (List.hd (Sdm.Deployment.middleboxes_of deployment nf)).Mbox.Middlebox.id
  in
  (first Policy.Action.IDS, first Policy.Action.FW)

let reopt_replay scenario ?(flows = 500) ?(seed = 17) () =
  let deployment = build_deployment scenario ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  let rules = workload.Workload.rules in
  let traffic = Workload.measure workload in
  let base =
    configure_exn deployment ~rules (Sdm.Controller.Load_balanced traffic)
  in
  let v1, v2 = churn_victims deployment in
  (* The churn sequence each chain replays: no change (the warm solve
     must take zero pivots), a crash, a second concurrent crash, the
     first recovery, full recovery, and a final no-change step. *)
  let failure_sets = [ []; [ v1 ]; [ v1; v2 ]; [ v2 ]; []; [] ] in
  let reopt c ~failed ~use_warm =
    match Sdm.Controller.reoptimize c ~failed ~use_warm ~traffic () with
    | Ok c -> c
    | Error e -> failwith ("reopt_replay: " ^ e)
  in
  let lp (c : Sdm.Controller.t) = Option.get c.Sdm.Controller.lp in
  let _, _, rev =
    List.fold_left
      (fun (cold, warm, acc) failed ->
        let cold' = reopt cold ~failed ~use_warm:false in
        let warm' = reopt warm ~failed ~use_warm:true in
        let cl = lp cold' and wl = lp warm' in
        let cold_lambda = cl.Sdm.Lp_formulation.lambda in
        let warm_lambda = wl.Sdm.Lp_formulation.lambda in
        ( cold',
          warm',
          {
            rs_failed = failed;
            rs_cold_pivots = cl.Sdm.Lp_formulation.lp_pivots;
            rs_warm_pivots = wl.Sdm.Lp_formulation.lp_pivots;
            rs_cold_lambda = cold_lambda;
            rs_warm_lambda = warm_lambda;
            rs_warm_used = wl.Sdm.Lp_formulation.lp_warm_used;
            rs_fallback = wl.Sdm.Lp_formulation.lp_fallback;
            rs_agree = lambda_agree ~cold:cold_lambda ~warm:warm_lambda;
          }
          :: acc ))
      (base, base, []) failure_sets
  in
  List.rev rev

type reopt_row = {
  rp_scenario : string;
  rp_routers : int;
  rp_warm : bool;
  rp_reopts : int;
  rp_pivots : int;
  rp_phase1 : int;
  rp_warm_used : int;
  rp_fallback : int;
  rp_injected : int;
  rp_delivered : int;
  rp_violations : int;
  rp_versions : int;
  rp_degraded : int;
  rp_max_load : float;
  rp_events_processed : int;
  rp_audit : int option;
}

type reopt_scenario_info = {
  ri_name : string;
  ri_routers : int;
  ri_epoch : float;
  ri_reconcile : float;
  ri_victims : int * int;
  ri_crash1 : float;
  ri_recover1 : float;
  ri_crash2 : float;
  ri_recover2 : float;
  ri_probe_events : int;
}

type reopt_report = {
  rp_control_loss : float;
  rp_infos : reopt_scenario_info list;
  rp_rows : reopt_row list;
  rp_replays : (string * reopt_step list) list;
  rp_agree : int;
  rp_total : int;
}

let ablation_reopt ?(flows = 500) ?(seed = 17) ?(audit = false) ?jobs
    ?(shards = 1) () =
  let control_loss = 0.02 in
  let scenarios = [ Campus; Waxman ] in
  let scenario_cell scenario () =
    let deployment = build_deployment scenario ~seed in
    let workload = Workload.generate ~deployment ~seed ~flows () in
    let rules = workload.Workload.rules in
    let hp = configure_exn deployment ~rules Sdm.Controller.Hot_potato in
    (* A fault-free probe under the stale plan fixes the horizon the
       epochs and the churn schedule are placed within. *)
    let probe =
      Pktsim.run
        ~config:{ Pktsim.default_config with shards }
        ~controller:hp ~workload ()
    in
    let horizon = probe.Pktsim.sim_time in
    (* Twice the usual epoch cadence: the sweep's point is the re-solve
       sequence itself, and a denser cadence gives the warm chain
       same-layout neighbours (churn-free epochs late in the run) as
       well as layout-changing ones (around the churn window). *)
    let epoch = horizon /. 10.0 in
    let reconcile = epoch /. 4.0 in
    let v1, v2 = churn_victims deployment in
    let crash1 = 0.15 *. horizon and recover1 = 0.35 *. horizon in
    let crash2 = 0.45 *. horizon and recover2 = 0.65 *. horizon in
    let schedule =
      Fault.Schedule.make ~control_loss ~loss_seed:(seed + 3)
        Fault.Schedule.
          [
            { at = crash1; what = Mbox_crash v1 };
            { at = recover1; what = Mbox_recover v1 };
            { at = crash2; what = Mbox_crash v2 };
            { at = recover2; what = Mbox_recover v2 };
          ]
    in
    let routers =
      Netgraph.Graph.node_count
        deployment.Sdm.Deployment.topo.Netgraph.Topology.graph
    in
    let run warm =
      let live =
        {
          Pktsim.default_live with
          epoch_interval = epoch;
          reconcile_interval = reconcile;
          warm_start = warm;
        }
      in
      let config =
        {
          Pktsim.default_config with
          faults = Some schedule;
          live = Some live;
          audit;
          shards;
        }
      in
      let stats = Pktsim.run ~config ~controller:hp ~workload () in
      {
        rp_scenario = scenario_name scenario;
        rp_routers = routers;
        rp_warm = warm;
        rp_reopts = stats.Pktsim.reoptimizations;
        rp_pivots = stats.Pktsim.reopt_pivots;
        rp_phase1 = stats.Pktsim.reopt_phase1_pivots;
        rp_warm_used = stats.Pktsim.reopt_warm_used;
        rp_fallback = stats.Pktsim.reopt_fallback;
        rp_injected = stats.Pktsim.injected_packets;
        rp_delivered = stats.Pktsim.delivered_packets;
        rp_violations = stats.Pktsim.policy_violations;
        rp_versions = stats.Pktsim.final_config_version;
        rp_degraded = stats.Pktsim.config_degraded;
        rp_max_load = Array.fold_left Stdlib.max 0.0 stats.Pktsim.loads;
        rp_events_processed = stats.Pktsim.events_processed;
        rp_audit = audit_violations stats;
      }
    in
    let info =
      {
        ri_name = scenario_name scenario;
        ri_routers = routers;
        ri_epoch = epoch;
        ri_reconcile = reconcile;
        ri_victims = (v1, v2);
        ri_crash1 = crash1;
        ri_recover1 = recover1;
        ri_crash2 = crash2;
        ri_recover2 = recover2;
        ri_probe_events = probe.Pktsim.events_processed;
      }
    in
    (* The cold/warm pair stays inside the cell so both rows share one
       probe, schedule and workload — the pair differs only in the
       [warm_start] flag. *)
    (info, [ run false; run true ])
  in
  let cells = fan_out ?jobs (List.map scenario_cell scenarios) in
  let replays =
    fan_out ?jobs
      (List.map
         (fun s () -> (scenario_name s, reopt_replay s ~flows ~seed ()))
         scenarios)
  in
  let agree, total =
    List.fold_left
      (fun (a, t) (_, steps) ->
        List.fold_left
          (fun (a, t) s -> ((if s.rs_agree then a + 1 else a), t + 1))
          (a, t) steps)
      (0, 0) replays
  in
  {
    rp_control_loss = control_loss;
    rp_infos = List.map fst cells;
    rp_rows = List.concat_map snd cells;
    rp_replays = replays;
    rp_agree = agree;
    rp_total = total;
  }

type sketch_point = {
  epsilon : float;
  sketch_cells : int;
  exact_cells : int;
  exact_lambda : float;
  sketched_lambda : float;
  exact_realized_max : float;
  sketched_realized_max : float;
}

type sketch_sweep = { sk_points : sketch_point list; sk_events : int }

let ablation_sketch ?(flows = 120_000) ?(seed = 17) ?jobs ?shards () =
  let deployment = build_deployment Campus ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  let rules = workload.Workload.rules in
  let exact = Workload.measure workload in
  let n_proxies = Array.length deployment.Sdm.Deployment.proxies in
  let exact_cells =
    List.fold_left
      (fun acc rule -> acc + List.length (Sdm.Measurement.pairs_for exact ~rule))
      0
      (Sdm.Measurement.rules_with_traffic exact)
  in
  let realized traffic =
    let controller =
      configure_exn deployment ~rules (Sdm.Controller.Load_balanced traffic)
    in
    let result = Flowsim.run ?shards ~controller ~workload () in
    ( (match controller.Sdm.Controller.lp with
      | Some lp -> lp.Sdm.Lp_formulation.lambda
      | None -> 0.0),
      Array.fold_left max 0.0 result.Flowsim.loads,
      result.Flowsim.events )
  in
  let exact_lambda, exact_realized_max, exact_events = realized exact in
  let cell epsilon () =
    let sketch =
      Sdm.Sketch.of_workload_measurement ~exact ~n_proxies ~rules ~epsilon ()
    in
    let approx = Sdm.Sketch.to_measurement sketch ~rules in
    let sketched_lambda, sketched_realized_max, events = realized approx in
    ( {
        epsilon;
        sketch_cells = Sdm.Sketch.memory_cells sketch;
        exact_cells;
        exact_lambda;
        sketched_lambda;
        exact_realized_max;
        sketched_realized_max;
      },
      events )
  in
  let results = fan_out ?jobs (List.map cell [ 0.5; 0.2; 0.05; 0.01 ]) in
  {
    sk_points = List.map fst results;
    sk_events =
      exact_events + List.fold_left (fun acc (_, e) -> acc + e) 0 results;
  }

type latency_report = {
  enforced_mean : float;
  enforced_p50 : float;
  enforced_p99 : float;
  plain_mean : float;
  plain_p50 : float;
  plain_p99 : float;
  mean_overhead : float;
  events_processed : int;
  router_hops : int;
}

let ablation_latency ?(flows = 1_000) ?(seed = 17) ?jobs ?(shards = 1) () =
  let controller, workload = pkt_level_controller ~seed ~flows () in
  let config = { Pktsim.default_config with shards } in
  let enforced, plain =
    match
      fan_out ?jobs
        [
          (fun () -> Pktsim.run ~config ~controller ~workload ());
          (fun () ->
            let plain_controller =
              match
                Sdm.Controller.configure controller.Sdm.Controller.deployment
                  ~rules:[] Sdm.Controller.Hot_potato
              with
              | Ok c -> c
              | Error e -> failwith ("ablation_latency: " ^ e)
            in
            Pktsim.run ~config ~controller:plain_controller
              ~workload:{ workload with Workload.rules = [] }
              ());
        ]
    with
    | [ e; p ] -> (e, p)
    | _ -> assert false
  in
  {
    enforced_mean = enforced.Pktsim.latency_mean;
    enforced_p50 = enforced.Pktsim.latency_p50;
    enforced_p99 = enforced.Pktsim.latency_p99;
    plain_mean = plain.Pktsim.latency_mean;
    plain_p50 = plain.Pktsim.latency_p50;
    plain_p99 = plain.Pktsim.latency_p99;
    mean_overhead =
      (if plain.Pktsim.latency_mean > 0.0 then
         enforced.Pktsim.latency_mean /. plain.Pktsim.latency_mean
       else 1.0);
    events_processed =
      enforced.Pktsim.events_processed + plain.Pktsim.events_processed;
    router_hops = enforced.Pktsim.router_hops + plain.Pktsim.router_hops;
  }

type queue_report = {
  service_rate : float;
  hp_util_max : float;
  lb_util_max : float;
  hp_latency_mean : float;
  hp_latency_p99 : float;
  lb_latency_mean : float;
  lb_latency_p99 : float;
  events_processed : int;
  router_hops : int;
}

let ablation_queue ?(flows = 800) ?(seed = 17) ?jobs ?(shards = 1) () =
  let deployment = build_deployment Campus ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  let rules = workload.Workload.rules in
  let traffic = Workload.measure workload in
  let lb = configure_exn deployment ~rules (Sdm.Controller.Load_balanced traffic) in
  let hp = configure_exn deployment ~rules Sdm.Controller.Hot_potato in
  (* Calibrate: infinite-rate LB run gives the busiest box's arrival
     rate; provision every box at 2x that, i.e. ~50% utilisation under
     the balanced plan. *)
  let probe =
    Pktsim.run
      ~config:{ Pktsim.default_config with shards }
      ~controller:lb ~workload ()
  in
  let max_load = Array.fold_left max 1.0 probe.Pktsim.loads in
  let service_rate = 2.0 *. max_load /. probe.Pktsim.sim_time in
  let config = { Pktsim.default_config with service_rate; shards } in
  let run controller () = Pktsim.run ~config ~controller ~workload () in
  let hp_run, lb_run =
    match fan_out ?jobs [ run hp; run lb ] with
    | [ h; l ] -> (h, l)
    | _ -> assert false
  in
  let util stats =
    (* Busiest box's work time over the span it was receiving. *)
    Array.fold_left max 0.0 stats.Pktsim.loads
    /. service_rate /. probe.Pktsim.sim_time
  in
  {
    service_rate;
    hp_util_max = util hp_run;
    lb_util_max = util lb_run;
    hp_latency_mean = hp_run.Pktsim.latency_mean;
    hp_latency_p99 = hp_run.Pktsim.latency_p99;
    lb_latency_mean = lb_run.Pktsim.latency_mean;
    lb_latency_p99 = lb_run.Pktsim.latency_p99;
    events_processed =
      probe.Pktsim.events_processed + hp_run.Pktsim.events_processed
      + lb_run.Pktsim.events_processed;
    router_hops =
      probe.Pktsim.router_hops + hp_run.Pktsim.router_hops
      + lb_run.Pktsim.router_hops;
  }

type lp_compare = {
  exact_lambda : float;
  exact_vars : int;
  exact_constraints : int;
  exact_realized : float;       (** realised max load enforcing Eq. (1) weights *)
  exact_weight_rows : int;      (** per-(s,d) rows + fallback — config volume *)
  simplified_lambda : float;
  simplified_vars : int;
  simplified_constraints : int;
  simplified_realized : float;
  simplified_weight_rows : int;
  lp_events : int;
}

let ablation_lp ?(flows = 5_000) ?(seed = 17) ?jobs ?shards () =
  let deployment = build_deployment Campus ~seed in
  let workload = Workload.generate ~deployment ~per_class:2 ~seed ~flows () in
  let rules = workload.Workload.rules in
  let traffic = Workload.measure workload in
  (* Full enforcement comparison: configure a controller per
     formulation and realise both plans on the same workload — one
     fan-out cell per formulation, LP solve included. *)
  let cell kind () =
    let controller = configure_exn deployment ~rules kind in
    let result = Flowsim.run ?shards ~controller ~workload () in
    ( controller,
      Array.fold_left max 0.0 result.Flowsim.loads,
      result.Flowsim.events )
  in
  match
    fan_out ?jobs
      [
        cell (Sdm.Controller.Load_balanced_exact traffic);
        cell (Sdm.Controller.Load_balanced traffic);
      ]
  with
  | [ (exact_c, exact_realized, e1); (simpl_c, simplified_realized, e2) ] ->
    let exact = Option.get exact_c.Sdm.Controller.lp in
    let simplified = Option.get simpl_c.Sdm.Controller.lp in
    let weight_rows c = (Sdm.Controller.config_summary c).Sdm.Controller.weight_rows in
    {
      exact_lambda = exact.Sdm.Lp_formulation.lambda;
      exact_vars = exact.Sdm.Lp_formulation.lp_vars;
      exact_constraints = exact.Sdm.Lp_formulation.lp_constraints;
      exact_realized;
      exact_weight_rows = weight_rows exact_c;
      simplified_lambda = simplified.Sdm.Lp_formulation.lambda;
      simplified_vars = simplified.Sdm.Lp_formulation.lp_vars;
      simplified_constraints = simplified.Sdm.Lp_formulation.lp_constraints;
      simplified_realized;
      simplified_weight_rows = weight_rows simpl_c;
      lp_events = e1 + e2;
    }
  | _ -> assert false
