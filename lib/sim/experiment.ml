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

(* ---- Packet-level setup ------------------------------------------- *)

(* Packet-level runs use a smaller flow population: they simulate every
   single packet.  Every one of them starts from one deployment and one
   workload; [controller] configures a steering plan on demand, so an
   experiment solves only the LPs it uses. *)
type pkt_setup = {
  deployment : Sdm.Deployment.t;
  workload : Workload.t;
  seed : int;
  audit : bool;
  shards : int;
}

let pkt_setup ?(scenario = Campus) ?(audit = false) ~seed ~shards ~flows () =
  let deployment = build_deployment scenario ~seed in
  let workload = Workload.generate ~deployment ~seed ~flows () in
  { deployment; workload; seed; audit; shards }

let controller p plan =
  configure_exn p.deployment ~rules:p.workload.Workload.rules
    (match plan with
    | `HP -> Sdm.Controller.Hot_potato
    | `LB -> Sdm.Controller.Load_balanced (Workload.measure p.workload))

let pkt_run p ?(config = Pktsim.default_config) controller =
  Pktsim.run ~config:{ config with shards = p.shards } ~controller
    ~workload:p.workload ()

(* A sweep row: [faults] and [live] on top of [config], under the
   setup's audit flag. *)
let row_run p ?(config = Pktsim.default_config) ?live ~faults controller =
  pkt_run p ~config:{ config with faults = Some faults; live; audit = p.audit }
    controller

(* Control-channel loss is drawn from seed + 3 in every sweep. *)
let schedule p ~loss events =
  Fault.Schedule.make ~control_loss:loss ~loss_seed:(p.seed + 3) events

(* The live control plane with [per_horizon] epochs across the probe's
   horizon and four reconcile rounds per epoch. *)
let epochs (probe : Pktsim.stats) per_horizon =
  let epoch = probe.Pktsim.sim_time /. per_horizon in
  {
    Pktsim.default_live with
    epoch_interval = epoch;
    reconcile_interval = epoch /. 4.0;
  }

let audit_violations (stats : Pktsim.stats) =
  Option.map
    (fun (r : Audit.Checker.report) -> r.Audit.Checker.violations)
    stats.Pktsim.audit_report

let ablation_cache ?(flows = 2_000) ?(seed = 17) ?(shards = 1) () =
  let p = pkt_setup ~seed ~shards ~flows () in
  pkt_run p (controller p `LB)

type cache_size_point = { capacity : int option; size_stats : Pktsim.stats }

let ablation_cache_size ?(flows = 1_000) ?(seed = 17) ?jobs ?(shards = 1) () =
  let p = pkt_setup ~seed ~shards ~flows () in
  let lb = controller p `LB in
  let cell capacity () =
    {
      capacity;
      size_stats =
        pkt_run p ~config:{ Pktsim.default_config with cache_capacity = capacity } lb;
    }
  in
  fan_out ?jobs (List.map cell [ Some 16; Some 64; Some 256; None ])

type frag_stats = { label_switched : Pktsim.stats; ip_over_ip : Pktsim.stats }

let ablation_fragmentation ?(flows = 2_000) ?(seed = 17) ?jobs ?(shards = 1) () =
  let p = pkt_setup ~seed ~shards ~flows () in
  let lb = controller p `LB in
  let cell label_switching () =
    pkt_run p ~config:{ Pktsim.default_config with label_switching } lb
  in
  match fan_out ?jobs [ cell true; cell false ] with
  | [ label_switched; ip_over_ip ] -> { label_switched; ip_over_ip }
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
  chaos_max_surviving : float;
  chaos_stats : Pktsim.stats;
}

type chaos_report = {
  chaos_victim : int;
  chaos_victim_nf : Policy.Action.nf;
  chaos_crash_at : float;
  chaos_link : (int * int) option;
  chaos_link_fail_at : float;
  chaos_link_restore_at : float;
  chaos_control_loss : float;
  chaos_probe : Pktsim.stats;
  chaos_rows : chaos_row list;
}

let ablation_chaos ?(flows = 500) ?(seed = 17) ?(audit = false)
    ?(detection_delays = [ 2.0; 10.0; 40.0 ]) ?jobs ?(shards = 1) () =
  let p = pkt_setup ~seed ~audit ~shards ~flows () in
  let lb = controller p `LB and hp = controller p `HP in
  (* A fault-free probe run fixes the victim (the busiest IDS box under
     LB) and the horizon the fault schedule is placed within. *)
  let probe = pkt_run p lb in
  let nf = Policy.Action.IDS in
  let victims = Sdm.Deployment.middleboxes_of p.deployment nf in
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
  let topo = p.deployment.Sdm.Deployment.topo in
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
  let faults =
    schedule p ~loss:control_loss
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
  let row ~mode ~controller ~failover ~delay () =
    let stats =
      row_run p ~faults controller
        ~config:{ Pktsim.default_config with detection_delay = delay; failover }
    in
    {
      chaos_mode = mode;
      chaos_delay = (if failover then delay else infinity);
      chaos_max_surviving = max_surviving stats;
      chaos_stats = stats;
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
    chaos_probe = probe;
    chaos_rows =
      fan_out ?jobs
        (List.concat_map
           (fun d ->
             [
               row ~mode:"HP+failover" ~controller:hp ~failover:true ~delay:d;
               row ~mode:"LB+failover" ~controller:lb ~failover:true ~delay:d;
             ])
           detection_delays
        @ [ row ~mode:"LB, no failover" ~controller:lb ~failover:false ~delay:0.0 ]);
  }

(* ---- ABL-LIVE: live reconfiguration, control-loss sweep ---------- *)

type live_row = { live_loss : float; live_stats : Pktsim.stats }

type live_report = {
  live_epoch : float;
  live_reconcile : float;
  live_stale : Pktsim.stats;
  live_clairvoyant : Pktsim.stats;
  live_devices : string list;
  live_rows : live_row list;
}

let ablation_live ?(flows = 500) ?(seed = 17) ?(audit = false)
    ?(control_losses = [ 0.0; 0.02; 0.10 ]) ?jobs ?(shards = 1) () =
  let p = pkt_setup ~seed ~audit ~shards ~flows () in
  let hp = controller p `HP and lb = controller p `LB in
  (* A probe run under the stale hot-potato plan fixes the horizon the
     re-optimization epochs are spread across, and is itself the
     stale-weight baseline the live rows should beat.  The clairvoyant
     run — the controller knew the whole traffic matrix up front, the
     best any measurement-driven loop can converge to — is independent
     of it, so the two probes fan out together. *)
  let stale, clairvoyant =
    match fan_out ?jobs [ (fun () -> pkt_run p hp); (fun () -> pkt_run p lb) ] with
    | [ s; c ] -> (s, c)
    | _ -> assert false
  in
  let live = epochs stale 5.0 in
  (* loss = 0 still goes through the fault plumbing so the control
     channel is exercised end-to-end; only the Bernoulli parameter
     differs across the sweep. *)
  let row loss () =
    { live_loss = loss; live_stats = row_run p ~faults:(schedule p ~loss []) ~live hp }
  in
  let names prefix n = List.init n (Printf.sprintf "%s%d" prefix) in
  {
    live_epoch = live.Pktsim.epoch_interval;
    live_reconcile = live.Pktsim.reconcile_interval;
    live_stale = stale;
    live_clairvoyant = clairvoyant;
    live_devices =
      names "proxy" (Array.length p.deployment.Sdm.Deployment.proxies)
      @ names "mbox" (Array.length p.deployment.Sdm.Deployment.middleboxes);
    live_rows = fan_out ?jobs (List.map row control_losses);
  }

(* ---- ABL-QUORUM: replicated controller under chaos --------------- *)

type quorum_row = { qr_scenario : string; qr_loss : float; qr_stats : Pktsim.stats }

type quorum_report = {
  q_replicas : int;
  q_epoch : float;
  q_reconcile : float;
  q_crash_at : float;
  q_partition_at : float;
  q_heal_at : float;
  q_leader_router : int;
  q_probe : Pktsim.stats;
  q_rows : quorum_row list;
}

let ablation_quorum ?(flows = 500) ?(seed = 17) ?(audit = false) ?jobs
    ?(shards = 1) () =
  let p = pkt_setup ~seed ~audit ~shards ~flows () in
  let hp = controller p `HP in
  (* A fault-free probe under the stale plan fixes the horizon the
     epochs and the fault schedule are placed within. *)
  let probe = pkt_run p hp in
  let horizon = probe.Pktsim.sim_time in
  let replicas = 3 in
  let live = { (epochs probe 5.0) with Pktsim.replicas } in
  let leader_router = Controlplane.default_router p.deployment in
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
         p.deployment.Sdm.Deployment.topo.Netgraph.Topology.graph leader_router)
  in
  let scenarios =
    Fault.Schedule.
      [
        ("leader crash", 0.02, [ { at = crash_at; what = Ctrl_crash 0 } ]);
        ( "split brain",
          0.02,
          List.map
            (fun (u, v) -> { at = partition_at; what = Link_fail (u, v) })
            leader_links
          @ List.map
              (fun (u, v) -> { at = heal_at; what = Link_restore (u, v) })
              leader_links );
        ("quorum loss", 0.45, []);
      ]
  in
  let row (scenario, loss, events) () =
    {
      qr_scenario = scenario;
      qr_loss = loss;
      qr_stats = row_run p ~faults:(schedule p ~loss events) ~live hp;
    }
  in
  {
    q_replicas = replicas;
    q_epoch = live.Pktsim.epoch_interval;
    q_reconcile = live.Pktsim.reconcile_interval;
    q_crash_at = crash_at;
    q_partition_at = partition_at;
    q_heal_at = heal_at;
    q_leader_router = leader_router;
    q_probe = probe;
    q_rows = fan_out ?jobs (List.map row scenarios);
  }

(* ---- ABL-CORRUPT: silent corruption vs anti-entropy repair ------- *)

type corrupt_row = {
  cr_strategy : string;
  cr_rate : float;
  cr_sweep : float option;
  cr_stats : Pktsim.stats;
}

type corrupt_report = {
  c_epoch : float;
  c_reconcile : float;
  c_default_sweep : float;
  c_probe : Pktsim.stats;
  c_rows : corrupt_row list;
}

let ablation_corrupt ?(flows = 500) ?(seed = 17) ?(audit = false)
    ?(rates = [ 0.1; 0.4 ]) ?sweep_periods ?jobs ?(shards = 1) () =
  let p = pkt_setup ~seed ~audit ~shards ~flows () in
  let n_proxies = Array.length p.deployment.Sdm.Deployment.proxies in
  let n_mboxes = Array.length p.deployment.Sdm.Deployment.middleboxes in
  let hp = controller p `HP and lb = controller p `LB in
  (* A fault-free probe fixes the horizon the corruption burst and the
     sweep cadence are placed within. *)
  let probe = pkt_run p hp in
  let horizon = probe.Pktsim.sim_time in
  let live = epochs probe 5.0 in
  let default_sweep = horizon /. 12.0 in
  let sweep_periods =
    match sweep_periods with
    | Some ps -> ps
    | None -> [ None; Some default_sweep ]
  in
  let row (name, controller) rate sweep () =
    (* The corruption burst is a pure function of (seed, rate, horizon,
       deployment) — identical for every sweep period, so a row pair
       differs only in whether the sweep is armed.  A mild 2% control
       loss keeps the query/re-push ladder honest. *)
    let faults =
      schedule p ~loss:0.02
        (Fault.Schedule.corruption_events ~seed:(seed + 5) ~rate ~horizon
           ~n_proxies ~n_mboxes)
    in
    {
      cr_strategy = name;
      cr_rate = rate;
      cr_sweep = sweep;
      cr_stats =
        row_run p ~faults ~live:{ live with Pktsim.sweep_period = sweep } controller;
    }
  in
  {
    c_epoch = live.Pktsim.epoch_interval;
    c_reconcile = live.Pktsim.reconcile_interval;
    c_default_sweep = default_sweep;
    c_probe = probe;
    c_rows =
      fan_out ?jobs
        (List.concat_map
           (fun strategy ->
             List.concat_map
               (fun rate -> List.map (row strategy rate) sweep_periods)
               rates)
           [ ("HP", hp); ("LB", lb) ]);
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
  rp_stats : Pktsim.stats;
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
  ri_probe : Pktsim.stats;
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
    let p = pkt_setup ~scenario ~seed ~audit ~shards ~flows () in
    let hp = controller p `HP in
    (* A fault-free probe under the stale plan fixes the horizon the
       epochs and the churn schedule are placed within. *)
    let probe = pkt_run p hp in
    let horizon = probe.Pktsim.sim_time in
    (* Twice the usual epoch cadence: the sweep's point is the re-solve
       sequence itself, and a denser cadence gives the warm chain
       same-layout neighbours (churn-free epochs late in the run) as
       well as layout-changing ones (around the churn window). *)
    let live = epochs probe 10.0 in
    let v1, v2 = churn_victims p.deployment in
    let crash1 = 0.15 *. horizon and recover1 = 0.35 *. horizon in
    let crash2 = 0.45 *. horizon and recover2 = 0.65 *. horizon in
    let faults =
      schedule p ~loss:control_loss
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
        p.deployment.Sdm.Deployment.topo.Netgraph.Topology.graph
    in
    let run warm =
      {
        rp_scenario = scenario_name scenario;
        rp_routers = routers;
        rp_warm = warm;
        rp_stats =
          row_run p ~faults ~live:{ live with Pktsim.warm_start = warm } hp;
      }
    in
    let info =
      {
        ri_name = scenario_name scenario;
        ri_routers = routers;
        ri_epoch = live.Pktsim.epoch_interval;
        ri_reconcile = live.Pktsim.reconcile_interval;
        ri_victims = (v1, v2);
        ri_crash1 = crash1;
        ri_recover1 = recover1;
        ri_crash2 = crash2;
        ri_recover2 = recover2;
        ri_probe = probe;
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

type latency_report = { enforced : Pktsim.stats; plain : Pktsim.stats }

let ablation_latency ?(flows = 1_000) ?(seed = 17) ?jobs ?(shards = 1) () =
  let p = pkt_setup ~seed ~shards ~flows () in
  let lb = controller p `LB in
  match
    fan_out ?jobs
      [
        (fun () -> pkt_run p lb);
        (fun () ->
          (* Same traffic, empty policy table. *)
          let plain = { p with workload = { p.workload with Workload.rules = [] } } in
          pkt_run plain (controller plain `HP));
      ]
  with
  | [ enforced; plain ] -> { enforced; plain }
  | _ -> assert false

type queue_report = {
  service_rate : float;
  hp_util_max : float;
  lb_util_max : float;
  queue_probe : Pktsim.stats;
  queue_hp : Pktsim.stats;
  queue_lb : Pktsim.stats;
}

let ablation_queue ?(flows = 800) ?(seed = 17) ?jobs ?(shards = 1) () =
  let p = pkt_setup ~seed ~shards ~flows () in
  let lb = controller p `LB and hp = controller p `HP in
  (* Calibrate: infinite-rate LB run gives the busiest box's arrival
     rate; provision every box at 2x that, i.e. ~50% utilisation under
     the balanced plan. *)
  let probe = pkt_run p lb in
  let max_load = Array.fold_left max 1.0 probe.Pktsim.loads in
  let service_rate = 2.0 *. max_load /. probe.Pktsim.sim_time in
  let run controller () =
    pkt_run p ~config:{ Pktsim.default_config with service_rate } controller
  in
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
    queue_probe = probe;
    queue_hp = hp_run;
    queue_lb = lb_run;
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
