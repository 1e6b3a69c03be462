(* The four workloads.  Each is a closed loop with a single client:
   [setup] builds the inputs from the seed (timed as set-up), [round]
   runs one round of the timed phase, [finish] makes the checks that
   need the whole phase, and [ledger] hands the traced run its inputs. *)

open Bench

type instance = {
  round : acc -> int -> unit;
  finish : acc -> unit;
  ledger : Ledger.input;
}

type t = { name : string; setup : seed:int -> instance }

let requests acc st n =
  for _ = 1 to n do
    ignore (request acc st)
  done

(* A later round must reproduce the first one exactly: same inputs,
   same code, so any difference is a determinism bug. *)
let same_as_first first acc ~ops ~what equal x =
  match !first with
  | None -> first := Some x
  | Some x0 -> check acc (equal x0 x) ~ops (what ^ " differs from the first round")

let same_pktsim (a : Sim.Pktsim.stats) (b : Sim.Pktsim.stats) =
  a.loads = b.loads
  && a.injected_packets = b.injected_packets
  && a.delivered_packets = b.delivered_packets
  && a.events_processed = b.events_processed
  && a.router_hops = b.router_hops

(* delivered + dropped = injected; [dropped] packets fail when the run
   is fault-free. *)
let conservation acc (s : Sim.Pktsim.stats) ~fault_free =
  let lost = s.injected_packets - s.delivered_packets - s.dropped_packets in
  check acc (lost = 0) ~ops:(abs lost)
    (Printf.sprintf "packet conservation: %d injected, %d delivered, %d dropped" s.injected_packets
       s.delivered_packets s.dropped_packets);
  if fault_free then
    check acc (s.dropped_packets = 0) ~ops:s.dropped_packets
      (Printf.sprintf "%d packets dropped on a fault-free run" s.dropped_packets)

(* ---- flow-fig ----------------------------------------------------- *)

(* Figures 4/5 and Table III at the paper's largest volume: 300k flows
   on campus and on Waxman-425, steered by Flowsim under HP, Rand and
   LB.  Classification and steering do the timed work; the LP runs in
   set-up, and a few reconfiguration requests per round against the
   campus plan give the control-plane latency. *)
let flow_fig =
  let setup ~seed =
    let scenarios =
      List.mapi
        (fun i topo -> scenario topo ~seed:(derive_seed seed i) ~flows:300_000)
        Sim.Experiment.[ Campus; Waxman ]
    in
    let cells =
      List.map
        (fun (sc : scenario) ->
          let c kind = configure sc.deployment ~rules:(rules sc) kind in
          ( sc,
            [
              ("HP", c Sdm.Controller.Hot_potato);
              ("Rand", c Sdm.Controller.Random_uniform);
              ("LB", sc.lb);
            ] ))
        scenarios
    in
    let st = stream ~seed ~epoch_flows:20_000 (List.hd scenarios) in
    let firsts = List.map (fun _ -> ref None) cells in
    let round acc i =
      let flows = ref 0 and secs = ref 0.0 and events = ref 0 in
      List.iter2
        (fun ((sc : scenario), strategies) first ->
          let n = Array.length sc.workload.Sim.Workload.flows in
          let results =
            List.map
              (fun (strategy, controller) ->
                let r, s = flowsim ~strategy controller sc.workload in
                attempt acc n;
                flows := !flows + n;
                secs := !secs +. s;
                events := !events + r.Sim.Flowsim.events;
                check acc (r.Sim.Flowsim.policy_violations = 0) ~ops:r.Sim.Flowsim.violating_flows
                  (Printf.sprintf "%s/%s: %d flows violate policy" (topo_name sc) strategy
                     r.Sim.Flowsim.violating_flows);
                r)
              strategies
          in
          let enforced = List.map (fun r -> r.Sim.Flowsim.enforced_packets) results in
          check acc
            (List.for_all (( = ) (List.hd enforced)) enforced)
            ~ops:(3 * n)
            (Printf.sprintf "%s: HP, Rand and LB disagree on enforced packets (%s)" (topo_name sc)
               (String.concat ", " (List.map string_of_int enforced)));
          same_as_first first acc ~ops:(3 * n) ~what:(topo_name sc ^ " loads")
            (List.for_all2 (fun a b -> a.Sim.Flowsim.loads = b.Sim.Flowsim.loads))
            results)
        cells firsts;
      record acc ~ops:!flows ~seconds:!secs;
      if i = 0 then counteri acc "flowsim.events" !events;
      requests acc st 6
    in
    let finish acc = lp_counters acc (List.map (fun (sc : scenario) -> sc.lb) scenarios) in
    { round; finish; ledger = { Ledger.scenarios; pkt = None } }
  in
  { name = "flow-fig"; setup }

(* ---- pkt-lb -------------------------------------------------------- *)

(* The per-packet path: one static LB Pktsim.run on campus with label
   switching and flow caches — DES dispatch, classify, flow cache,
   label table, select.  The controller runs in set-up; three
   reconfiguration requests per round keep the control plane
   measured. *)
let pkt_lb =
  let setup ~seed =
    let sc =
      scenario Sim.Experiment.Campus ~seed:(derive_seed seed 0) ~flows:20_000 ~packets:200_000
    in
    let run =
      {
        config = { Sim.Pktsim.default_config with seed = derive_seed seed 2 };
        controller = sc.lb;
        workload = sc.workload;
      }
    in
    let st = stream ~seed ~epoch_flows:6_000 sc in
    let first = ref None in
    let round acc i =
      let (s, minor), secs = pktsim run in
      attempt acc s.Sim.Pktsim.injected_packets;
      conservation acc s ~fault_free:true;
      same_as_first first acc ~ops:s.injected_packets ~what:"packet-level run" same_pktsim s;
      record acc ~ops:s.injected_packets ~seconds:secs;
      if i = 0 then pktsim_counters acc s minor;
      requests acc st 3
    in
    let finish acc =
      lp_counters acc [ sc.lb ];
      match !first with
      | None -> ()
      | Some s ->
        let r, _ = flowsim ~strategy:"LB" sc.lb sc.workload in
        counteri acc "flowsim.events" r.Sim.Flowsim.events;
        let v = Sim.Flowsim.differential r s in
        check acc v.Audit.Differential.ok ~ops:acc.ops
          ("pktsim and flowsim loads differ: " ^ v.Audit.Differential.detail)
    in
    { round; finish; ledger = { Ledger.scenarios = [ sc ]; pkt = Some run } }
  in
  { name = "pkt-lb"; setup }

(* ---- ctrl-reconfig ------------------------------------------------- *)

(* A stream of reconfiguration requests against the Waxman-425
   controller: seeded crash/recover or a new measurement epoch, each
   answered by a cold Controller.reoptimize, Verify.check and
   Controlplane.price — the path a live controller walks before a push.
   The new plan then steers the epoch's flows in Flowsim, which must
   enforce every one. *)
let ctrl_reconfig =
  let setup ~seed =
    let sc = scenario Sim.Experiment.Waxman ~seed:(derive_seed seed 0) ~flows:20_000 in
    let st = stream ~seed ~epoch_flows:20_000 sc in
    let round acc i =
      match request acc st with
      | None -> ()
      | Some c ->
        let w = st.epoch_workload in
        record acc ~ops:1 ~seconds:(List.hd acc.reconfig_ms /. 1e3);
        let r, _ = flowsim ~strategy:"LB" c w in
        check acc (r.Sim.Flowsim.policy_violations = 0) ~ops:1
          (Printf.sprintf "plan leaves %d flows unenforced" r.Sim.Flowsim.violating_flows);
        if i = 0 then counteri acc "flowsim.events" r.Sim.Flowsim.events
    in
    let finish acc = lp_counters acc [ sc.lb ] in
    { round; finish; ledger = { Ledger.scenarios = [ sc ]; pkt = None } }
  in
  { name = "ctrl-reconfig"; setup }

(* ---- live-churn ---------------------------------------------------- *)

(* An audited Pktsim.run on campus with the live control plane, as in
   ABL-REOPT: warm-started re-solves, an epoch every tenth of the
   horizon, two crash/recover cycles and 2 % control loss.  The same LP
   layer as ctrl-reconfig, used warm and in-run, plus config
   dissemination over a lossy channel, version churn in the label
   tables and the audit checker.  The LP's pivot count, and so the run
   time, swings with the flow sample, so rounds cycle through
   [populations] samples of 20k packets each.  Six warm
   reconfiguration requests per round measure the warm answer
   latency. *)
let populations = 6

let live_run ~seed (sc : scenario) hp workload p =
  let base = { Sim.Pktsim.default_config with seed = derive_seed seed (20 + p) } in
  (* A fault-free run under the stale plan fixes the horizon that the
     epochs and the churn are placed within. *)
  let probe =
    span "pktsim.run.horizon_probe" (fun () ->
        Sim.Pktsim.run ~config:base ~controller:hp ~workload ())
  in
  let horizon = probe.Sim.Pktsim.sim_time in
  let epoch = horizon /. 10.0 in
  let first nf = (List.hd (Sdm.Deployment.middleboxes_of sc.deployment nf)).Mbox.Middlebox.id in
  let v1 = first Policy.Action.IDS and v2 = first Policy.Action.FW in
  let faults =
    Fault.Schedule.make ~control_loss:0.02 ~loss_seed:(derive_seed seed (30 + p))
      Fault.Schedule.
        [
          { at = 0.15 *. horizon; what = Mbox_crash v1 };
          { at = 0.35 *. horizon; what = Mbox_recover v1 };
          { at = 0.45 *. horizon; what = Mbox_crash v2 };
          { at = 0.65 *. horizon; what = Mbox_recover v2 };
        ]
  in
  let live =
    {
      Sim.Pktsim.default_live with
      epoch_interval = epoch;
      reconcile_interval = epoch /. 4.0;
      warm_start = true;
    }
  in
  { config = { base with faults = Some faults; live = Some live; audit = true }; controller = hp; workload }

let live_churn =
  let setup ~seed =
    let packets = 20_000 and flows = 5_000 in
    let sc = scenario Sim.Experiment.Campus ~seed:(derive_seed seed 0) ~flows ~packets in
    let hp = configure sc.deployment ~rules:(rules sc) Sdm.Controller.Hot_potato in
    let runs =
      Array.init populations (fun p ->
          let workload =
            if p = 0 then sc.workload
            else
              span "workload.generate" (fun () ->
                  generate ~packets sc.deployment ~seed:(derive_seed seed (10 + p)) ~flows)
          in
          live_run ~seed sc hp workload p)
    in
    let st = stream ~warm:true ~seed ~epoch_flows:500 sc in
    let firsts = Array.init populations (fun _ -> ref None) in
    let round acc i =
      let p = i mod populations in
      let (s, minor), secs = pktsim runs.(p) in
      attempt acc s.Sim.Pktsim.injected_packets;
      conservation acc s ~fault_free:false;
      (match s.Sim.Pktsim.audit_report with
       | Some r ->
         check acc (Audit.Checker.ok r) ~ops:r.Audit.Checker.violations
           (Printf.sprintf "audit: %d violations" r.Audit.Checker.violations);
         if i = 0 then counteri acc "audit.violations" r.Audit.Checker.violations
       | None -> check acc false ~ops:1 "audited run returned no audit report");
      (* Crash-time losses are the fault model at work (the packet dies
         at the dead box, fail-closed); any other escape from the chain
         is a failure. *)
      let escaped = s.policy_violations - s.fault_dropped in
      check acc (escaped = 0) ~ops:escaped
        (Printf.sprintf "%d packets escaped their chain without a crash" escaped);
      check acc (s.reoptimizations > 0) ~ops:1 "the live controller never re-optimized";
      same_as_first firsts.(p) acc ~ops:s.injected_packets ~what:"live run" same_pktsim s;
      record acc ~ops:s.injected_packets ~seconds:secs;
      if i = 0 then pktsim_counters acc s minor;
      requests acc st 6
    in
    let finish acc = lp_counters acc [ sc.lb ] in
    { round; finish; ledger = { Ledger.scenarios = [ sc ]; pkt = Some runs.(0) } }
  in
  { name = "live-churn"; setup }

let all = [ flow_fig; pkt_lb; ctrl_reconfig; live_churn ]
