(* The traced run's per-layer ledger.  After the timed phase, [run]
   calls every layer the workload's own loop did not reach, on the
   workload's own inputs, so each traced run covers every layer; then
   [metrics] folds the recorded spans and counters into the per-layer
   metrics.  Spans are recorded here, in the benchmark, around each
   call into a layer; a layer's self time excludes its child spans. *)

open Bench

type input = {
  scenarios : scenario list;  (** the first one is the primary *)
  pkt : pkt_run option;       (** the workload's own packet-level run *)
}

let prefix (w : Sim.Workload.t) n =
  let flows = Array.sub w.flows 0 (Stdlib.min n (Array.length w.flows)) in
  {
    w with
    Sim.Workload.flows;
    total_packets = Array.fold_left (fun t f -> t + f.Sim.Workload.packets) 0 flows;
  }

(* Candidate sets and the Eq. (2) LP, called directly on the inputs the
   set-up's [Controller.configure] used: the same LP, so its optimum
   must equal the configured plan's. *)
let lp_probe acc (sc : scenario) =
  let cand =
    span "candidate.compute" (fun () ->
        Sdm.Candidate.compute sc.deployment ~k:Sdm.Controller.default_k)
  in
  match
    span "lp.solve" (fun () ->
        Sdm.Lp_formulation.solve_simplified cand ~rules:(rules sc) ~traffic:sc.traffic ())
  with
  | Error e -> check acc false ~ops:1 ("direct LP solve: " ^ e)
  | Ok r ->
    let planned = (Option.get sc.lb.Sdm.Controller.lp).Sdm.Lp_formulation.lambda in
    check acc (r.Sdm.Lp_formulation.lambda = planned) ~ops:1
      (Printf.sprintf "direct LP optimum %h differs from the configured plan's %h"
         r.Sdm.Lp_formulation.lambda planned)

(* The churn chain of ABL-REOPT replayed at the controller, cold and
   warm: no change, a crash, a second crash, the first recovery, full
   recovery, no change.  Warm optima must match cold ones. *)
let replay_probe acc (sc : scenario) =
  let first nf =
    (List.hd (Sdm.Deployment.middleboxes_of sc.deployment nf)).Mbox.Middlebox.id
  in
  let v1 = first Policy.Action.IDS and v2 = first Policy.Action.FW in
  let reopt name c ~failed ~use_warm =
    match
      span name (fun () ->
          Sdm.Controller.reoptimize c ~failed ~use_warm ~traffic:sc.traffic ())
    with
    | Ok c -> Some c
    | Error e ->
      check acc false ~ops:1 (name ^ ": " ^ e);
      None
  in
  let lp c = Option.get c.Sdm.Controller.lp in
  let rec go cold warm used fallback = function
    | [] -> (used, fallback)
    | failed :: rest -> (
      match
        ( reopt "lp.cold_solve" cold ~failed ~use_warm:false,
          reopt "lp.warm_solve" warm ~failed ~use_warm:true )
      with
      | Some cold', Some warm' ->
        let cl = (lp cold').Sdm.Lp_formulation.lambda and wl = (lp warm').lambda in
        check acc
          (Float.abs (wl -. cl) <= 1e-6 *. Float.max 1.0 (Float.abs cl))
          ~ops:1
          (Printf.sprintf "warm optimum %h differs from cold %h" wl cl);
        let w = lp warm' in
        go cold' warm'
          (if w.lp_warm_used then used + 1 else used)
          (if w.lp_fallback then fallback + 1 else fallback)
          rest
      | _ -> (used, fallback))
  in
  let used, fallback = go sc.lb sc.lb 0 0 [ []; [ v1 ]; [ v1; v2 ]; [ v2 ]; []; [] ] in
  counteri acc "replay.warm_used" used;
  counteri acc "replay.fallback" fallback

(* Per-packet work replayed over the workload's own flow stream, one
   layer call per flow: classification, flow-cache lookup and the
   first steering decision.  Small streams are replayed in several
   passes (about 400k calls in all), so each per-call time averages
   over enough work. *)
let per_packet_probe acc (sc : scenario) =
  let flows = sc.workload.Sim.Workload.flows in
  let n = Array.length flows in
  let passes = Stdlib.max 1 (400_000 / Stdlib.max 1 n) in
  let rule_of = Array.of_list (rules sc) in
  let trie = Policy.Trie.build (rules sc) in
  let matched = Array.make n (-1) in
  span "policy.classify" (fun () ->
      for _ = 1 to passes do
        for i = 0 to n - 1 do
          match Policy.Trie.first_match trie flows.(i).Sim.Workload.flow with
          | Some r -> matched.(i) <- r.Policy.Rule.id
          | None -> matched.(i) <- -1
        done
      done);
  let misclassified = ref 0 in
  Array.iteri
    (fun i fs ->
      if matched.(i) <> Option.value ~default:(-1) fs.Sim.Workload.rule_id then incr misclassified)
    flows;
  check acc (!misclassified = 0) ~ops:!misclassified
    (Printf.sprintf "%d flows classified differently from the generator" !misclassified);
  let cache = Policy.Flow_cache.create ~expected:n () in
  Array.iter
    (fun fs ->
      let f = fs.Sim.Workload.flow in
      match fs.Sim.Workload.rule_id with
      | Some id ->
        ignore
          (Policy.Flow_cache.insert cache ~now:0.0 f ~rule_id:id
             ~actions:rule_of.(id).Policy.Rule.actions ())
      | None -> ignore (Policy.Flow_cache.insert_negative cache ~now:0.0 f))
    flows;
  let hits = ref 0 in
  span "policy.flow_cache" (fun () ->
      for _ = 1 to passes do
        for i = 0 to n - 1 do
          match Policy.Flow_cache.lookup cache ~now:0.0 flows.(i).Sim.Workload.flow with
          | Some _ -> incr hits
          | None -> ()
        done
      done);
  check acc (!hits = passes * n) ~ops:((passes * n) - !hits) "flow-cache lookups missed";
  (* Steering: the first function of each enforced flow, decided at its
     source proxy. *)
  let steered =
    Array.of_list
      (List.filter_map
         (fun fs ->
           match fs.Sim.Workload.rule_id with
           | Some id -> (
             let rule = rule_of.(id) in
             match Policy.Action.first rule.Policy.Rule.actions with
             | Some nf -> Some (Mbox.Entity.Proxy fs.Sim.Workload.src_proxy, rule, nf, fs.flow)
             | None -> None)
           | None -> None)
         (Array.to_list flows))
  in
  let m = Array.length steered in
  let picked = Array.make m (-1) in
  span "selector.next_hop" (fun () ->
      for _ = 1 to passes do
        for i = 0 to m - 1 do
          let entity, rule, nf, flow = steered.(i) in
          picked.(i) <- (Sdm.Controller.next_hop sc.lb entity ~rule ~nf flow).Mbox.Middlebox.id
        done
      done);
  let wrong = ref 0 in
  Array.iteri
    (fun i (entity, _, nf, _) ->
      let candidates = Sdm.Candidate.get sc.lb.Sdm.Controller.candidates entity nf in
      if not (List.exists (fun mb -> mb.Mbox.Middlebox.id = picked.(i)) candidates) then incr wrong)
    steered;
  check acc (!wrong = 0) ~ops:!wrong
    (Printf.sprintf "%d steering decisions left the candidate set" !wrong);
  counteri acc "policy.replay_flows" n;
  counteri acc "policy.replay_passes" passes;
  counteri acc "selector.replay_decisions" m

let run input acc =
  let primary = List.hd input.scenarios in
  List.iter (lp_probe acc) input.scenarios;
  replay_probe acc primary;
  List.iter
    (fun (strategy, kind) ->
      if not (Trace.seen ("flowsim.run." ^ strategy)) then begin
        let c =
          match kind with
          | Some kind -> configure primary.deployment ~rules:(rules primary) kind
          | None -> primary.lb
        in
        let r, _ = flowsim ~strategy c primary.workload in
        counteri acc "flowsim.events" r.Sim.Flowsim.events
      end)
    Sdm.Controller.[ ("HP", Some Hot_potato); ("Rand", Some Random_uniform); ("LB", None) ];
  per_packet_probe acc primary;
  (* Packet level: the workload's own run, or a static LB run over the
     first 2000 flows, unaudited and audited in the order plain,
     audited, audited, plain, so a linear drift in machine speed cancels
     out of the audit overhead. *)
  let pkt =
    match input.pkt with
    | Some r -> r
    | None ->
      { config = Sim.Pktsim.default_config; controller = primary.lb; workload = prefix primary.workload 2_000 }
  in
  let twin audit = pktsim { pkt with config = { pkt.config with audit } } in
  let (plain, minor), p1 = twin false in
  pktsim_counters acc plain minor;
  let (audited, _), a1 = twin true in
  let _, a2 = twin true in
  let _, p2 = twin false in
  (match audited.Sim.Pktsim.audit_report with
   | Some r ->
     check acc (Audit.Checker.ok r) ~ops:r.Audit.Checker.violations "audited ledger run";
     counteri acc "audit.violations" r.Audit.Checker.violations
   | None -> check acc false ~ops:1 "audited ledger run returned no report");
  (match span "verify.check" (fun () -> Sdm.Verify.check primary.lb) with
   | Ok () -> ()
   | Error vs ->
     acc.verify_violations <- acc.verify_violations + List.length vs;
     check acc false ~ops:1 "set-up plan fails verification");
  let price =
    span "controlplane.price" (fun () -> Sim.Controlplane.price primary.lb ~traffic:primary.traffic)
  in
  counteri acc "controlplane.config_bytes" price.Sim.Controlplane.config_bytes;
  counteri acc "candidate.entries"
    (List.fold_left
       (fun n sc -> n + (Sdm.Controller.config_summary sc.lb).Sdm.Controller.candidate_entries)
       0 input.scenarios);
  (a1 +. a2 -. p1 -. p2) /. 2.0

(* ---- Per-layer metrics ---------------------------------------------- *)

let per_call name scale =
  let l = Trace.layer name in
  if l.calls = 0 then 0.0 else l.self_ns /. float_of_int l.calls /. scale

let self_ns name = (Trace.layer name).self_ns

let metrics acc ~audit_overhead_s =
  let count name = Option.value ~default:0.0 (List.assoc_opt name acc.counters) in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let replayed = count "policy.replay_flows" *. count "policy.replay_passes" in
  let flowsim_ns = List.fold_left (fun t s -> t +. self_ns ("flowsim.run." ^ s)) 0.0 [ "HP"; "Rand"; "LB" ] in
  let events = count "dess.events_processed" in
  (* Warm-start outcomes: the live plane's own re-solves when the
     workload has one, else the replayed churn chain. *)
  let warm = if count "pktsim.reoptimizations" > 0.0 then "reopt" else "replay" in
  let lookups = count "policy.multi_field_lookups" and hits = count "policy.cache_hits" in
  let ls = count "mbox.label_switched_packets" and tun = count "mbox.tunneled_packets" in
  let s = ("s", 1e9) and ms = ("ms", 1e6) in
  let time name (unit, scale) span_name = (name, unit, per_call span_name scale) in
  let c name unit = (name, unit, count name) in
  [
    time "workload.generate_s" s "workload.generate";
    time "workload.measure_s" s "workload.measure";
    time "netgraph.routing_ms" ms "netgraph.routing";
    time "candidate.compute_ms" ms "candidate.compute";
    c "candidate.entries" "count";
    time "lp.solve_ms" ms "lp.solve";
    c "lp.vars" "count";
    c "lp.rows" "count";
    c "lp.pivots_phase1" "count";
    c "lp.pivots_phase2" "count";
    c "lp.pivots_total" "count";
    ("lp.us_per_pivot", "us", ratio (self_ns "lp.solve") (count "lp.pivots_total") /. 1e3);
    time "lp.cold_solve_ms" ms "lp.cold_solve";
    time "lp.warm_solve_ms" ms "lp.warm_solve";
    ("lp.warm_used", "count", count (warm ^ ".warm_used"));
    ("lp.fallback", "count", count (warm ^ ".fallback"));
    time "controller.configure_ms" ms "controller.configure";
    time "controller.reoptimize_ms" ms "controller.reoptimize";
    time "verify.check_ms" ms "verify.check";
    c "verify.violations" "count";
    time "controlplane.price_ms" ms "controlplane.price";
    c "controlplane.config_bytes" "B";
    c "controlplane.pushes" "count";
    c "controlplane.push_bytes" "B";
    c "controlplane.lost" "count";
    time "flowsim.run_s.HP" s "flowsim.run.HP";
    time "flowsim.run_s.Rand" s "flowsim.run.Rand";
    time "flowsim.run_s.LB" s "flowsim.run.LB";
    c "flowsim.events" "count";
    ("flowsim.ns_per_flow", "ns", ratio flowsim_ns !flowsim_flows);
    ("selector.next_hop_ns", "ns",
     ratio (self_ns "selector.next_hop") (count "selector.replay_decisions" *. count "policy.replay_passes"));
    time "pktsim.run_s" s "pktsim.run";
    c "dess.events_processed" "count";
    c "dess.events_scheduled" "count";
    ("dess.ns_per_event", "ns", ratio (per_call "pktsim.run" 1.0) events);
    c "pktsim.router_hops" "count";
    c "pktsim.minor_words_per_event" "words";
    c "policy.multi_field_lookups" "count";
    c "policy.cache_hits" "count";
    ("policy.cache_hit_share", "ratio", ratio hits (hits +. lookups));
    ("policy.classify_ns", "ns", ratio (self_ns "policy.classify") replayed);
    ("policy.flow_cache_ns", "ns", ratio (self_ns "policy.flow_cache") replayed);
    ("mbox.label_switched_share", "ratio", ratio ls (ls +. tun));
    c "mbox.tunneled_packets" "count";
    ("audit.overhead_s", "s", audit_overhead_s);
    c "audit.violations" "count";
  ]
