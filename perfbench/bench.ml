(* Shared machinery of the benchmark: run accounting, the closed loop,
   scenario set-up and the reconfiguration request stream.  Every call
   into a library layer goes through [Trace.span], so the traced run
   sees each layer boundary and the untraced run pays nothing. *)

let span = Trace.span

let seconds_since t0 = Int64.to_float (Int64.sub (Trace.now_ns ()) t0) /. 1e9

let timed f =
  let t0 = Trace.now_ns () in
  let r = f () in
  (r, seconds_since t0)

(* ---- Run accounting ---------------------------------------------- *)

(* One throughput sample: the ops one round's main calls completed and
   the host seconds those calls took. *)
type sample = { ops : int; seconds : float }

type acc = {
  mutable ops : int;
  mutable failed : int;
  mutable problems : string list;
  mutable throughput : sample list;
  mutable reconfig_ms : float list;
  mutable verify_violations : int;
  mutable counters : (string * float) list;
      (** deterministic counters, in insertion order (reversed) *)
}

let create_acc () =
  {
    ops = 0;
    failed = 0;
    problems = [];
    throughput = [];
    reconfig_ms = [];
    verify_violations = 0;
    counters = [];
  }

(* [check acc ok ~ops msg]: a failed output check fails [ops] ops (at
   least one, so a failed check can never read as a clean run). *)
let check acc ok ~ops msg =
  if not ok then begin
    acc.failed <- acc.failed + Stdlib.max 1 ops;
    if List.length acc.problems < 20 then acc.problems <- msg :: acc.problems
  end

let attempt acc n = acc.ops <- acc.ops + n

let counter acc name v =
  if not (List.mem_assoc name acc.counters) then
    acc.counters <- (name, v) :: acc.counters

let counteri acc name v = counter acc name (float_of_int v)

let record acc ~ops ~seconds = acc.throughput <- { ops; seconds } :: acc.throughput

(* ---- Closed loop ------------------------------------------------- *)

(* A single client: the next round starts when the previous one has
   finished, and rounds continue until [seconds] have elapsed (at
   least one round always runs). *)
let closed_loop ~seconds round =
  let t0 = Trace.now_ns () in
  let rec go i =
    round i;
    if seconds_since t0 < seconds then go (i + 1)
  in
  go 0

(* ---- Scenarios ---------------------------------------------------- *)

(* The evaluation's topology seed: a placement where every middlebox
   is reachable through some candidate set.  The policy list is pinned
   to it too, as in the paper's sweeps; the benchmark seed only draws
   the flow populations and the request stream. *)
let placement_seed = 17

(* The [i]-th independent integer seed of the benchmark seed. *)
let derive_seed seed i =
  Int64.to_int (Stdx.Rng.int64 (Stdx.Rng.derive (Stdx.Rng.create seed) i))
  land max_int

type scenario = {
  topo : Sim.Experiment.scenario;
  deployment : Sdm.Deployment.t;
  workload : Sim.Workload.t;
  traffic : Sdm.Measurement.t;
  lb : Sdm.Controller.t;  (** the Eq. (2) plan over [traffic] *)
}

let topo_name (s : scenario) = Sim.Experiment.scenario_name s.topo
let rules (s : scenario) = s.workload.Sim.Workload.rules

let configure deployment ~rules kind =
  match
    span "controller.configure" (fun () -> Sdm.Controller.configure deployment ~rules kind)
  with
  | Ok c -> c
  | Error e -> failwith ("controller configuration failed: " ^ e)

(* [flows] flows, or with [packets] the flows among them, in order,
   that fit a budget of that many packets (a flow that would overrun it
   is skipped).  Flow sizes are heavy-tailed, so a packet budget keeps
   the packet-level work of every seed alike. *)
let generate ?packets deployment ~seed ~flows =
  let w = Sim.Workload.generate ~deployment ~seed ~rule_seed:placement_seed ~flows () in
  match packets with
  | None -> w
  | Some budget ->
    let total = ref 0 in
    let fits =
      List.filter
        (fun (f : Sim.Workload.flow_spec) ->
          let ok = !total + f.packets <= budget in
          if ok then total := !total + f.packets;
          ok)
        (Array.to_list w.flows)
    in
    if !total < budget then
      failwith (Printf.sprintf "%d flows cannot fill a budget of %d packets" flows budget);
    { w with flows = Array.of_list fits; total_packets = !total }

(* Deployment, the routers' forwarding tables, the flow population,
   its measurement and the load-balanced controller — the set-up every
   workload pays before its timed phase. *)
let scenario ?packets topo ~seed ~flows =
  let deployment =
    span "deployment.build" (fun () ->
        Sim.Experiment.build_deployment topo ~seed:placement_seed)
  in
  let graph = deployment.Sdm.Deployment.topo.Netgraph.Topology.graph in
  let tables = span "netgraph.routing" (fun () -> Netgraph.Routing.build_all graph) in
  (* Every entity must reach every other: the enforcement walks route
     proxy -> middlebox -> ... -> destination proxy. *)
  let routers =
    Array.to_list (Array.map (fun m -> m.Mbox.Middlebox.router) deployment.Sdm.Deployment.middleboxes)
    @ Array.to_list
        (Array.map (fun p -> Sdm.Deployment.entity_router deployment (Mbox.Entity.Proxy p.Mbox.Proxy.id))
           deployment.Sdm.Deployment.proxies)
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if tables.(a).(b) < 0 then
            failwith (Printf.sprintf "routing: router %d cannot reach router %d" a b))
        routers)
    routers;
  let workload = span "workload.generate" (fun () -> generate ?packets deployment ~seed ~flows) in
  let traffic = span "workload.measure" (fun () -> Sim.Workload.measure workload) in
  let lb =
    configure deployment ~rules:workload.Sim.Workload.rules
      (Sdm.Controller.Load_balanced traffic)
  in
  { topo; deployment; workload; traffic; lb }

(* ---- Simulator calls --------------------------------------------- *)

type pkt_run = {
  config : Sim.Pktsim.config;
  controller : Sdm.Controller.t;
  workload : Sim.Workload.t;
}

(* One packet-level run: its statistics, host seconds, and the minor
   words it allocated (exact in a single domain, since [Gc.minor_words]
   counts the calling domain). *)
let pktsim r =
  let name = if r.config.Sim.Pktsim.audit then "pktsim.run.audited" else "pktsim.run" in
  timed (fun () ->
      span name (fun () ->
          let w0 = Gc.minor_words () in
          let s = Sim.Pktsim.run ~config:r.config ~controller:r.controller ~workload:r.workload () in
          (s, Gc.minor_words () -. w0)))

(* Flows walked by every Flowsim call so far, for the per-flow cost. *)
let flowsim_flows = ref 0.0

let flowsim ~strategy controller workload =
  flowsim_flows := !flowsim_flows +. float_of_int (Array.length workload.Sim.Workload.flows);
  timed (fun () ->
      span ("flowsim.run." ^ strategy) (fun () -> Sim.Flowsim.run ~controller ~workload ()))

(* The deterministic counters of one packet-level run. *)
let pktsim_counters acc (s : Sim.Pktsim.stats) minor_words =
  let c = counteri acc in
  c "dess.events_processed" s.events_processed;
  c "dess.events_scheduled" s.events_scheduled;
  c "pktsim.router_hops" s.router_hops;
  c "pktsim.injected" s.injected_packets;
  c "pktsim.delivered" s.delivered_packets;
  c "pktsim.dropped" s.dropped_packets;
  c "pktsim.policy_violations" s.policy_violations;
  c "pktsim.fault_dropped" s.fault_dropped;
  c "policy.multi_field_lookups" s.multi_field_lookups;
  c "policy.cache_hits" s.cache_hits;
  c "mbox.label_switched_packets" s.label_switched_packets;
  c "mbox.tunneled_packets" s.tunneled_packets;
  c "controlplane.pushes" s.config_pushes;
  c "controlplane.push_bytes" s.config_bytes;
  c "controlplane.lost" s.config_lost;
  c "reopt.pivots_phase1" s.reopt_phase1_pivots;
  c "reopt.pivots_phase2" s.reopt_pivots;
  c "pktsim.reoptimizations" s.reoptimizations;
  c "reopt.warm_used" s.reopt_warm_used;
  c "reopt.fallback" s.reopt_fallback;
  c "pktsim.minor_words" (int_of_float minor_words);
  counter acc "pktsim.minor_words_per_event"
    (minor_words /. float_of_int (Stdlib.max 1 s.events_processed))

(* LP size and pivot counters of a set of plans.  [lp_pivots] counts
   phase-2 pivots only; phase-1 pivots are reported beside it, not
   inside it (despite the "of those" wording of the library docs), so
   the total is their sum. *)
let lp_counters acc plans =
  let sum f =
    List.fold_left
      (fun n (c : Sdm.Controller.t) ->
        match c.Sdm.Controller.lp with Some lp -> n + f lp | None -> n)
      0 plans
  in
  let open Sdm.Lp_formulation in
  let p1 = sum (fun l -> l.lp_phase1_pivots) and p2 = sum (fun l -> l.lp_pivots) in
  counteri acc "lp.vars" (sum (fun l -> l.lp_vars));
  counteri acc "lp.rows" (sum (fun l -> l.lp_constraints));
  counteri acc "lp.pivots_phase1" p1;
  counteri acc "lp.pivots_phase2" p2;
  counteri acc "lp.pivots_total" (p1 + p2)

(* ---- Reconfiguration requests ------------------------------------ *)

(* A seeded stream of requests against one controller: a middlebox
   crash, a recovery, or a new measurement epoch (a fresh flow sample
   of [epoch_flows] flows over the same policies).  The kinds follow a
   fixed cycle, so every seed asks the same mix; the seed draws the
   victims and the epochs' flows.  The cycle keeps at most two boxes
   down, and a box is only crashed while its function has three live
   ones, so every request has a valid answer. *)
type stream = {
  rng : Stdx.Rng.t;
  deployment : Sdm.Deployment.t;
  epoch_flows : int;
  seed : int;
  warm : bool;
  mutable served : int;
  mutable epoch_workload : Sim.Workload.t;
  mutable traffic : Sdm.Measurement.t;
  mutable failed : int list;
  mutable current : Sdm.Controller.t;
}

let cycle = [| `Epoch; `Crash; `Crash; `Epoch; `Recover; `Recover |]

let stream ?(warm = false) ~seed ~epoch_flows (sc : scenario) =
  {
    rng = Stdx.Rng.create (derive_seed seed 1000);
    deployment = sc.deployment;
    epoch_flows;
    seed;
    warm;
    served = 0;
    epoch_workload = sc.workload;
    traffic = sc.traffic;
    failed = [];
    current = sc.lb;
  }

let crashable st =
  let mbs = st.deployment.Sdm.Deployment.middleboxes in
  let down (m : Mbox.Middlebox.t) = List.mem m.id st.failed in
  let alive nf =
    Array.fold_left
      (fun n (m : Mbox.Middlebox.t) ->
        if Policy.Action.equal_nf m.nf nf && not (down m) then n + 1 else n)
      0 mbs
  in
  Array.of_list
    (List.filter_map
       (fun (m : Mbox.Middlebox.t) -> if (not (down m)) && alive m.nf >= 3 then Some m.id else None)
       (Array.to_list mbs))

(* Draw the next request and apply it to the stream's inputs (outside
   the timed answer: a measurement report arrives as input). *)
let next_request st =
  let kind = cycle.(st.served mod Array.length cycle) in
  st.served <- st.served + 1;
  match kind with
  | `Epoch ->
    span "workload.epoch_sample" (fun () ->
        let w =
          generate st.deployment ~seed:(derive_seed st.seed (2000 + st.served)) ~flows:st.epoch_flows
        in
        st.epoch_workload <- w;
        st.traffic <- Sim.Workload.measure w)
  | `Crash -> st.failed <- List.sort compare (Stdx.Rng.choose st.rng (crashable st) :: st.failed)
  | `Recover ->
    let id = Stdx.Rng.choose st.rng (Array.of_list st.failed) in
    st.failed <- List.filter (( <> ) id) st.failed

(* One request, answered as a live controller does before a push:
   re-optimize, verify, price the dissemination.  Returns the new
   controller when the answer passed verification. *)
let request acc st =
  next_request st;
  let answer, s =
    timed (fun () ->
        span "reconfig.request" (fun () ->
            match
              span "controller.reoptimize" (fun () ->
                  Sdm.Controller.reoptimize st.current ~failed:st.failed ~use_warm:st.warm
                    ~traffic:st.traffic ())
            with
            | Error e -> Error ("reoptimize: " ^ e, 0)
            | Ok c -> (
              match span "verify.check" (fun () -> Sdm.Verify.check c) with
              | Error vs -> Error ("verify rejected the plan", List.length vs)
              | Ok () ->
                ignore
                  (span "controlplane.price" (fun () ->
                       Sim.Controlplane.price c ~traffic:st.traffic));
                Ok c)))
  in
  acc.reconfig_ms <- (s *. 1e3) :: acc.reconfig_ms;
  attempt acc 1;
  match answer with
  | Ok c ->
    st.current <- c;
    Some c
  | Error (e, violations) ->
    acc.verify_violations <- acc.verify_violations + violations;
    check acc false ~ops:1
      (Printf.sprintf "request with failed=[%s]: %s"
         (String.concat ";" (List.map string_of_int st.failed))
         e);
    None

(* ---- Summaries ---------------------------------------------------- *)

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least ten samples beyond it: the
   eleventh-largest sample, at percentile 100 (n - 10) / n.  With ten
   samples or fewer no such percentile exists and the maximum stands
   in (percentile 100). *)
let tail l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then (nan, 0.0)
  else if n <= 10 then (a.(n - 1), 100.0)
  else (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
