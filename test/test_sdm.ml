(* Tests for the sdm core: deployment, candidate sets, measurements,
   selector, LP formulations and the controller. *)

let campus_deployment ?(seed = 42) () =
  Sim.Experiment.build_deployment Sim.Experiment.Campus ~seed

let small_deployment () =
  (* A hand-made 6-router line topology with controllable placement:
     routers 0-5, edges at 0 and 5, cores in between.
     FW at router 1 and 4; IDS at router 2 and 3. *)
  let g = Netgraph.Graph.create 6 in
  for i = 0 to 4 do
    Netgraph.Graph.add_edge g i (i + 1) 1.0
  done;
  let roles =
    [| Netgraph.Topology.Edge; Core; Core; Core; Core; Netgraph.Topology.Edge |]
  in
  let topo = Netgraph.Topology.make ~name:"line" ~graph:g ~roles in
  let mb id nf router =
    Mbox.Middlebox.make ~id ~nf ~router ~addr:(Sdm.Deployment.mbox_addr id) ()
  in
  let proxy id router =
    Mbox.Proxy.make ~id ~subnet:(Sdm.Deployment.proxy_subnet id) ~router
      ~addr:(Sdm.Deployment.proxy_addr id) ()
  in
  Sdm.Deployment.make ~topo
    ~middleboxes:
      [| mb 0 Policy.Action.FW 1; mb 1 Policy.Action.FW 4;
         mb 2 Policy.Action.IDS 2; mb 3 Policy.Action.IDS 3 |]
    ~proxies:[| proxy 0 0; proxy 1 5 |]

(* --- Deployment ------------------------------------------------------ *)

let test_deployment_distances () =
  let dep = small_deployment () in
  Alcotest.(check (float 1e-9)) "proxy0 to fw0" 1.0
    (Sdm.Deployment.distance dep (Mbox.Entity.Proxy 0) (Mbox.Entity.Middlebox 0));
  Alcotest.(check (float 1e-9)) "proxy0 to fw1" 4.0
    (Sdm.Deployment.distance dep (Mbox.Entity.Proxy 0) (Mbox.Entity.Middlebox 1));
  Alcotest.(check (float 1e-9)) "fw0 to ids1" 2.0
    (Sdm.Deployment.distance dep (Mbox.Entity.Middlebox 0) (Mbox.Entity.Middlebox 3))

let test_deployment_lookup () =
  let dep = small_deployment () in
  Alcotest.(check int) "two FW" 2
    (List.length (Sdm.Deployment.middleboxes_of dep Policy.Action.FW));
  Alcotest.(check int) "no WP" 0
    (List.length (Sdm.Deployment.middleboxes_of dep Policy.Action.WP));
  Alcotest.(check (list string)) "functions" [ "FW"; "IDS" ]
    (List.map Policy.Action.nf_to_string (Sdm.Deployment.functions dep));
  (match Sdm.Deployment.proxy_of_addr dep (Netpkt.Addr.of_string "10.0.1.55") with
  | Some p -> Alcotest.(check int) "addr in proxy1 subnet" 1 p.Mbox.Proxy.id
  | None -> Alcotest.fail "expected proxy");
  match Sdm.Deployment.middlebox_of_addr dep (Sdm.Deployment.mbox_addr 2) with
  | Some m -> Alcotest.(check int) "mbox by addr" 2 m.Mbox.Middlebox.id
  | None -> Alcotest.fail "expected middlebox"

let test_deployment_validation () =
  let dep = small_deployment () in
  ignore dep;
  let topo = dep.Sdm.Deployment.topo in
  Alcotest.check_raises "bad router"
    (Invalid_argument "Deployment.make: middlebox attachment router out of range")
    (fun () ->
      ignore
        (Sdm.Deployment.make ~topo
           ~middleboxes:
             [| Mbox.Middlebox.make ~id:0 ~nf:Policy.Action.FW ~router:99
                  ~addr:(Sdm.Deployment.mbox_addr 0) () |]
           ~proxies:[||]))

let test_standard_deployment () =
  let dep = campus_deployment () in
  Alcotest.(check int) "22 middleboxes" 22
    (Array.length dep.Sdm.Deployment.middleboxes);
  Alcotest.(check int) "10 proxies" 10 (Array.length dep.Sdm.Deployment.proxies);
  List.iter
    (fun (nf, n) ->
      Alcotest.(check int)
        (Policy.Action.nf_to_string nf)
        n
        (List.length (Sdm.Deployment.middleboxes_of dep nf)))
    Sim.Experiment.mbox_counts;
  (* All middleboxes attach to core routers. *)
  Array.iter
    (fun (m : Mbox.Middlebox.t) ->
      Alcotest.(check string) "on core" "core"
        (Netgraph.Topology.role_to_string
           (Netgraph.Topology.role dep.Sdm.Deployment.topo m.Mbox.Middlebox.router)))
    dep.Sdm.Deployment.middleboxes

(* --- Candidate sets --------------------------------------------------- *)

let test_candidates_closest_first () =
  let dep = small_deployment () in
  let cand = Sdm.Candidate.compute dep ~k:(fun _ -> 2) in
  let fws = Sdm.Candidate.get cand (Mbox.Entity.Proxy 0) Policy.Action.FW in
  Alcotest.(check (list int)) "closest first" [ 0; 1 ]
    (List.map (fun (m : Mbox.Middlebox.t) -> m.id) fws);
  let fws' = Sdm.Candidate.get cand (Mbox.Entity.Proxy 1) Policy.Action.FW in
  Alcotest.(check (list int)) "closest first (other end)" [ 1; 0 ]
    (List.map (fun (m : Mbox.Middlebox.t) -> m.id) fws');
  Alcotest.(check int) "m_x^e" 0
    (Sdm.Candidate.closest cand (Mbox.Entity.Proxy 0) Policy.Action.FW).Mbox.Middlebox.id

let test_candidates_k_clamped () =
  let dep = small_deployment () in
  let cand = Sdm.Candidate.compute dep ~k:(fun _ -> 10) in
  Alcotest.(check int) "clamped to |M^e|" 2
    (List.length (Sdm.Candidate.get cand (Mbox.Entity.Proxy 0) Policy.Action.FW))

let test_candidates_self_excluded () =
  let dep = small_deployment () in
  let cand = Sdm.Candidate.compute dep ~k:(fun _ -> 2) in
  Alcotest.check_raises "own function"
    (Invalid_argument "Candidate.get: entity implements the function itself")
    (fun () ->
      ignore (Sdm.Candidate.get cand (Mbox.Entity.Middlebox 0) Policy.Action.FW));
  (* A FW middlebox does get IDS candidates. *)
  Alcotest.(check int) "ids candidates" 2
    (List.length (Sdm.Candidate.get cand (Mbox.Entity.Middlebox 0) Policy.Action.IDS))

let test_candidates_tie_break_by_id () =
  let dep = small_deployment () in
  let cand = Sdm.Candidate.compute dep ~k:(fun _ -> 2) in
  (* From FW at router 1: IDS at routers 2 and 3 — distances 1 and 2.
     From proxy1 at router 5: IDS at 3 (dist 2) then 2 (dist 3). *)
  let ids = Sdm.Candidate.get cand (Mbox.Entity.Proxy 1) Policy.Action.IDS in
  Alcotest.(check (list int)) "distance order" [ 3; 2 ]
    (List.map (fun (m : Mbox.Middlebox.t) -> m.id) ids)

let test_fingerprint_groups () =
  let dep = campus_deployment () in
  let cand = Sdm.Candidate.compute dep ~k:Sdm.Controller.default_k in
  (* Fingerprints are stable and identical iff candidate sets are. *)
  let fp0 = Sdm.Candidate.fingerprint cand (Mbox.Entity.Proxy 0) in
  Alcotest.(check (list int)) "stable" fp0
    (Sdm.Candidate.fingerprint cand (Mbox.Entity.Proxy 0));
  let waxman = Sim.Experiment.build_deployment Sim.Experiment.Waxman ~seed:7 in
  let wc = Sdm.Candidate.compute waxman ~k:Sdm.Controller.default_k in
  let groups =
    List.init 400 (fun i -> Sdm.Candidate.fingerprint wc (Mbox.Entity.Proxy i))
    |> List.sort_uniq compare
  in
  (* 400 proxies hang off 25 cores: between 1 and 25 distinct
     fingerprints — this is what makes source grouping effective. *)
  Alcotest.(check bool) "grouping collapses proxies" true
    (List.length groups <= 25)

(* --- Measurement ------------------------------------------------------ *)

let test_measurement_aggregates () =
  let m = Sdm.Measurement.create () in
  Sdm.Measurement.add m ~src:0 ~dst:1 ~rule:3 100.0;
  Sdm.Measurement.add m ~src:0 ~dst:2 ~rule:3 50.0;
  Sdm.Measurement.add m ~src:1 ~dst:2 ~rule:3 25.0;
  Sdm.Measurement.add m ~src:0 ~dst:1 ~rule:4 10.0;
  Sdm.Measurement.add m ~src:0 ~dst:1 ~rule:3 1.0 (* accumulates *);
  Alcotest.(check (float 1e-9)) "t_sdp" 101.0
    (Sdm.Measurement.t_sdp m ~src:0 ~dst:1 ~rule:3);
  Alcotest.(check (float 1e-9)) "t_sp" 151.0 (Sdm.Measurement.t_sp m ~src:0 ~rule:3);
  Alcotest.(check (float 1e-9)) "t_dp" 75.0 (Sdm.Measurement.t_dp m ~dst:2 ~rule:3);
  Alcotest.(check (float 1e-9)) "t_p" 176.0 (Sdm.Measurement.t_p m ~rule:3);
  Alcotest.(check (list int)) "rules" [ 3; 4 ] (Sdm.Measurement.rules_with_traffic m);
  Alcotest.(check (float 1e-9)) "total" 186.0 (Sdm.Measurement.total m);
  Alcotest.(check (list (pair int (float 1e-9)))) "sources" [ (0, 151.0); (1, 25.0) ]
    (Sdm.Measurement.sources_for m ~rule:3)

let test_measurement_negative () =
  let m = Sdm.Measurement.create () in
  Alcotest.check_raises "negative volume"
    (Invalid_argument "Measurement.add: negative volume") (fun () ->
      Sdm.Measurement.add m ~src:0 ~dst:0 ~rule:0 (-1.0))

(* --- Selector --------------------------------------------------------- *)

let test_selector_buckets () =
  let row = [| (10, 1.0); (11, 3.0) |] in
  Alcotest.(check (option int)) "low u -> first" (Some 10)
    (Sdm.Selector.pick row ~u:0.1);
  Alcotest.(check (option int)) "u=0.25 boundary -> second" (Some 11)
    (Sdm.Selector.pick row ~u:0.25);
  Alcotest.(check (option int)) "high u -> second" (Some 11)
    (Sdm.Selector.pick row ~u:0.9);
  Alcotest.(check (option int)) "all-zero row" None
    (Sdm.Selector.pick [| (1, 0.0); (2, 0.0) |] ~u:0.5)

let test_selector_proportionality () =
  (* Empirical selection frequencies must track the weights. *)
  let row = [| (0, 1.0); (1, 2.0); (2, 7.0) |] in
  let counts = Array.make 3 0 in
  let rng = Stdx.Rng.create 5 in
  let n = 100_000 in
  for _ = 1 to n do
    match Sdm.Selector.pick row ~u:(Stdx.Rng.float rng 1.0) with
    | Some id -> counts.(id) <- counts.(id) + 1
    | None -> Alcotest.fail "unexpected empty pick"
  done;
  let frac i = float_of_int counts.(i) /. float_of_int n in
  Alcotest.(check bool) "10%" true (abs_float (frac 0 -. 0.1) < 0.01);
  Alcotest.(check bool) "20%" true (abs_float (frac 1 -. 0.2) < 0.01);
  Alcotest.(check bool) "70%" true (abs_float (frac 2 -. 0.7) < 0.01)

let test_selector_flow_sticky () =
  let flow =
    Netpkt.Flow.make ~src:(Netpkt.Addr.of_string "10.0.0.1")
      ~dst:(Netpkt.Addr.of_string "10.1.0.1") ~proto:6 ~sport:1 ~dport:2
  in
  let e = Mbox.Entity.Proxy 0 in
  let u1 = Sdm.Selector.flow_point flow ~entity:e ~nf:Policy.Action.FW in
  let u2 = Sdm.Selector.flow_point flow ~entity:e ~nf:Policy.Action.FW in
  Alcotest.(check (float 0.0)) "sticky" u1 u2;
  let u3 = Sdm.Selector.flow_point flow ~entity:e ~nf:Policy.Action.IDS in
  Alcotest.(check bool) "salted by function" true (u1 <> u3);
  let u4 =
    Sdm.Selector.flow_point flow ~entity:(Mbox.Entity.Middlebox 0)
      ~nf:Policy.Action.FW
  in
  Alcotest.(check bool) "salted by entity" true (u1 <> u4)

let qcheck_selector_unit_range =
  QCheck.Test.make ~count:200 ~name:"flow_point stays in [0,1)"
    QCheck.(make Gen.(pair (int_range 0 0xFFFF) (int_range 0 0xFFFF)))
    (fun (sport, dport) ->
      let flow =
        Netpkt.Flow.make ~src:(Netpkt.Addr.of_string "10.0.0.1")
          ~dst:(Netpkt.Addr.of_string "10.1.0.1") ~proto:6 ~sport ~dport
      in
      let u =
        Sdm.Selector.flow_point flow ~entity:(Mbox.Entity.Proxy 1)
          ~nf:Policy.Action.TM
      in
      u >= 0.0 && u < 1.0)

(* Distinct 5-tuples for the distribution tests: vary the ports. *)
let port_flow i =
  Netpkt.Flow.make ~src:(Netpkt.Addr.of_string "10.0.0.1")
    ~dst:(Netpkt.Addr.of_string "10.1.0.1") ~proto:6 ~sport:(i mod 60000)
    ~dport:(80 + (i / 60000))

let chi_square counts expected =
  let s = ref 0.0 in
  Array.iteri
    (fun i c -> s := !s +. (((float_of_int c -. expected.(i)) ** 2.0) /. expected.(i)))
    counts;
  !s

(* Critical values at p = 0.001 — the statistic is deterministic (hash
   driven), so a pass is stable; the bound is about hash quality. *)
let chi2_df2_p999 = 13.82
let chi2_df3_p999 = 16.27

let test_selector_rand_chi_square () =
  (* The Rand baseline over hashed flow points converges to uniform. *)
  let cands = [ 0; 1; 2; 3 ] in
  let n = 20_000 in
  let counts = Array.make 4 0 in
  for i = 0 to n - 1 do
    let u =
      Sdm.Selector.flow_point (port_flow i) ~entity:(Mbox.Entity.Proxy 0)
        ~nf:Policy.Action.FW
    in
    let id = Sdm.Selector.pick_uniform cands ~u in
    counts.(id) <- counts.(id) + 1
  done;
  let expected = Array.make 4 (float_of_int n /. 4.0) in
  let x2 = chi_square counts expected in
  if x2 > chi2_df3_p999 then
    Alcotest.failf "uniform chi-square %.2f exceeds %.2f" x2 chi2_df3_p999

let test_selector_lb_chi_square () =
  (* Bucket selection over hashed flow points converges to the LP
     weights — the property LB feasibility auditing leans on. *)
  let row = [| (0, 1.0); (1, 2.0); (2, 7.0) |] in
  let n = 20_000 in
  let counts = Array.make 3 0 in
  for i = 0 to n - 1 do
    let u =
      Sdm.Selector.flow_point (port_flow i) ~entity:(Mbox.Entity.Proxy 1)
        ~nf:Policy.Action.IDS
    in
    match Sdm.Selector.pick row ~u with
    | Some id -> counts.(id) <- counts.(id) + 1
    | None -> Alcotest.fail "unexpected empty pick"
  done;
  let nf = float_of_int n in
  let x2 = chi_square counts [| 0.1 *. nf; 0.2 *. nf; 0.7 *. nf |] in
  if x2 > chi2_df2_p999 then
    Alcotest.failf "weighted chi-square %.2f exceeds %.2f" x2 chi2_df2_p999

let test_selector_pick_validation () =
  let row = [| (0, 1.0); (1, 1.0) |] in
  Alcotest.check_raises "u below range"
    (Invalid_argument "Selector.pick: u out of [0,1)") (fun () ->
      ignore (Sdm.Selector.pick row ~u:(-0.1)));
  Alcotest.check_raises "u at 1.0"
    (Invalid_argument "Selector.pick: u out of [0,1)") (fun () ->
      ignore (Sdm.Selector.pick row ~u:1.0));
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Selector.pick: negative weight") (fun () ->
      ignore (Sdm.Selector.pick [| (0, -1.0) |] ~u:0.5))

(* --- LP formulations --------------------------------------------------- *)

let line_rules =
  (* One policy: everything from proxy0's subnet through FW -> IDS. *)
  [
    Policy.Rule.make ~id:0
      ~descriptor:(Policy.Descriptor.make ~src:(Sdm.Deployment.proxy_subnet 0) ())
      ~actions:Policy.Action.[ FW; IDS ];
  ]

let line_traffic volume =
  let m = Sdm.Measurement.create () in
  Sdm.Measurement.add m ~src:0 ~dst:1 ~rule:0 volume;
  m

let test_lp_balances_line () =
  let dep = small_deployment () in
  let cand = Sdm.Candidate.compute dep ~k:(fun _ -> 2) in
  match
    Sdm.Lp_formulation.solve_simplified cand ~rules:line_rules
      ~traffic:(line_traffic 100.0) ()
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
    (* 100 units through 2 FW and 2 IDS: perfect balance = 50 each. *)
    Alcotest.(check (float 0.5)) "lambda" 50.0 r.Sdm.Lp_formulation.lambda;
    Array.iter
      (fun load -> Alcotest.(check (float 0.5)) "each box 50" 50.0 load)
      r.Sdm.Lp_formulation.loads

let test_lp_respects_capacity () =
  (* Same line, but FW1 has 4x the capacity of FW0: the load split
     must be proportional under min-max load *factor*. *)
  let dep0 = small_deployment () in
  let topo = dep0.Sdm.Deployment.topo in
  let mb id nf router capacity =
    Mbox.Middlebox.make ~id ~nf ~router ~capacity
      ~addr:(Sdm.Deployment.mbox_addr id) ()
  in
  let proxy id router =
    Mbox.Proxy.make ~id ~subnet:(Sdm.Deployment.proxy_subnet id) ~router
      ~addr:(Sdm.Deployment.proxy_addr id) ()
  in
  let dep =
    Sdm.Deployment.make ~topo
      ~middleboxes:
        [| mb 0 Policy.Action.FW 1 1.0; mb 1 Policy.Action.FW 4 4.0;
           mb 2 Policy.Action.IDS 2 1.0; mb 3 Policy.Action.IDS 3 1.0 |]
      ~proxies:[| proxy 0 0; proxy 1 5 |]
  in
  let cand = Sdm.Candidate.compute dep ~k:(fun _ -> 2) in
  match
    Sdm.Lp_formulation.solve_simplified cand ~rules:line_rules
      ~traffic:(line_traffic 100.0) ()
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check (float 0.5)) "fw0 gets 20" 20.0 r.Sdm.Lp_formulation.loads.(0);
    Alcotest.(check (float 0.5)) "fw1 gets 80" 80.0 r.Sdm.Lp_formulation.loads.(1)

let test_lp_conservation_and_capacity_properties () =
  (* On a real campus instance: per-type totals of the LP loads must
     equal the traffic that needs that function, and no load may
     exceed lambda (+ the epsilon refinement slack). *)
  let dep = campus_deployment () in
  let workload = Sim.Workload.generate ~deployment:dep ~seed:11 ~flows:5_000 () in
  let rules = workload.Sim.Workload.rules in
  let traffic = Sim.Workload.measure workload in
  let cand = Sdm.Candidate.compute dep ~k:Sdm.Controller.default_k in
  match Sdm.Lp_formulation.solve_simplified cand ~rules ~traffic () with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let lambda = r.Sdm.Lp_formulation.lambda in
    Array.iteri
      (fun i load ->
        let cap = dep.Sdm.Deployment.middleboxes.(i).Mbox.Middlebox.capacity in
        if load > (lambda *. cap) +. 1e-3 then
          Alcotest.failf "load %f exceeds lambda %f at mbox %d" load lambda i)
      r.Sdm.Lp_formulation.loads;
    (* Per-function conservation: sum of loads on M^e = sum over rules
       containing e of T_p. *)
    List.iter
      (fun nf ->
        let expected =
          List.fold_left
            (fun acc rule ->
              if List.exists (Policy.Action.equal_nf nf) rule.Policy.Rule.actions
              then acc +. Sdm.Measurement.t_p traffic ~rule:rule.Policy.Rule.id
              else acc)
            0.0 rules
        in
        let got =
          List.fold_left
            (fun acc (m : Mbox.Middlebox.t) ->
              acc +. r.Sdm.Lp_formulation.loads.(m.id))
            0.0
            (Sdm.Deployment.middleboxes_of dep nf)
        in
        if abs_float (expected -. got) > 1e-3 *. (1.0 +. expected) then
          Alcotest.failf "%s: expected %f got %f" (Policy.Action.nf_to_string nf)
            expected got)
      (Sdm.Deployment.functions dep)

let test_lp_exact_not_worse () =
  (* Eq. (1) has at least the freedom of Eq. (2): its optimum cannot
     be worse. *)
  let dep = campus_deployment () in
  let workload =
    Sim.Workload.generate ~deployment:dep ~per_class:2 ~seed:13 ~flows:2_000 ()
  in
  let rules = workload.Sim.Workload.rules in
  let traffic = Sim.Workload.measure workload in
  let cand = Sdm.Candidate.compute dep ~k:Sdm.Controller.default_k in
  match
    ( Sdm.Lp_formulation.solve_exact cand ~rules ~traffic (),
      Sdm.Lp_formulation.solve_simplified cand ~rules ~traffic () )
  with
  | Ok exact, Ok simplified ->
    Alcotest.(check bool) "exact <= simplified (within eps)" true
      (exact.Sdm.Lp_formulation.lambda
      <= simplified.Sdm.Lp_formulation.lambda +. 1.0);
    Alcotest.(check bool) "exact uses more variables" true
      (exact.Sdm.Lp_formulation.lp_vars > simplified.Sdm.Lp_formulation.lp_vars)
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_lp_grouping_exact () =
  (* Source grouping must not change the optimum. *)
  let dep = campus_deployment () in
  let workload = Sim.Workload.generate ~deployment:dep ~seed:17 ~flows:3_000 () in
  let rules = workload.Sim.Workload.rules in
  let traffic = Sim.Workload.measure workload in
  let cand = Sdm.Candidate.compute dep ~k:Sdm.Controller.default_k in
  match
    ( Sdm.Lp_formulation.solve_simplified cand ~rules ~traffic
        ~group_sources:true (),
      Sdm.Lp_formulation.solve_simplified cand ~rules ~traffic
        ~group_sources:false () )
  with
  | Ok a, Ok b ->
    Alcotest.(check (float 1.0)) "same lambda" a.Sdm.Lp_formulation.lambda
      b.Sdm.Lp_formulation.lambda
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_lp_no_traffic () =
  let dep = small_deployment () in
  let cand = Sdm.Candidate.compute dep ~k:(fun _ -> 2) in
  match
    Sdm.Lp_formulation.solve_simplified cand ~rules:line_rules
      ~traffic:(Sdm.Measurement.create ()) ()
  with
  | Ok r -> Alcotest.(check (float 1e-9)) "lambda 0" 0.0 r.Sdm.Lp_formulation.lambda
  | Error e -> Alcotest.fail e

let test_lp_lambda_cap_infeasible () =
  let dep = small_deployment () in
  let cand = Sdm.Candidate.compute dep ~k:(fun _ -> 2) in
  match
    Sdm.Lp_formulation.solve_simplified cand ~rules:line_rules
      ~traffic:(line_traffic 100.0) ~lambda_cap:10.0 ()
  with
  | Error _ -> () (* 100 units cannot fit under max load 10 *)
  | Ok _ -> Alcotest.fail "expected infeasible under tight lambda cap"

let test_lp_duplicate_function_rejected () =
  let dep = small_deployment () in
  let cand = Sdm.Candidate.compute dep ~k:(fun _ -> 2) in
  let rules =
    [
      Policy.Rule.make ~id:0 ~descriptor:(Policy.Descriptor.make ())
        ~actions:Policy.Action.[ FW; IDS; FW ];
    ]
  in
  match
    Sdm.Lp_formulation.solve_simplified cand ~rules ~traffic:(line_traffic 1.0) ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected rejection of repeated function"

let test_exact_enforcement_path () =
  (* The Eq. (1) controller (per-(s,d) weights) must verify, realise a
     max load comparable to Eq. (2)'s, and ship more configuration. *)
  let dep = campus_deployment () in
  let workload = Sim.Workload.generate ~deployment:dep ~per_class:2 ~seed:41 ~flows:4_000 () in
  let rules = workload.Sim.Workload.rules in
  let traffic = Sim.Workload.measure workload in
  match
    ( Sdm.Controller.configure dep ~rules (Sdm.Controller.Load_balanced_exact traffic),
      Sdm.Controller.configure dep ~rules (Sdm.Controller.Load_balanced traffic) )
  with
  | Ok exact, Ok simplified ->
    (match exact.Sdm.Controller.strategy with
    | Sdm.Strategy.Load_balanced_exact (sd, _) ->
      Alcotest.(check bool) "per-(s,d) rows present" true
        (Sdm.Weights_sd.entries sd > 0)
    | _ -> Alcotest.fail "expected exact LB strategy");
    (match Sdm.Verify.check exact with
    | Ok () -> ()
    | Error vs ->
      Alcotest.failf "exact config rejected: %a" Sdm.Verify.pp_violation
        (List.hd vs));
    let realized c =
      Array.fold_left max 0.0
        (Sim.Flowsim.run ~controller:c ~workload ()).Sim.Flowsim.loads
    in
    let re = realized exact and rs = realized simplified in
    Alcotest.(check bool)
      (Printf.sprintf "comparable realizations (%.0f vs %.0f)" re rs)
      true
      (re < rs *. 1.25 +. 100.0);
    let rows c = (Sdm.Controller.config_summary c).Sdm.Controller.weight_rows in
    Alcotest.(check bool) "exact ships more config" true
      (rows exact > rows simplified)
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_lp_beats_fractional_rand () =
  (* The LP optimum can be no worse than ANY feasible split over the
     same candidate sets; in particular the fractional expectation of
     the Rand strategy (uniform split at every hop) is feasible, so
     lambda <= its max expected load. *)
  let dep = campus_deployment () in
  let workload = Sim.Workload.generate ~deployment:dep ~seed:37 ~flows:8_000 () in
  let rules = workload.Sim.Workload.rules in
  let traffic = Sim.Workload.measure workload in
  let cand = Sdm.Candidate.compute dep ~k:Sdm.Controller.default_k in
  let expected = Array.make (Array.length dep.Sdm.Deployment.middleboxes) 0.0 in
  (* Fractional Rand: push each flow's volume through the candidate
     DAG, splitting uniformly at every decision point. *)
  Array.iter
    (fun (fs : Sim.Workload.flow_spec) ->
      match Sim.Workload.rule_of workload fs with
      | Some rule when rule.Policy.Rule.actions <> [] ->
        let volume = float_of_int fs.Sim.Workload.packets in
        (* mass.(mbox id) at the current stage *)
        let start = Mbox.Entity.Proxy fs.Sim.Workload.src_proxy in
        let initial = [ (start, volume) ] in
        ignore
          (List.fold_left
             (fun mass nf ->
               let next = Hashtbl.create 8 in
               List.iter
                 (fun (entity, v) ->
                   let members = Sdm.Candidate.get cand entity nf in
                   let share = v /. float_of_int (List.length members) in
                   List.iter
                     (fun (m : Mbox.Middlebox.t) ->
                       expected.(m.id) <- expected.(m.id) +. share;
                       let e = Mbox.Entity.Middlebox m.id in
                       let prev =
                         Option.value ~default:0.0 (Hashtbl.find_opt next e)
                       in
                       Hashtbl.replace next e (prev +. share))
                     members)
                 mass;
               Hashtbl.fold (fun e v acc -> (e, v) :: acc) next [])
             initial rule.Policy.Rule.actions)
      | _ -> ())
    workload.Sim.Workload.flows;
  let rand_max = Array.fold_left max 0.0 expected in
  match Sdm.Lp_formulation.solve_simplified cand ~rules ~traffic () with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool)
      (Printf.sprintf "lambda %.0f <= fractional Rand max %.0f"
         r.Sdm.Lp_formulation.lambda rand_max)
      true
      (r.Sdm.Lp_formulation.lambda <= rand_max +. 1.0)

let test_custom_function_end_to_end () =
  (* Extensibility: a Custom "NAT" network function flows through
     candidates, LP, strategies and simulation like the builtins. *)
  let dep0 = campus_deployment () in
  let topo = dep0.Sdm.Deployment.topo in
  let cores = Netgraph.Topology.cores topo in
  let nat = Policy.Action.Custom "NAT" in
  let middleboxes =
    Array.append dep0.Sdm.Deployment.middleboxes
      (Array.of_list
         (List.mapi
            (fun i core ->
              let id = Array.length dep0.Sdm.Deployment.middleboxes + i in
              Mbox.Middlebox.make ~id ~nf:nat ~router:core
                ~addr:(Sdm.Deployment.mbox_addr id) ())
            [ List.nth cores 0; List.nth cores 5 ]))
  in
  let dep =
    Sdm.Deployment.make ~topo ~middleboxes ~proxies:dep0.Sdm.Deployment.proxies
  in
  let rules =
    Policy.Rule.index
      [ Policy.Descriptor.make ~dport:(Policy.Descriptor.Port 5060) () ]
      [ [ nat; Policy.Action.FW ] ]
  in
  let traffic = Sdm.Measurement.create () in
  Sdm.Measurement.add traffic ~src:0 ~dst:1 ~rule:0 500.0;
  Sdm.Measurement.add traffic ~src:2 ~dst:3 ~rule:0 500.0;
  match Sdm.Controller.configure dep ~rules (Sdm.Controller.Load_balanced traffic) with
  | Error e -> Alcotest.fail e
  | Ok c -> (
    (match Sdm.Verify.check c with
    | Ok () -> ()
    | Error vs ->
      Alcotest.failf "custom-NF config rejected: %a" Sdm.Verify.pp_violation
        (List.hd vs));
    let flow =
      Netpkt.Flow.make
        ~src:(Netpkt.Addr.Prefix.nth_addr (Sdm.Deployment.subnet_of dep 0) 4)
        ~dst:(Netpkt.Addr.Prefix.nth_addr (Sdm.Deployment.subnet_of dep 1) 4)
        ~proto:17 ~sport:9999 ~dport:5060
    in
    let rule = List.hd rules in
    let mb = Sdm.Controller.next_hop c (Mbox.Entity.Proxy 0) ~rule ~nf:nat flow in
    match mb.Mbox.Middlebox.nf with
    | Policy.Action.Custom "NAT" -> ()
    | other ->
      Alcotest.failf "expected a NAT box, got %s" (Policy.Action.nf_to_string other))

(* --- Failure handling --------------------------------------------------- *)

let test_candidates_exclude () =
  let dep = campus_deployment () in
  let excluded =
    (List.hd (Sdm.Deployment.middleboxes_of dep Policy.Action.IDS)).Mbox.Middlebox.id
  in
  let cand =
    Sdm.Candidate.compute ~exclude:[ excluded ] dep ~k:Sdm.Controller.default_k
  in
  let entities =
    List.init (Array.length dep.Sdm.Deployment.proxies) (fun i -> Mbox.Entity.Proxy i)
  in
  List.iter
    (fun e ->
      List.iter
        (fun (m : Mbox.Middlebox.t) ->
          if m.id = excluded then Alcotest.fail "excluded middlebox in candidate set")
        (Sdm.Candidate.get cand e Policy.Action.IDS))
    entities

let test_candidates_exclude_all_fails () =
  let dep = small_deployment () in
  match Sdm.Candidate.compute ~exclude:[ 0; 1 ] dep ~k:(fun _ -> 2) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected failure when a function loses all middleboxes"

let test_failover_skips_dead () =
  let dep = small_deployment () in
  match Sdm.Controller.configure dep ~rules:line_rules Sdm.Controller.Hot_potato with
  | Error e -> Alcotest.fail e
  | Ok c ->
    let rule = List.hd line_rules in
    let flow =
      Netpkt.Flow.make
        ~src:(Netpkt.Addr.Prefix.nth_addr (Sdm.Deployment.proxy_subnet 0) 2)
        ~dst:(Netpkt.Addr.Prefix.nth_addr (Sdm.Deployment.proxy_subnet 1) 2)
        ~proto:6 ~sport:1 ~dport:80
    in
    (* FW0 (closest) fails: HP must fail over to FW1. *)
    let mb =
      Sdm.Controller.next_hop ~alive:(fun id -> id <> 0) c (Mbox.Entity.Proxy 0)
        ~rule ~nf:Policy.Action.FW flow
    in
    Alcotest.(check int) "next-closest live" 1 mb.Mbox.Middlebox.id;
    (* Both FWs dead: no live candidate left. *)
    match
      Sdm.Controller.next_hop ~alive:(fun id -> id <> 0 && id <> 1) c
        (Mbox.Entity.Proxy 0) ~rule ~nf:Policy.Action.FW flow
    with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail "expected failure with no live candidates"

let test_next_hop_result_typed () =
  (* The non-raising face of failover: [Error `No_live_candidate]
     instead of an exception, and agreement with [next_hop] when a
     live candidate exists. *)
  let dep = small_deployment () in
  match Sdm.Controller.configure dep ~rules:line_rules Sdm.Controller.Hot_potato with
  | Error e -> Alcotest.fail e
  | Ok c ->
    let rule = List.hd line_rules in
    let flow =
      Netpkt.Flow.make
        ~src:(Netpkt.Addr.Prefix.nth_addr (Sdm.Deployment.proxy_subnet 0) 2)
        ~dst:(Netpkt.Addr.Prefix.nth_addr (Sdm.Deployment.proxy_subnet 1) 2)
        ~proto:6 ~sport:1 ~dport:80
    in
    (match
       Sdm.Controller.next_hop_result ~alive:(fun id -> id <> 0 && id <> 1) c
         (Mbox.Entity.Proxy 0) ~rule ~nf:Policy.Action.FW flow
     with
    | Error `No_live_candidate -> ()
    | Ok _ -> Alcotest.fail "expected No_live_candidate with all FWs dead");
    (match
       Sdm.Controller.next_hop_result ~alive:(fun id -> id <> 0) c
         (Mbox.Entity.Proxy 0) ~rule ~nf:Policy.Action.FW flow
     with
    | Ok mb -> Alcotest.(check int) "fails over like next_hop" 1 mb.Mbox.Middlebox.id
    | Error `No_live_candidate -> Alcotest.fail "FW1 is alive");
    match
      Sdm.Controller.next_hop_result c (Mbox.Entity.Proxy 0) ~rule
        ~nf:Policy.Action.FW flow
    with
    | Ok mb ->
      let raising =
        Sdm.Controller.next_hop c (Mbox.Entity.Proxy 0) ~rule
          ~nf:Policy.Action.FW flow
      in
      Alcotest.(check int) "no alive: agrees with next_hop"
        raising.Mbox.Middlebox.id mb.Mbox.Middlebox.id
    | Error `No_live_candidate -> Alcotest.fail "unexpected error without faults"

let test_flowsim_graceful_degradation () =
  (* Every FW dead: flows whose chain needs one are not an error — the
     rest of the chain is skipped and the damage is counted. *)
  let dep = campus_deployment () in
  let workload = Sim.Workload.generate ~deployment:dep ~seed:9 ~flows:2_000 () in
  let fw_ids =
    List.map
      (fun (m : Mbox.Middlebox.t) -> m.Mbox.Middlebox.id)
      (Sdm.Deployment.middleboxes_of dep Policy.Action.FW)
  in
  let alive id = not (List.mem id fw_ids) in
  match Sdm.Controller.configure dep ~rules:workload.Sim.Workload.rules
          Sdm.Controller.Hot_potato with
  | Error e -> Alcotest.fail e
  | Ok c ->
    let r = Sim.Flowsim.run ~alive ~controller:c ~workload () in
    Alcotest.(check bool) "violations counted" true
      (r.Sim.Flowsim.policy_violations > 0);
    Alcotest.(check bool) "violating flows counted" true
      (r.Sim.Flowsim.violating_flows > 0
      && r.Sim.Flowsim.violating_flows <= Array.length workload.Sim.Workload.flows);
    List.iter
      (fun id ->
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "dead FW %d unloaded" id)
          0.0 r.Sim.Flowsim.loads.(id))
      fw_ids;
    let healthy = Sim.Flowsim.run ~controller:c ~workload () in
    Alcotest.(check int) "no violations without faults" 0
      healthy.Sim.Flowsim.policy_violations;
    Alcotest.(check int) "no violating flows without faults" 0
      healthy.Sim.Flowsim.violating_flows

let test_failover_all_strategies_avoid_dead () =
  let dep = campus_deployment () in
  let workload = Sim.Workload.generate ~deployment:dep ~seed:9 ~flows:2_000 () in
  let traffic = Sim.Workload.measure workload in
  let dead =
    (List.hd (Sdm.Deployment.middleboxes_of dep Policy.Action.FW)).Mbox.Middlebox.id
  in
  let alive id = id <> dead in
  List.iter
    (fun kind ->
      match Sdm.Controller.configure dep ~rules:workload.Sim.Workload.rules kind with
      | Error e -> Alcotest.fail e
      | Ok c ->
        let result = Sim.Flowsim.run ~alive ~controller:c ~workload () in
        Alcotest.(check (float 1e-9)) "dead box got nothing" 0.0
          result.Sim.Flowsim.loads.(dead))
    [
      Sdm.Controller.Hot_potato;
      Sdm.Controller.Random_uniform;
      Sdm.Controller.Load_balanced traffic;
    ]

let test_reoptimize_after_failure () =
  let dep = campus_deployment () in
  let workload = Sim.Workload.generate ~deployment:dep ~seed:9 ~flows:5_000 () in
  let traffic = Sim.Workload.measure workload in
  let dead =
    (List.hd (Sdm.Deployment.middleboxes_of dep Policy.Action.IDS)).Mbox.Middlebox.id
  in
  match
    ( Sdm.Controller.configure dep ~rules:workload.Sim.Workload.rules
        (Sdm.Controller.Load_balanced traffic),
      Sdm.Controller.configure dep ~rules:workload.Sim.Workload.rules
        ~failed:[ dead ]
        (Sdm.Controller.Load_balanced traffic) )
  with
  | Ok before, Ok after ->
    let l_before =
      (Option.get before.Sdm.Controller.lp).Sdm.Lp_formulation.lambda
    in
    let l_after = (Option.get after.Sdm.Controller.lp).Sdm.Lp_formulation.lambda in
    (* Losing a box cannot improve the optimum. *)
    Alcotest.(check bool) "lambda grows" true (l_after >= l_before -. 1e-6);
    (* The failed box carries nothing in the new plan. *)
    Alcotest.(check (float 1e-9)) "no planned load" 0.0
      (Option.get after.Sdm.Controller.lp).Sdm.Lp_formulation.loads.(dead)
  | Error e, _ | _, Error e -> Alcotest.fail e

(* --- Incremental re-optimization ----------------------------------------- *)

let qcheck_candidate_incremental =
  (* The candidate-set equality oracle: after any seeded sequence of
     crash/recover events, patching the candidate sets from the shared
     ranked lists ([with_excluded]) is element-for-element equal to a
     from-scratch [compute ~exclude] — and errors exactly where the
     rebuild would raise (a function left without middleboxes). *)
  QCheck.Test.make ~count:25 ~name:"with_excluded equals a from-scratch rebuild"
    QCheck.(
      make
        Gen.(
          pair (int_range 0 99_999)
            (list_size (int_range 1 10) (int_range 0 21))))
    (fun (seed, events) ->
      let dep = Sim.Experiment.build_deployment Sim.Experiment.Campus ~seed in
      let base = Sdm.Candidate.compute dep ~k:Sdm.Controller.default_k in
      let module IS = Set.Make (Int) in
      (* Each event toggles one middlebox: crash if alive, recover if
         down.  The patched view is chained — each step derives from
         the previous step's view, as the live controller does. *)
      let _, _, ok =
        List.fold_left
          (fun (excluded, prev, ok) id ->
            let excluded =
              if IS.mem id excluded then IS.remove id excluded
              else IS.add id excluded
            in
            let ids = IS.elements excluded in
            let patched = Sdm.Candidate.with_excluded prev ids in
            let fresh =
              match
                Sdm.Candidate.compute ~exclude:ids dep
                  ~k:Sdm.Controller.default_k
              with
              | c -> Ok c
              | exception Invalid_argument e -> Error e
            in
            match (patched, fresh) with
            | Ok p, Ok f ->
              ( excluded,
                p,
                ok
                && Sdm.Candidate.equal p f
                && Sdm.Candidate.excluded p = ids )
            | Error _, Error _ ->
              (* Both refuse: a function lost its last box.  Keep the
                 last good view, as the controller would. *)
              (excluded, prev, ok)
            | Ok _, Error _ | Error _, Ok _ -> (excluded, prev, false))
          (IS.empty, base, true) events
      in
      ok)

let test_reoptimize_warm_matches_cold () =
  (* The controller-level differential on a short churn chain: warm
     and cold re-optimization agree on the optimum at every step, the
     warm solve either carries the basis or honestly falls back, and
     the no-change steps warm-solve for free. *)
  let steps = Sim.Experiment.reopt_replay Sim.Experiment.Campus ~flows:200 () in
  Alcotest.(check bool) "chain is non-trivial" true (List.length steps >= 4);
  List.iteri
    (fun i (s : Sim.Experiment.reopt_step) ->
      Alcotest.(check bool)
        (Printf.sprintf "step %d optima agree" i)
        true s.Sim.Experiment.rs_agree;
      Alcotest.(check bool)
        (Printf.sprintf "step %d carried xor fell back" i)
        true
        (s.Sim.Experiment.rs_warm_used <> s.Sim.Experiment.rs_fallback))
    steps;
  (match steps with
  | first :: _ ->
    Alcotest.(check bool) "no-op step warm-carried" true
      first.Sim.Experiment.rs_warm_used;
    Alcotest.(check int) "no-op step is free" 0
      first.Sim.Experiment.rs_warm_pivots
  | [] -> Alcotest.fail "empty replay");
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 steps in
  let cold = sum (fun s -> s.Sim.Experiment.rs_cold_pivots) in
  let warm = sum (fun s -> s.Sim.Experiment.rs_warm_pivots) in
  Alcotest.(check bool)
    (Printf.sprintf "warm total %d < cold total %d" warm cold)
    true (warm < cold)

let test_reoptimize_warm_off_is_cold () =
  (* [use_warm:false] must be the cold path verbatim: same lambda,
     same pivot counts, no warm/fallback flags. *)
  let dep = campus_deployment () in
  let workload = Sim.Workload.generate ~deployment:dep ~seed:5 ~flows:800 () in
  let traffic = Sim.Workload.measure workload in
  match
    Sdm.Controller.configure dep ~rules:workload.Sim.Workload.rules
      (Sdm.Controller.Load_balanced traffic)
  with
  | Error e -> Alcotest.fail e
  | Ok c -> (
    match
      ( Sdm.Controller.reoptimize c ~failed:[] ~use_warm:false ~traffic (),
        Sdm.Controller.reoptimize c ~failed:[] ~use_warm:true ~traffic () )
    with
    | Ok cold, Ok warm ->
      let lp (c : Sdm.Controller.t) = Option.get c.Sdm.Controller.lp in
      Alcotest.(check (float 1e-9))
        "same optimum"
        (lp cold).Sdm.Lp_formulation.lambda
        (lp warm).Sdm.Lp_formulation.lambda;
      Alcotest.(check bool) "cold never claims warm" false
        (lp cold).Sdm.Lp_formulation.lp_warm_used;
      Alcotest.(check bool) "cold never counts fallback" false
        (lp cold).Sdm.Lp_formulation.lp_fallback;
      Alcotest.(check bool) "unchanged problem warm-carried" true
        (lp warm).Sdm.Lp_formulation.lp_warm_used;
      Alcotest.(check int) "unchanged problem is free" 0
        (lp warm).Sdm.Lp_formulation.lp_pivots
    | Error e, _ | _, Error e -> Alcotest.fail e)

(* --- Policy updates ------------------------------------------------------- *)

let test_update_rules_delta () =
  let dep = campus_deployment () in
  let base_rules =
    Policy.Rule.index
      [
        Policy.Descriptor.make
          ~src:(Sdm.Deployment.subnet_of dep 0)
          ~dport:(Policy.Descriptor.Port 80) ();
      ]
      [ Policy.Action.[ FW; IDS ] ]
  in
  match Sdm.Controller.configure dep ~rules:base_rules Sdm.Controller.Hot_potato with
  | Error e -> Alcotest.fail e
  | Ok c -> (
    (* No-op update: nothing to push. *)
    (match Sdm.Controller.update_rules c ~rules:base_rules Sdm.Controller.Hot_potato with
    | Ok d ->
      Alcotest.(check int) "noop touches nothing" 0 d.Sdm.Controller.entities_touched;
      Alcotest.(check int) "noop adds nothing" 0 d.Sdm.Controller.rows_added
    | Error e -> Alcotest.fail e);
    (* Append a TM policy for subnet 3: touches proxy 3 (new source
       rule)... and every entity the new rule is relevant to. *)
    let extra =
      Policy.Rule.make ~id:1
        ~descriptor:
          (Policy.Descriptor.make
             ~src:(Sdm.Deployment.subnet_of dep 3)
             ~dport:(Policy.Descriptor.Port 443) ())
        ~actions:Policy.Action.[ IDS; TM ]
    in
    match
      Sdm.Controller.update_rules c ~rules:(base_rules @ [ extra ])
        Sdm.Controller.Hot_potato
    with
    | Error e -> Alcotest.fail e
    | Ok d ->
      (* Touched: proxy 3 (source) + the 7 IDS + 4 TM middleboxes. *)
      Alcotest.(check int) "touched entities" 12 d.Sdm.Controller.entities_touched;
      Alcotest.(check int) "one row per touched entity" 12 d.Sdm.Controller.rows_added;
      Alcotest.(check int) "nothing removed" 0 d.Sdm.Controller.rows_removed;
      (* The new controller enforces the new rule. *)
      Alcotest.(check int) "new rule installed" 2
        (List.length d.Sdm.Controller.controller.Sdm.Controller.rules))

(* --- Static verification -------------------------------------------------- *)

let test_verify_accepts_valid_configs () =
  let dep = campus_deployment () in
  let workload = Sim.Workload.generate ~deployment:dep ~seed:31 ~flows:3_000 () in
  let rules = workload.Sim.Workload.rules in
  let traffic = Sim.Workload.measure workload in
  List.iter
    (fun kind ->
      match Sdm.Controller.configure dep ~rules kind with
      | Error e -> Alcotest.fail e
      | Ok c -> (
        match Sdm.Verify.check c with
        | Ok () -> ()
        | Error vs ->
          Alcotest.failf "valid config rejected: %a" Sdm.Verify.pp_violation
            (List.hd vs)))
    [
      Sdm.Controller.Hot_potato;
      Sdm.Controller.Random_uniform;
      Sdm.Controller.Load_balanced traffic;
    ]

let test_verify_catches_foreign_weight () =
  let dep = campus_deployment () in
  let workload = Sim.Workload.generate ~deployment:dep ~seed:31 ~flows:3_000 () in
  let rules = workload.Sim.Workload.rules in
  let traffic = Sim.Workload.measure workload in
  match Sdm.Controller.configure dep ~rules (Sdm.Controller.Load_balanced traffic) with
  | Error e -> Alcotest.fail e
  | Ok c -> (
    (* Corrupt one weight row: point some proxy's FW choice at a WP box. *)
    let weights =
      match c.Sdm.Controller.strategy with
      | Sdm.Strategy.Load_balanced w -> w
      | _ -> Alcotest.fail "expected LB"
    in
    let wp_box =
      (List.hd (Sdm.Deployment.middleboxes_of dep Policy.Action.WP)).Mbox.Middlebox.id
    in
    let rule_with_fw =
      List.find
        (fun r -> List.exists (Policy.Action.equal_nf Policy.Action.FW) r.Policy.Rule.actions)
        rules
    in
    Sdm.Weights.set weights (Mbox.Entity.Proxy 0) ~rule:rule_with_fw.Policy.Rule.id
      ~nf:Policy.Action.FW
      [| (wp_box, 1.0) |];
    match Sdm.Verify.check c with
    | Ok () -> Alcotest.fail "verifier missed a corrupted weight row"
    | Error vs ->
      Alcotest.(check bool) "reports foreign weight" true
        (List.exists
           (function Sdm.Verify.Foreign_weight _ -> true | _ -> false)
           vs))

let test_verify_catches_unnormalized_row () =
  let dep = campus_deployment () in
  let workload = Sim.Workload.generate ~deployment:dep ~seed:31 ~flows:3_000 () in
  let rules = workload.Sim.Workload.rules in
  let traffic = Sim.Workload.measure workload in
  match Sdm.Controller.configure dep ~rules (Sdm.Controller.Load_balanced traffic) with
  | Error e -> Alcotest.fail e
  | Ok c ->
    let weights =
      match c.Sdm.Controller.strategy with
      | Sdm.Strategy.Load_balanced w -> w
      | _ -> Alcotest.fail "expected LB"
    in
    (* A rule whose chain starts with FW, so the proxy-side step of the
       walk consults the row we poke. *)
    let rule =
      List.find
        (fun r ->
          match r.Policy.Rule.actions with
          | f :: _ -> Policy.Action.equal_nf f Policy.Action.FW
          | [] -> false)
        rules
    in
    let entity = Mbox.Entity.Proxy 0 in
    let members = Sdm.Candidate.get c.Sdm.Controller.candidates entity Policy.Action.FW in
    let row vals =
      Array.of_list
        (List.map2 (fun (m : Mbox.Middlebox.t) v -> (m.id, v)) members vals)
    in
    let zeros = List.map (fun _ -> 0.0) members in
    (* All-zero row: legal candidates, but the selector would silently
       degrade it to closest-live fallback — the verifier must veto. *)
    Sdm.Weights.set weights entity ~rule:rule.Policy.Rule.id ~nf:Policy.Action.FW
      (row zeros);
    (match Sdm.Verify.check c with
    | Ok () -> Alcotest.fail "verifier passed an all-zero weight row"
    | Error vs ->
      Alcotest.(check bool) "reports unnormalized row" true
        (List.exists
           (function
             | Sdm.Verify.Unnormalized_row (_, _, Policy.Action.FW, total) ->
               total = 0.0
             | _ -> false)
           vs));
    (* A non-finite weight is just as unusable. *)
    Sdm.Weights.set weights entity ~rule:rule.Policy.Rule.id ~nf:Policy.Action.FW
      (row (Float.nan :: List.tl zeros));
    (match Sdm.Verify.check c with
    | Ok () -> Alcotest.fail "verifier passed a NaN weight row"
    | Error vs ->
      Alcotest.(check bool) "reports non-finite row" true
        (List.exists
           (function Sdm.Verify.Unnormalized_row _ -> true | _ -> false)
           vs));
    (* Fixed: any positive volumes over the candidate set certify again
       (rows are volumes, not probabilities — the selector normalizes). *)
    Sdm.Weights.set weights entity ~rule:rule.Policy.Rule.id ~nf:Policy.Action.FW
      (row (List.map (fun _ -> 2.5) members));
    (match Sdm.Verify.check c with
    | Ok () -> ()
    | Error vs ->
      Alcotest.failf "fixed row still rejected: %a" Sdm.Verify.pp_violation
        (List.hd vs))

let test_verify_check_mixed () =
  let dep = campus_deployment () in
  let workload = Sim.Workload.generate ~deployment:dep ~seed:31 ~flows:3_000 () in
  let rules = workload.Sim.Workload.rules in
  let traffic = Sim.Workload.measure workload in
  let configure kind =
    match Sdm.Controller.configure dep ~rules kind with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let hp = configure Sdm.Controller.Hot_potato in
  let lb = configure (Sdm.Controller.Load_balanced traffic) in
  (* Two independently valid adjacent versions: every reachable mix of
     their steps must certify, in either update direction. *)
  (match Sdm.Verify.check_mixed hp lb with
  | Ok () -> ()
  | Error vs ->
    Alcotest.failf "valid HP->LB mix rejected: %a" Sdm.Verify.pp_violation
      (List.hd vs));
  (match Sdm.Verify.check_mixed lb hp with
  | Ok () -> ()
  | Error vs ->
    Alcotest.failf "valid LB->HP mix rejected: %a" Sdm.Verify.pp_violation
      (List.hd vs));
  (* A defect in the incoming version is caught while the outgoing one
     is still live — the publish gate of the live control plane. *)
  let bad = configure (Sdm.Controller.Load_balanced traffic) in
  let weights =
    match bad.Sdm.Controller.strategy with
    | Sdm.Strategy.Load_balanced w -> w
    | _ -> Alcotest.fail "expected LB"
  in
  let rule =
    List.find
      (fun r ->
        match r.Policy.Rule.actions with
        | f :: _ -> Policy.Action.equal_nf f Policy.Action.FW
        | [] -> false)
      rules
  in
  let members =
    Sdm.Candidate.get bad.Sdm.Controller.candidates (Mbox.Entity.Proxy 0)
      Policy.Action.FW
  in
  Sdm.Weights.set weights (Mbox.Entity.Proxy 0) ~rule:rule.Policy.Rule.id
    ~nf:Policy.Action.FW
    (Array.of_list (List.map (fun (m : Mbox.Middlebox.t) -> (m.id, 0.0)) members));
  (match Sdm.Verify.check_mixed hp bad with
  | Ok () -> Alcotest.fail "mixed check passed a defective incoming version"
  | Error vs ->
    Alcotest.(check bool) "reports the defect exactly once" true
      (List.length
         (List.filter
            (function Sdm.Verify.Unnormalized_row _ -> true | _ -> false)
            vs)
      = 1));
  (* Configurations over different rule sets are never adjacent. *)
  let fewer =
    match
      Sdm.Controller.configure dep ~rules:(List.tl rules) Sdm.Controller.Hot_potato
    with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  match Sdm.Verify.check_mixed hp fewer with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mismatched rule sets accepted"

let test_verify_check_window () =
  let dep = campus_deployment () in
  let workload = Sim.Workload.generate ~deployment:dep ~seed:31 ~flows:3_000 () in
  let rules = workload.Sim.Workload.rules in
  let traffic = Sim.Workload.measure workload in
  let configure kind =
    match Sdm.Controller.configure dep ~rules kind with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let hp = configure Sdm.Controller.Hot_potato in
  let lb = configure (Sdm.Controller.Load_balanced traffic) in
  (* Empty window: vacuously safe. *)
  (match Sdm.Verify.check_window [] with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "empty window rejected");
  (* Singleton window = plain check. *)
  Alcotest.(check bool) "singleton = check" true
    (Sdm.Verify.check_window [ hp ] = Sdm.Verify.check hp);
  (* Adjacent pair = the mixed-version certification. *)
  Alcotest.(check bool) "pair = check_mixed" true
    (Sdm.Verify.check_window [ hp; lb ] = Sdm.Verify.check_mixed hp lb);
  (* Three coexisting versions are vetoed outright, whatever their
     contents — the quorum commit gate of the replicated control
     plane depends on this veto. *)
  match Sdm.Verify.check_window [ hp; lb; hp ] with
  | Ok () -> Alcotest.fail "three-version window accepted"
  | Error vs ->
    Alcotest.(check bool) "vetoed as too deep" true
      (vs = [ Sdm.Verify.Window_too_deep 3 ])

let test_verify_catches_duplicate_function () =
  let dep = campus_deployment () in
  let rules =
    [
      Policy.Rule.make ~id:0 ~descriptor:(Policy.Descriptor.make ())
        ~actions:Policy.Action.[ FW; IDS; FW ];
    ]
  in
  match Sdm.Controller.configure dep ~rules Sdm.Controller.Hot_potato with
  | Error e -> Alcotest.fail e
  | Ok c -> (
    match Sdm.Verify.check c with
    | Ok () -> Alcotest.fail "verifier missed a repeated function"
    | Error vs ->
      Alcotest.(check bool) "reports duplicate" true
        (List.exists
           (function Sdm.Verify.Duplicate_function 0 -> true | _ -> false)
           vs))

(* --- Sketched measurement ----------------------------------------------- *)

let test_sketch_roundtrip_accuracy () =
  (* With a reasonable epsilon the reconstructed matrix equals the
     exact one on this small universe. *)
  let dep = campus_deployment () in
  let workload = Sim.Workload.generate ~deployment:dep ~seed:19 ~flows:5_000 () in
  let rules = workload.Sim.Workload.rules in
  let exact = Sim.Workload.measure workload in
  let n_proxies = Array.length dep.Sdm.Deployment.proxies in
  let sketch =
    Sdm.Sketch.of_workload_measurement ~exact ~n_proxies ~rules ~epsilon:0.001 ()
  in
  let approx = Sdm.Sketch.to_measurement sketch ~rules in
  List.iter
    (fun rule ->
      List.iter
        (fun (s, d, v) ->
          let got = Sdm.Measurement.t_sdp approx ~src:s ~dst:d ~rule in
          if abs_float (got -. v) > 0.01 *. (v +. 1.0) then
            Alcotest.failf "cell (%d,%d,%d): exact %f sketched %f" s d rule v got)
        (Sdm.Measurement.pairs_for exact ~rule))
    (Sdm.Measurement.rules_with_traffic exact)

let test_sketch_never_underestimates_present_cells () =
  let dep = campus_deployment () in
  let workload = Sim.Workload.generate ~deployment:dep ~seed:23 ~flows:3_000 () in
  let rules = workload.Sim.Workload.rules in
  let exact = Sim.Workload.measure workload in
  let n_proxies = Array.length dep.Sdm.Deployment.proxies in
  let sketch =
    Sdm.Sketch.of_workload_measurement ~exact ~n_proxies ~rules ~epsilon:0.05 ()
  in
  let approx = Sdm.Sketch.to_measurement sketch ~rules in
  (* Cells that survive the noise floor can only overestimate. *)
  List.iter
    (fun rule ->
      List.iter
        (fun (s, d, v) ->
          let got = Sdm.Measurement.t_sdp approx ~src:s ~dst:d ~rule in
          if got > 0.0 && got < v -. 1e-6 then
            Alcotest.failf "sketch undercounted a surviving cell: %f < %f" got v)
        (Sdm.Measurement.pairs_for exact ~rule))
    (Sdm.Measurement.rules_with_traffic exact)

let test_sketch_memory_scales_with_epsilon () =
  let a = Sdm.Sketch.create ~epsilon:0.01 ~n_proxies:4 () in
  let b = Sdm.Sketch.create ~epsilon:0.001 ~n_proxies:4 () in
  Alcotest.(check bool) "finer sketch uses more memory" true
    (Sdm.Sketch.memory_cells b > Sdm.Sketch.memory_cells a)

(* --- Controller -------------------------------------------------------- *)

let test_controller_missing_function () =
  let dep = small_deployment () in
  let rules =
    [
      Policy.Rule.make ~id:0 ~descriptor:(Policy.Descriptor.make ())
        ~actions:Policy.Action.[ WP ];
    ]
  in
  match Sdm.Controller.configure dep ~rules Sdm.Controller.Hot_potato with
  | Error e ->
    (* The message should name the missing function. *)
    let mentions_wp =
      let rec scan i =
        i + 2 <= String.length e && (String.sub e i 2 = "WP" || scan (i + 1))
      in
      scan 0
    in
    Alcotest.(check bool) "mentions WP" true mentions_wp
  | Ok _ -> Alcotest.fail "expected missing-function error"

let test_controller_hot_potato_next_hop () =
  let dep = small_deployment () in
  match Sdm.Controller.configure dep ~rules:line_rules Sdm.Controller.Hot_potato with
  | Error e -> Alcotest.fail e
  | Ok c ->
    let rule = List.hd line_rules in
    let flow =
      Netpkt.Flow.make
        ~src:(Netpkt.Addr.Prefix.nth_addr (Sdm.Deployment.proxy_subnet 0) 2)
        ~dst:(Netpkt.Addr.Prefix.nth_addr (Sdm.Deployment.proxy_subnet 1) 2)
        ~proto:6 ~sport:1234 ~dport:80
    in
    let mb =
      Sdm.Controller.next_hop c (Mbox.Entity.Proxy 0) ~rule ~nf:Policy.Action.FW
        flow
    in
    Alcotest.(check int) "closest FW" 0 mb.Mbox.Middlebox.id;
    let mb2 =
      Sdm.Controller.next_hop c (Mbox.Entity.Middlebox 0) ~rule
        ~nf:Policy.Action.IDS flow
    in
    Alcotest.(check int) "closest IDS from FW0" 2 mb2.Mbox.Middlebox.id

let test_controller_policy_tables () =
  let dep = campus_deployment () in
  let workload = Sim.Workload.generate ~deployment:dep ~seed:3 ~flows:100 () in
  match
    Sdm.Controller.configure dep ~rules:workload.Sim.Workload.rules
      Sdm.Controller.Hot_potato
  with
  | Error e -> Alcotest.fail e
  | Ok c ->
    (* Middlebox tables contain exactly the rules mentioning their
       function. *)
    Array.iter
      (fun (m : Mbox.Middlebox.t) ->
        let table = Sdm.Controller.policy_table_for c (Mbox.Entity.Middlebox m.id) in
        List.iter
          (fun r ->
            Alcotest.(check bool) "rule mentions function" true
              (List.exists (Policy.Action.equal_nf m.Mbox.Middlebox.nf)
                 r.Policy.Rule.actions))
          table)
      dep.Sdm.Deployment.middleboxes;
    (* Proxy tables: every rule a flow from that proxy can match is
       present. *)
    Array.iter
      (fun (fs : Sim.Workload.flow_spec) ->
        match fs.Sim.Workload.rule_id with
        | None -> ()
        | Some rid ->
          let table =
            Sdm.Controller.policy_table_for c
              (Mbox.Entity.Proxy fs.Sim.Workload.src_proxy)
          in
          Alcotest.(check bool) "matched rule in proxy table" true
            (List.exists (fun r -> r.Policy.Rule.id = rid) table))
      workload.Sim.Workload.flows

let test_controller_lb_weights_exist () =
  let dep = campus_deployment () in
  let workload = Sim.Workload.generate ~deployment:dep ~seed:3 ~flows:2_000 () in
  let traffic = Sim.Workload.measure workload in
  match
    Sdm.Controller.configure dep ~rules:workload.Sim.Workload.rules
      (Sdm.Controller.Load_balanced traffic)
  with
  | Error e -> Alcotest.fail e
  | Ok c -> (
    Alcotest.(check bool) "lp present" true (c.Sdm.Controller.lp <> None);
    match c.Sdm.Controller.strategy with
    | Sdm.Strategy.Load_balanced w ->
      Alcotest.(check bool) "weights non-empty" true (Sdm.Weights.entries w > 0)
    | _ -> Alcotest.fail "expected LB strategy")

let suite =
  [
    Alcotest.test_case "deployment distances" `Quick test_deployment_distances;
    Alcotest.test_case "deployment lookups" `Quick test_deployment_lookup;
    Alcotest.test_case "deployment validation" `Quick test_deployment_validation;
    Alcotest.test_case "standard campus deployment" `Quick test_standard_deployment;
    Alcotest.test_case "candidates closest-first" `Quick test_candidates_closest_first;
    Alcotest.test_case "candidates k clamped" `Quick test_candidates_k_clamped;
    Alcotest.test_case "candidates self-excluded" `Quick test_candidates_self_excluded;
    Alcotest.test_case "candidates ordering" `Quick test_candidates_tie_break_by_id;
    Alcotest.test_case "fingerprint grouping" `Quick test_fingerprint_groups;
    Alcotest.test_case "measurement aggregates" `Quick test_measurement_aggregates;
    Alcotest.test_case "measurement negative" `Quick test_measurement_negative;
    Alcotest.test_case "selector buckets" `Quick test_selector_buckets;
    Alcotest.test_case "selector proportionality" `Quick test_selector_proportionality;
    Alcotest.test_case "selector stickiness" `Quick test_selector_flow_sticky;
    QCheck_alcotest.to_alcotest qcheck_selector_unit_range;
    Alcotest.test_case "selector Rand chi-square" `Quick
      test_selector_rand_chi_square;
    Alcotest.test_case "selector LB chi-square" `Quick
      test_selector_lb_chi_square;
    Alcotest.test_case "selector pick validation" `Quick
      test_selector_pick_validation;
    Alcotest.test_case "LP balances a line" `Quick test_lp_balances_line;
    Alcotest.test_case "LP respects capacity" `Quick test_lp_respects_capacity;
    Alcotest.test_case "LP conservation properties" `Quick
      test_lp_conservation_and_capacity_properties;
    Alcotest.test_case "LP exact not worse" `Quick test_lp_exact_not_worse;
    Alcotest.test_case "LP grouping exact" `Quick test_lp_grouping_exact;
    Alcotest.test_case "LP no traffic" `Quick test_lp_no_traffic;
    Alcotest.test_case "LP lambda cap infeasible" `Quick test_lp_lambda_cap_infeasible;
    Alcotest.test_case "LP rejects repeated function" `Quick
      test_lp_duplicate_function_rejected;
    Alcotest.test_case "Eq.(1) enforcement path" `Quick test_exact_enforcement_path;
    Alcotest.test_case "LP beats fractional Rand" `Quick test_lp_beats_fractional_rand;
    Alcotest.test_case "custom function end-to-end" `Quick
      test_custom_function_end_to_end;
    Alcotest.test_case "candidates exclude failed" `Quick test_candidates_exclude;
    Alcotest.test_case "candidates exclude-all fails" `Quick
      test_candidates_exclude_all_fails;
    Alcotest.test_case "failover skips dead" `Quick test_failover_skips_dead;
    Alcotest.test_case "next_hop_result typed failover" `Quick
      test_next_hop_result_typed;
    Alcotest.test_case "flowsim graceful degradation" `Quick
      test_flowsim_graceful_degradation;
    Alcotest.test_case "failover avoids dead (all strategies)" `Quick
      test_failover_all_strategies_avoid_dead;
    Alcotest.test_case "re-optimize after failure" `Quick test_reoptimize_after_failure;
    QCheck_alcotest.to_alcotest qcheck_candidate_incremental;
    Alcotest.test_case "warm re-optimize matches cold" `Quick
      test_reoptimize_warm_matches_cold;
    Alcotest.test_case "warm off is the cold path" `Quick
      test_reoptimize_warm_off_is_cold;
    Alcotest.test_case "policy update delta" `Quick test_update_rules_delta;
    Alcotest.test_case "verify accepts valid configs" `Quick
      test_verify_accepts_valid_configs;
    Alcotest.test_case "verify catches foreign weights" `Quick
      test_verify_catches_foreign_weight;
    Alcotest.test_case "verify catches duplicate functions" `Quick
      test_verify_catches_duplicate_function;
    Alcotest.test_case "verify catches unnormalized rows" `Quick
      test_verify_catches_unnormalized_row;
    Alcotest.test_case "verify mixed adjacent versions" `Quick
      test_verify_check_mixed;
    Alcotest.test_case "verify staged window depth" `Quick
      test_verify_check_window;
    Alcotest.test_case "sketch roundtrip accuracy" `Quick test_sketch_roundtrip_accuracy;
    Alcotest.test_case "sketch one-sided error" `Quick
      test_sketch_never_underestimates_present_cells;
    Alcotest.test_case "sketch memory scaling" `Quick
      test_sketch_memory_scales_with_epsilon;
    Alcotest.test_case "controller missing function" `Quick
      test_controller_missing_function;
    Alcotest.test_case "controller hot-potato next hop" `Quick
      test_controller_hot_potato_next_hop;
    Alcotest.test_case "controller policy tables" `Quick test_controller_policy_tables;
    Alcotest.test_case "controller LB weights" `Quick test_controller_lb_weights_exist;
  ]
