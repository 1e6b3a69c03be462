(* Smoke tests for the report renderers: every printer must produce
   non-empty, well-formed output for real experiment results, and the
   CSV exports must be structurally valid. *)

let render pp v =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  pp ppf v;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let small_figure () =
  Sim.Experiment.run_figure Sim.Experiment.Campus ~flow_counts:[ 2_000 ] ()

let test_figure_rendering () =
  let fig = small_figure () in
  let out = render Sim.Report.pp_figure fig in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains out needle))
    [ "campus"; "-- FW --"; "-- IDS --"; "-- WP --"; "-- TM --"; "HP"; "Rand"; "LB" ]

let test_figure_csv () =
  let fig = small_figure () in
  let csv = Sim.Report.figure_csv fig in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
  in
  (* Header plus one row per (4 types x 1 volume point). *)
  Alcotest.(check int) "row count" 5 (List.length lines);
  Alcotest.(check string) "header" "nf,flows,packets,hp,rand,lb" (List.hd lines);
  List.iter
    (fun line ->
      Alcotest.(check int) "six columns" 6
        (List.length (String.split_on_char ',' line)))
    lines

let test_table3_rendering_and_csv () =
  let rows = (Sim.Experiment.run_table3 ~flows:2_000 ()).Sim.Experiment.t3_rows in
  let out = render Sim.Report.pp_table3 rows in
  Alcotest.(check bool) "mentions max" true (contains out "max.");
  Alcotest.(check bool) "mentions min" true (contains out "min.");
  let csv = Sim.Report.table3_csv rows in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) in
  Alcotest.(check int) "header + 4 types" 5 (List.length lines)

let test_millions () =
  Alcotest.(check string) "millions" "1.66M" (Sim.Report.millions 1_660_000.0);
  Alcotest.(check string) "thousands" "12.7k" (Sim.Report.millions 12_737.0);
  Alcotest.(check string) "units" "42" (Sim.Report.millions 42.0)

let test_ablation_printers () =
  (* Tiny runs through every remaining printer. *)
  let cache = Sim.Experiment.ablation_cache ~flows:100 () in
  Alcotest.(check bool) "cache report" true
    (contains (render Sim.Report.pp_cache_ablation cache) "lookup fraction");
  let frag = Sim.Experiment.ablation_fragmentation ~flows:100 () in
  Alcotest.(check bool) "frag report" true
    (contains (render Sim.Report.pp_frag_ablation frag) "label switching");
  let lat = Sim.Experiment.ablation_latency ~flows:100 () in
  Alcotest.(check bool) "latency report" true
    (contains (render Sim.Report.pp_latency_ablation lat) "overhead")

(* Hand-built reports keep the CSV emitter tests fast and let them pin
   exact cell values, including both states of the audit column.  Each
   row overrides the counters under test on one small real audited
   run. *)
let base_stats =
  lazy
    (let deployment =
       Sim.Experiment.build_deployment Sim.Experiment.Campus ~seed:17
     in
     let workload = Sim.Workload.generate ~deployment ~seed:17 ~flows:20 () in
     match
       Sdm.Controller.configure deployment ~rules:workload.Sim.Workload.rules
         Sdm.Controller.Hot_potato
     with
     | Error e -> failwith e
     | Ok controller ->
       Sim.Pktsim.run
         ~config:{ Sim.Pktsim.default_config with audit = true }
         ~controller ~workload ())

(* The base run with its audit verdict replaced: [None] = audit off. *)
let stats ~audit =
  let s = Lazy.force base_stats in
  {
    s with
    Sim.Pktsim.audit_report =
      Option.map
        (fun n ->
          { (Option.get s.Sim.Pktsim.audit_report) with Audit.Checker.violations = n })
        audit;
  }

let synthetic_live_report () =
  let row ~loss ~audit =
    {
      Sim.Experiment.live_loss = loss;
      live_stats =
        {
          (stats ~audit) with
          Sim.Pktsim.injected_packets = 100;
          delivered_packets = 99;
          policy_violations = 0;
          final_config_version = 4;
          config_pushes = 20;
          config_acks = 19;
          config_lost = 1;
          config_degraded = 0;
          stale_devices = 2;
          config_bytes = 1234;
          loads = [| 55.0 |];
          events_processed = 5000;
          entity_config_version = [| 4; 3 |];
          entity_control_retries = [| 1; 5 |];
          entity_control_lost = [| 2; 4 |];
        };
    }
  in
  let probe max_load =
    { (stats ~audit:None) with Sim.Pktsim.loads = [| max_load |]; events_processed = 6_000 }
  in
  {
    Sim.Experiment.live_epoch = 10.0;
    live_reconcile = 2.5;
    live_stale = probe 1000.0;
    live_clairvoyant = probe 400.0;
    live_devices = [ "proxy0"; "mbox7" ];
    live_rows = [ row ~loss:0.0 ~audit:None; row ~loss:0.10 ~audit:(Some 3) ];
  }

let test_live_csv () =
  let csv = Sim.Report.live_csv (synthetic_live_report ()) in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "header"
    "loss,injected,delivered,violating,versions,pushes,acks,lost,degraded,stale,bytes,max_load,audit"
    (List.hd lines);
  let cells line = String.split_on_char ',' line in
  List.iter
    (fun line ->
      Alcotest.(check int) "column count" 13 (List.length (cells line)))
    lines;
  (match lines with
  | [ _; unaudited; audited ] ->
    let u = cells unaudited and a = cells audited in
    Alcotest.(check string) "loss cell" "0.00" (List.hd u);
    Alcotest.(check string) "audit empty when off" "" (List.nth u 12);
    Alcotest.(check string) "loss cell audited" "0.10" (List.hd a);
    Alcotest.(check string) "audit count when on" "3" (List.nth a 12);
    Alcotest.(check string) "bytes round-trip" "1234" (List.nth a 10);
    (* Every numeric cell parses back. *)
    List.iteri
      (fun i cell ->
        if i <> 12 then
          Alcotest.(check bool)
            (Printf.sprintf "cell %d numeric" i)
            true
            (float_of_string_opt cell <> None))
      u
  | _ -> Alcotest.fail "unexpected line structure")

let test_live_devices_csv () =
  let csv = Sim.Report.live_devices_csv (synthetic_live_report ()) in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) in
  Alcotest.(check int) "header + 2 devices" 3 (List.length lines);
  Alcotest.(check string) "header" "device,version,lag,retries,lost"
    (List.hd lines);
  Alcotest.(check string) "proxy row" "proxy0,4,0,1,2" (List.nth lines 1);
  Alcotest.(check string) "mbox row" "mbox7,3,1,5,4" (List.nth lines 2)

let synthetic_chaos_report () =
  let chaos_row ~audit =
    {
      Sim.Experiment.chaos_mode = "LB+failover";
      chaos_delay = 2.0;
      chaos_max_surviving = 80.0;
      chaos_stats =
        {
          (stats ~audit) with
          Sim.Pktsim.injected_packets = 100;
          delivered_packets = 99;
          dropped_packets = 1;
          policy_violations = 1;
          control_retries = 0;
          (* recovery 1.5 after the crash at 25.0 *)
          last_violation_time = 26.5;
          events_processed = 4000;
        };
    }
  in
  {
    Sim.Experiment.chaos_victim = 11;
    chaos_victim_nf = Policy.Action.IDS;
    chaos_crash_at = 25.0;
    chaos_link = Some (0, 2);
    chaos_link_fail_at = 45.0;
    chaos_link_restore_at = 65.0;
    chaos_control_loss = 0.02;
    chaos_probe = { (stats ~audit:None) with Sim.Pktsim.events_processed = 9_000 };
    chaos_rows = [ chaos_row ~audit:None; chaos_row ~audit:(Some 7) ];
  }

let test_live_and_chaos_printers_audit_column () =
  let out = render Sim.Report.pp_live_ablation (synthetic_live_report ()) in
  Alcotest.(check bool) "live header has audit" true (contains out "audit");
  Alcotest.(check bool) "live shows dash when off" true (contains out " -");
  let report = synthetic_chaos_report () in
  let out = render Sim.Report.pp_chaos_ablation report in
  Alcotest.(check bool) "chaos header has audit" true (contains out "audit");
  Alcotest.(check bool) "chaos shows dash when off" true (contains out " -");
  Alcotest.(check bool) "chaos shows the count when on" true (contains out "7")

(* The verdict sdmctl and the bench both exit 1 on. *)
let test_registry_verdicts () =
  let chaos = Sim.Registry.chaos_outcome (synthetic_chaos_report ()) in
  Alcotest.(check (list int)) "chaos audit counts" [ 7 ] chaos.audits;
  Alcotest.(check int) "chaos events" 17_000 chaos.events;
  Alcotest.(check int) "violations fail under audit" 1
    (List.length (Sim.Registry.failures ~audit:true chaos));
  Alcotest.(check int) "and only under audit" 0
    (List.length (Sim.Registry.failures ~audit:false chaos));
  let reopt agree =
    Sim.Registry.reopt_outcome
      {
        Sim.Experiment.rp_control_loss = 0.02;
        rp_infos = [];
        rp_rows = [];
        rp_replays = [];
        rp_agree = agree;
        rp_total = 10;
      }
  in
  Alcotest.(check bool) "agreeing replay passes" true
    ((reopt 10).failure = None);
  Alcotest.(check int) "warm/cold mismatch fails, audit or not" 1
    (List.length (Sim.Registry.failures ~audit:false (reopt 9)))

(* Packet-level entries report the router hops their runs
   fast-forwarded, probes included. *)
let test_registry_pkt_hops () =
  List.iter
    (fun name ->
      let e = Option.get (Sim.Registry.find name) in
      let o =
        e.run
          {
            Sim.Registry.seed = 17;
            flows = Some 60;
            fast = true;
            audit = false;
            jobs = 1;
            shards = 1;
          }
      in
      Alcotest.(check bool) (name ^ " router hops > 0") true (o.hops > 0))
    [ "live"; "frag" ]

let test_registry_ids_unique () =
  let unique what f =
    let ids = List.map f Sim.Registry.all in
    Alcotest.(check int) (what ^ " unique") (List.length ids)
      (List.length (List.sort_uniq compare ids))
  in
  unique "names" (fun (e : Sim.Registry.entry) -> e.name);
  unique "sections" (fun (e : Sim.Registry.entry) -> e.section)

let suite =
  [
    Alcotest.test_case "figure rendering" `Slow test_figure_rendering;
    Alcotest.test_case "figure CSV" `Slow test_figure_csv;
    Alcotest.test_case "table3 rendering and CSV" `Slow test_table3_rendering_and_csv;
    Alcotest.test_case "millions formatting" `Quick test_millions;
    Alcotest.test_case "ablation printers" `Slow test_ablation_printers;
    Alcotest.test_case "live CSV cells" `Quick test_live_csv;
    Alcotest.test_case "live devices CSV" `Quick test_live_devices_csv;
    Alcotest.test_case "audit column in printers" `Quick
      test_live_and_chaos_printers_audit_column;
    Alcotest.test_case "registry verdicts" `Quick test_registry_verdicts;
    Alcotest.test_case "registry ids unique" `Quick test_registry_ids_unique;
    Alcotest.test_case "packet-level entries report router hops" `Quick
      test_registry_pkt_hops;
  ]
