(* The repository benchmark: one workload, one seed, a timed closed
   loop, checked outputs, and one JSON result line.

     main.exe --workload flow-fig|pkt-lb|ctrl-reconfig|live-churn
              --seed N --seconds S --trace 0|1

   Untraced (--trace 0), the result carries the end-to-end metrics.
   Traced (--trace 1), every layer call is recorded as a span, a ledger
   pass reaches the layers the loop did not, the spans are written to
   perfbench/traces/, and the result carries the per-layer metrics.
   Exit code 1 when any output check failed.  See perfbench/README.md. *)

open Bench

let setup_reps = 3

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " m)

let end_to_end acc ~setup_s =
  let rates = List.map (fun (s : sample) -> float_of_int s.ops /. s.seconds) acc.throughput in
  let tail_ms, tail_pct = tail acc.reconfig_ms in
  let range l =
    let a = sorted l in
    if a = [||] then "-"
    else Printf.sprintf "min %.6g median %.6g max %.6g" a.(0) (median l) a.(Array.length a - 1)
  in
  Printf.printf "rounds %d ops_per_s %s\n" (List.length rates) (range rates);
  Printf.printf "reconfig_samples %d tail_percentile %.2f reconfig_ms %s\n"
    (List.length acc.reconfig_ms) tail_pct (range acc.reconfig_ms);
  [
    ("setup_s", "s", median setup_s);
    ("ops_per_s", "ops/s", median rates);
    ("reconfig_p50_ms", "ms", median acc.reconfig_ms);
    ("reconfig_tail_ms", "ms", tail_ms);
    ("peak_heap_mb", "MB", peak_heap_mb ());
  ]

let run (w : Workloads.t) ~seed ~seconds ~trace =
  if trace then Trace.enable ();
  let acc = create_acc () in
  (* Set up several times and keep the median; only the last instance
     survives, so the repeats do not raise the heap high-water mark. *)
  let instance = ref None and setup_s = ref [] in
  for _ = 1 to setup_reps do
    instance := None;
    Gc.compact ();
    let i, s = timed (fun () -> span "setup" (fun () -> w.setup ~seed)) in
    instance := Some i;
    setup_s := s :: !setup_s
  done;
  let inst = Option.get !instance in
  Gc.compact ();
  closed_loop ~seconds (fun i -> span "round" (fun () -> inst.round acc i));
  inst.finish acc;
  let audit_overhead_s = if trace then Ledger.run inst.ledger acc else 0.0 in
  counteri acc "verify.violations" acc.verify_violations;
  List.iter (fun (name, v) -> Printf.printf "counter %s %s\n" name (json_number v)) (List.rev acc.counters);
  List.iter (fun p -> Printf.eprintf "check failed: %s\n" p) (List.rev acc.problems);
  Printf.printf "ops %d\nops_failed %d\n" acc.ops acc.failed;
  let e2e = end_to_end acc ~setup_s:!setup_s in
  let metrics =
    if not trace then e2e
    else begin
      (* The same end-to-end figures with tracing on: traced minus
         untraced is the tracing overhead. *)
      List.iter (fun (name, _, v) -> Printf.printf "traced %s %s\n" name (json_number v)) e2e;
      if not (Sys.file_exists "perfbench/traces") then Sys.mkdir "perfbench/traces" 0o755;
      Trace.write (Printf.sprintf "perfbench/traces/%s-seed%d.json" w.name seed);
      Ledger.metrics acc ~audit_overhead_s
    end
  in
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  if not finite then prerr_endline "check failed: a metric is not a finite number";
  let correct = acc.failed = 0 && acc.problems = [] && finite in
  print_endline (result_line ~correct ~attempted:acc.ops ~failed:acc.failed metrics);
  exit (if correct then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let usage =
    "main.exe --workload NAME --seed N --seconds S --trace 0|1\nworkloads: "
    ^ String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 record spans and report per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.find_opt (fun (w : Workloads.t) -> w.name = !workload) Workloads.all with
  | None ->
    prerr_endline usage;
    exit 2
  | Some w ->
    if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline usage;
      exit 2
    end;
    run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
