(* CLI exit-code contract: flag misuse exits 2 (sdmctl and the bench
   harness alike), an unknown sdmctl experiment name exits 3 and lists
   the known names. *)

(* Under `dune runtest` the cwd is the sandboxed test directory and the
   declared dependencies sit at ../bin and ../bench; fall back to the
   build tree so a bare `dune exec test/test_main.exe` from the project
   root works too. *)
let find_exe dir name =
  List.find Sys.file_exists
    [
      Printf.sprintf "../%s/%s" dir name;
      Printf.sprintf "_build/default/%s/%s" dir name;
      Printf.sprintf "%s/%s" dir name;
    ]

let sdmctl = find_exe "bin" "sdmctl.exe"
let bench = find_exe "bench" "main.exe"

(* Run [exe] with [args], capturing combined stdout+stderr; returns
   (exit code, output). *)
let run_exe exe args =
  let out = Filename.temp_file "cli" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  Sys.remove out;
  (code, text)

let run_sdmctl = run_exe sdmctl

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_unknown_experiment () =
  let code, out = run_sdmctl [ "exp"; "no-such-thing" ] in
  Alcotest.(check int) "distinct exit code" 3 code;
  Alcotest.(check bool) "names the unknown" true
    (contains ~needle:"no-such-thing" out);
  Alcotest.(check bool) "lists known experiments" true
    (contains ~needle:"known experiments:" out);
  (* the list itself must be in the message, not just its header *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " listed") true (contains ~needle:name out))
    (List.map (fun (e : Sim.Registry.entry) -> e.name) Sim.Registry.all)

let test_bad_flags () =
  let code, out = run_sdmctl [ "exp"; "table3"; "--jobs"; "0" ] in
  Alcotest.(check int) "bad --jobs exits 2" 2 code;
  Alcotest.(check bool) "explains" true (contains ~needle:"--jobs" out);
  let code, out = run_sdmctl [ "exp"; "table3"; "--shards"; "0" ] in
  Alcotest.(check int) "bad --shards exits 2" 2 code;
  Alcotest.(check bool) "explains" true (contains ~needle:"--shards" out);
  let code, out = run_sdmctl [ "exp"; "fig4"; "--flows"; "10" ] in
  Alcotest.(check int) "fig4 --flows exits 2" 2 code;
  Alcotest.(check bool) "explains" true (contains ~needle:"--flows" out)

(* An explicit --flows is honoured, not capped: sdmctl prints exactly
   the report of the experiment run at that volume, and nothing else. *)
let test_flows_honoured () =
  let show pp v = Format.asprintf "%a@." pp v in
  List.iter
    (fun (name, expected) ->
      let code, out = run_sdmctl [ "exp"; name; "--flows"; "200" ] in
      Alcotest.(check int) (name ^ " exits 0") 0 code;
      Alcotest.(check string) (name ^ " at 200 flows") expected out)
    [
      ( "cache",
        show Sim.Report.pp_cache_ablation
          (Sim.Experiment.ablation_cache ~flows:200 ()) );
      ( "queue",
        show Sim.Report.pp_queue_ablation
          (Sim.Experiment.ablation_queue ~flows:200 ()) );
      ( "k",
        show Sim.Report.pp_k_ablation
          (Sim.Experiment.ablation_k ~flows:200 ()).Sim.Experiment.k_points );
    ]

let test_bench_bad_flags () =
  (* Rejected before any section runs: an unknown flag, a value flag
     with no value, a non-positive count. *)
  List.iter
    (fun (label, args) ->
      let code, out = run_exe bench args in
      Alcotest.(check int) (label ^ " exits 2") 2 code;
      Alcotest.(check bool) (label ^ " prints usage") true
        (contains ~needle:"usage: main.exe" out);
      Alcotest.(check bool) (label ^ " runs no section") false
        (contains ~needle:"#####" out))
    [
      ("unknown flag", [ "--bogus" ]);
      ("misspelled flag", [ "--fast"; "--skip-mirco" ]);
      ("trailing --jobs", [ "--fast"; "--jobs" ]);
      ("zero --shards", [ "--shards"; "0" ]);
    ]

let suite =
  [
    Alcotest.test_case "unknown experiment lists known names" `Quick
      test_unknown_experiment;
    Alcotest.test_case "flag misuse exits 2" `Quick test_bad_flags;
    Alcotest.test_case "bench flag misuse exits 2" `Quick test_bench_bad_flags;
    Alcotest.test_case "explicit --flows is honoured" `Quick
      test_flows_honoured;
  ]
