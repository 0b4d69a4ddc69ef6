(* Campaign engine: pool ordering and error isolation, determinism of
   the full-testbed campaign across pool widths (the serial-vs-parallel
   acceptance check), report schema, and telemetry merging at join. *)

module Campaign = Fpga_campaign.Campaign
module Registry = Fpga_testbed.Registry
module Telemetry = Fpga_telemetry.Telemetry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Results come back ordered by submission index with the right labels
   and values, whatever the pool width. *)
let test_pool_ordering () =
  let jobs =
    Array.init 16 (fun i ->
        { Campaign.label = Printf.sprintf "j%d" i; work = (fun () -> i * i) })
  in
  let results, stats = Campaign.run_pool ~domains:4 jobs in
  check_int "every job has a result" 16 (Array.length results);
  Array.iteri
    (fun i (r : int Campaign.job_result) ->
      check_int "ordered by submission index" i r.Campaign.jr_id;
      check_string "label preserved" (Printf.sprintf "j%d" i)
        r.Campaign.jr_label;
      match r.Campaign.jr_value with
      | Ok v -> check_int "value" (i * i) v
      | Error e -> Alcotest.failf "job %d raised: %s" i e)
    results;
  check_int "jobs accounted" 16 stats.Campaign.ps_jobs;
  check_int "one busy slot per worker" stats.Campaign.ps_domains
    (Array.length stats.Campaign.ps_busy)

(* A raising job becomes an [Error] result carrying the exception text;
   the rest of the queue still drains. *)
let test_pool_error_isolation () =
  let jobs =
    [|
      { Campaign.label = "ok1"; work = (fun () -> 1) };
      { Campaign.label = "boom"; work = (fun () -> failwith "kaboom") };
      { Campaign.label = "ok2"; work = (fun () -> 2) };
    |]
  in
  let results, _ = Campaign.run_pool ~domains:2 jobs in
  (match results.(1).Campaign.jr_value with
  | Error e ->
      check_bool "error carries exception text" true (contains e "kaboom");
      (* the backtrace rides along, so a failing job keeps its stderr
         context (dune builds with -g, so frames are recorded) *)
      check_bool "error carries the backtrace" true
        (contains e "Raised" || contains e "Called")
  | Ok _ -> Alcotest.fail "raising job reported Ok");
  (match (results.(0).Campaign.jr_value, results.(2).Campaign.jr_value) with
  | Ok 1, Ok 2 -> ()
  | _ -> Alcotest.fail "surviving jobs lost their results")

(* The pool never spawns more workers than jobs, and a non-positive
   width degrades to the inline serial path. *)
let test_pool_clamps_domains () =
  let three =
    Array.init 3 (fun i ->
        { Campaign.label = string_of_int i; work = (fun () -> i) })
  in
  let _, stats = Campaign.run_pool ~domains:8 three in
  check_int "width clamped to job count" 3 stats.Campaign.ps_domains;
  let _, stats = Campaign.run_pool ~domains:0 three in
  check_int "non-positive width runs inline" 1 stats.Campaign.ps_domains;
  check_bool "utilization within [0,1]" true
    (stats.Campaign.ps_utilization >= 0.0
    && stats.Campaign.ps_utilization <= 1.000001)

(* The acceptance check: the full Table 2 testbed (repro + kernel
   differential + a cycle sweep) on four domains produces verdicts
   structurally identical to the serial reference — including $display
   logs, VCD text, symptom lists, and cycle counts. *)
let test_campaign_determinism () =
  let bugs = Registry.all in
  let serial =
    Campaign.run ~domains:1 ~differential:true ~sweeps:[ 100 ] bugs
  in
  let par = Campaign.run ~domains:4 ~differential:true ~sweeps:[ 100 ] bugs in
  check_int "same job count"
    (Array.length serial.Campaign.c_results)
    (Array.length par.Campaign.c_results);
  Array.iteri
    (fun i (s : Campaign.verdict Campaign.job_result) ->
      let p = par.Campaign.c_results.(i) in
      check_string "same label at same index" s.Campaign.jr_label
        p.Campaign.jr_label;
      check_bool
        (Printf.sprintf "verdict %s identical (log, vcd, symptoms)"
           s.Campaign.jr_label)
        true
        (s.Campaign.jr_value = p.Campaign.jr_value))
    serial.Campaign.c_results;
  check_int "same simulated-cycle total" serial.Campaign.c_cycles
    par.Campaign.c_cycles;
  check_bool "every testbed job ok" true (Campaign.ok serial)

(* The JSON report is schema-pinned and carries the aggregate and
   waveform-summary fields CI consumes. *)
let test_to_json_schema () =
  let bug = Option.get (Registry.find "D2") in
  let c = Campaign.run ~domains:2 ~differential:true [ bug ] in
  let json = Campaign.to_json c in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "report contains %s" needle) true
        (contains json needle))
    [
      "\"schema\": \"fpga-debug-campaign/2\"";
      "\"label\": \"repro:D2\"";
      "\"label\": \"differential:D2\"";
      "\"vcd_md5\"";
      "\"pool_utilization\"";
      "\"cycles_per_sec\"";
    ]

(* Telemetry recorded inside worker domains lands in per-domain sinks
   that the pool sums at join. 1+2+...+8 = 36 across two workers. *)
let test_pool_merges_telemetry () =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
  @@ fun () ->
  let counter = Telemetry.Counter.make "campaign.test_bumps" in
  let jobs =
    Array.init 8 (fun i ->
        {
          Campaign.label = Printf.sprintf "bump%d" i;
          work = (fun () -> Telemetry.Counter.bump counter (i + 1));
        })
  in
  let _, stats = Campaign.run_pool ~domains:2 jobs in
  let merged =
    List.assoc_opt "campaign.test_bumps"
      stats.Campaign.ps_telemetry.Telemetry.r_counters
  in
  check_int "merged counter sums every worker's bumps" 36
    (Option.value merged ~default:0);
  check_int "caller's own sink untouched by workers" 0
    (Telemetry.Counter.value counter)

(* The replay job proves checkpoint/replay determinism per bug: a
   window replayed from the serialized middle snapshot is byte-identical
   to the straight run, and a too-short run is vacuously ok. *)
let test_replay_jobs () =
  let bugs =
    List.map (fun id -> Option.get (Registry.find id)) [ "D2"; "D8" ]
  in
  let c = Campaign.run ~domains:2 ~replay_every:50 bugs in
  check_bool "replay jobs all ok" true (Campaign.ok c);
  let find label =
    Array.to_list c.Campaign.c_results
    |> List.find (fun r -> r.Campaign.jr_label = label)
  in
  (match (find "replay:D2:50").Campaign.jr_value with
  | Ok v -> check_bool "D2 replayed a real window" true
      (contains v.Campaign.v_detail "identical to straight run")
  | Error e -> Alcotest.failf "replay:D2:50 raised: %s" e);
  match (find "replay:D8:50").Campaign.jr_value with
  | Ok v ->
      check_bool "short run is vacuously ok" true
        (contains v.Campaign.v_detail "no checkpoints")
  | Error e -> Alcotest.failf "replay:D8:50 raised: %s" e

let suite =
  [
    Alcotest.test_case "pool preserves submission order" `Quick
      test_pool_ordering;
    Alcotest.test_case "raising job isolated as Error" `Quick
      test_pool_error_isolation;
    Alcotest.test_case "pool width clamps" `Quick test_pool_clamps_domains;
    Alcotest.test_case "full-testbed campaign deterministic across widths"
      `Quick test_campaign_determinism;
    Alcotest.test_case "json report schema-pinned" `Quick test_to_json_schema;
    Alcotest.test_case "replay jobs prove checkpoint determinism" `Quick
      test_replay_jobs;
    Alcotest.test_case "worker telemetry merged at join" `Quick
      test_pool_merges_telemetry;
  ]
