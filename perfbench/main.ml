(* The layered end-to-end benchmark.

     main.exe --workload triage|long-sim|fuzz --seed N --seconds S --trace 0|1

   Set-up runs [setup_reps] times, then once more after every untraced
   round, so that its median samples the host over the whole run as
   the rounds do. One untimed warm-up round follows the first set-ups,
   then whole rounds until [--seconds] have passed. With [--trace 1]
   the time is split: the first half measures untraced rounds, the
   second half traced ones, and the run prints the per-layer table
   instead of the end-to-end metrics. Every output
   check that fails counts against [failed] and makes the exit code 1.
   The last line of stdout is the JSON result. *)

module Trace = Fpga_telemetry.Telemetry.Trace
module Trace_export = Fpga_telemetry.Trace_export

let setup_reps = 5

(* A workload's set-up returns its untimed reference check and its
   round, both closed over the set-up state. *)
let workloads =
  let w setup prepare round ~seed =
    let st = setup ~seed in
    ((fun () -> prepare st), round st)
  in
  [
    ("triage", w Triage.setup Triage.prepare Triage.round);
    ("long-sim", w Long_sim.setup Long_sim.prepare Long_sim.round);
    ("fuzz", w Fuzz_load.setup Fuzz_load.prepare Fuzz_load.round);
  ]

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Linear interpolation between closest ranks. *)
let quantile q l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(* A fixed pure-OCaml loop, timed in the same run so that figures from
   different machines can be normalized (median of three). *)
let calibration_s () =
  let once () =
    let t0 = Common.now () in
    let acc = ref 0 in
    for i = 1 to 20_000_000 do
      acc := (!acc * 1103515245) + i land 0x3fffffff
    done;
    ignore (Sys.opaque_identity !acc);
    Common.now () -. t0
  in
  median [ once (); once (); once () ]

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
          metrics))

let sorted_counts () =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) Common.counts [])

type measured = {
  rounds : Common.round list;
  walls : float list;  (* wall seconds per round *)
  counts : (string * int) list list;  (* per round *)
  gc_minor_mwords : float list;
  gc_major : float list;
}

(* Whole rounds until [budget] seconds have passed (at least one). *)
let measure ~budget ~traced ~(round : traced:bool -> Common.round) ~on_round =
  let rounds = ref [] and walls = ref [] and counts = ref [] in
  let minor = ref [] and major = ref [] in
  let t_end = Common.now () +. budget in
  let continue = ref true in
  while !continue do
    Hashtbl.reset Common.counts;
    let g0 = Gc.quick_stat () in
    let t0 = Common.now () in
    let r = round ~traced in
    let wall = Common.now () -. t0 in
    let g1 = Gc.quick_stat () in
    on_round ();
    rounds := r :: !rounds;
    walls := wall :: !walls;
    counts := sorted_counts () :: !counts;
    minor := ((g1.minor_words -. g0.minor_words) /. 1e6) :: !minor;
    major := float_of_int (g1.major_collections - g0.major_collections) :: !major;
    continue := Common.now () < t_end
  done;
  { rounds = List.rev !rounds; walls = List.rev !walls; counts = List.rev !counts;
    gc_minor_mwords = !minor; gc_major = !major }

let sum f l = List.fold_left (fun s x -> s +. f x) 0.0 l
let mean l = if l = [] then 0.0 else sum Fun.id l /. float_of_int (List.length l)

(* Latency percentiles are taken per round and the median over rounds
   is reported. A triage round holds one session per bug, so pooled
   percentiles would sit exactly on the gap between two bugs' latency
   clusters (10 of 20 below the median, 19 of 20 below the 95th) and
   swing with the tail noise of either. *)
let end_to_end ~setup_s (m : measured) =
  let per_round q =
    median (List.map (fun (r : Common.round) -> quantile q r.latencies_ms) m.rounds)
  in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  [
    ( "throughput_per_s",
      median (List.map (fun (r : Common.round) -> r.work /. r.work_s) m.rounds),
      "1/s" );
    ("latency_ms_p50", per_round 0.5, "ms");
    ("latency_ms_p95", per_round 0.95, "ms");
    ("setup_s", setup_s, "s");
    ("peak_heap_mb", heap_mb, "MB");
  ]

let per_layer ~(untraced : measured) ~(traced : measured) (folds : Layers.t list) =
  let n = float_of_int (List.length folds) in
  let first = List.hd folds in
  let counts = List.hd traced.counts in
  let c name = float_of_int (Option.value (List.assoc_opt name counts) ~default:0) in
  let share a b = if b > 0.0 then a /. b else 0.0 in
  let traced_s = sum Fun.id traced.walls in
  let attributed = sum Layers.attributed_s folds in
  let layers =
    List.concat_map
      (fun l ->
        [
          (l ^ ".self_s", sum (fun f -> Layers.self_s f l) folds /. n, "s");
          (l ^ ".calls", float_of_int (Layers.calls first l), "count");
        ])
      Layers.names
  in
  let outcomes =
    List.map
      (fun o -> ("fuzz.outcome." ^ o, c ("fuzz.outcome." ^ o), "count"))
      [ "invalid"; "equivalent"; "symptom-divergent"; "kernel-mismatch" ]
  in
  let generated = sum (fun (_, v, _) -> v) outcomes in
  let exact =
    List.map
      (fun (name, unit) -> (name, c name, unit))
      [
        ("hdl.parser.bytes", "bytes"); ("sim.simulator.create.nodes", "count");
        ("sim.simulator.step.cycles", "count");
        ("sim.kernel.lowered-dirty.cycles", "count");
        ("sim.kernel.event.cycles", "count"); ("sim.kernel.brute.cycles", "count");
      ]
  in
  let span_count name = float_of_int (Layers.span_count first name) in
  layers @ exact
  @ [
      ( "sim.lowered.skip_share",
        share (c "sim.lowered.closures_skipped")
          (c "sim.lowered.closures_run" +. c "sim.lowered.closures_skipped"),
        "ratio" );
      ("sim.vcd.bytes", c "sim.vcd.bytes", "bytes");
      ("sim.checkpoint.saves", span_count "checkpoint.save", "count");
      ("sim.checkpoint.restores", span_count "checkpoint.restore", "count");
      ("sim.checkpoint.bytes", c "sim.checkpoint.bytes", "bytes");
      ("testbed.replay.probes", c "testbed.replay.probes", "count");
      ("testbed.replay.resim_cycles", c "testbed.replay.resim_cycles", "count");
      ( "fuzz.valid_share",
        share (generated -. c "fuzz.outcome.invalid") generated,
        "ratio" );
    ]
  @ outcomes
  @ [
      ( "campaign.pool.overhead_s",
        mean (List.map (fun (r : Common.round) -> r.pool_overhead_s) untraced.rounds),
        "s" );
      ("gc.minor_mwords", mean untraced.gc_minor_mwords, "Mwords");
      ("gc.major_collections", mean untraced.gc_major, "count");
      ( "trace.overhead_pct",
        100.0 *. ((mean traced.walls /. mean untraced.walls) -. 1.0),
        "%" );
      ("unattributed_share", share (traced_s -. attributed) traced_s, "ratio");
    ]

let all_equal = function [] -> true | x :: rest -> List.for_all (( = ) x) rest

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME triage | long-sim | fuzz");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let setup =
    match List.assoc_opt !workload workloads with
    | Some setup -> setup
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  let traced_run = !trace = 1 in
  Trace.set_clock Unix.gettimeofday;
  Printf.printf "context: nproc=%d ocaml=%s calibration_s=%.6f\n%!"
    (Domain.recommended_domain_count ()) Sys.ocaml_version (calibration_s ());
  (* checks outside the rounds: the reference, the warm-up round, output
     identity across rounds, exact counts, the exported trace *)
  let global = ref 0 and global_failed = ref 0 in
  let expect what ok =
    incr global;
    if not (Common.check what ok) then incr global_failed
  in
  let setups = ref [] in
  let timed_setup () =
    Gc.compact ();
    let t0 = Common.now () in
    let st = setup ~seed:!seed in
    setups := (Common.now () -. t0) :: !setups;
    st
  in
  for _ = 2 to setup_reps do ignore (timed_setup ()) done;
  let prepare, round = timed_setup () in
  expect "reference check" (prepare ());
  let warm = round ~traced:false in
  let budget = float_of_int !seconds /. if traced_run then 2.0 else 1.0 in
  let untraced =
    measure ~budget ~traced:false ~round ~on_round:(fun () -> ignore (timed_setup ()))
  in
  let traced, folds =
    if not traced_run then (None, [])
    else (
      Trace.enable ~clock:Trace.Wall ~cap:4_000_000 ();
      let folds = ref [] and mark = ref (Trace.mark ()) in
      let on_round () =
        let seg = Trace.capture_since ~consume:true !mark in
        if !folds = [] then (
          let json = Trace_export.to_json ~clock:Trace.Wall ~main:seg ~jobs:[] () in
          (try
             if not (Sys.file_exists "perfbench/out") then Sys.mkdir "perfbench/out" 0o755;
             Out_channel.with_open_bin
               (Printf.sprintf "perfbench/out/trace-%s.json" !workload)
               (fun oc -> output_string oc json)
           with Sys_error e -> prerr_endline ("trace not written: " ^ e));
          expect "exported trace validates"
            (match Trace_export.validate json with
            | Ok _ -> true
            | Error e -> Common.check e false));
        let acc = Layers.create () in
        Layers.fold acc seg;
        folds := acc :: !folds;
        mark := Trace.mark ()
      in
      let m = measure ~budget ~traced:true ~round ~on_round in
      expect "no trace events dropped" (Trace.dropped () = 0);
      Trace.disable ();
      (Some m, List.rev !folds))
  in
  let all =
    (warm :: untraced.rounds)
    @ Option.fold ~none:[] ~some:(fun m -> m.rounds) traced
  in
  expect "every round (traced or not) produces identical outputs"
    (all_equal (List.map (fun (r : Common.round) -> r.digest) all));
  expect "simulated statistics repeat exactly in every round"
    (all_equal untraced.counts
    && Option.fold ~none:true ~some:(fun m -> all_equal m.counts) traced);
  expect "per-layer calls and library spans repeat exactly in every traced round"
    (all_equal (List.map Layers.exact folds));
  let total f = List.fold_left (fun s (r : Common.round) -> s + f r) 0 all in
  let attempted = !global + total (fun r -> r.ops) in
  let failed = !global_failed + total (fun r -> r.failed) in
  let setup_s = median !setups in
  let metrics =
    match traced with
    | None -> end_to_end ~setup_s untraced
    | Some t -> per_layer ~untraced ~traced:t folds
  in
  Printf.printf "%s: %d untraced and %d traced rounds, fail_share=%g\n"
    !workload (List.length untraced.rounds) (List.length folds)
    (float_of_int failed /. float_of_int attempted);
  print_endline (result_json ~correct:(failed = 0) ~attempted ~failed metrics);
  exit (if failed = 0 then 0 else 1)
