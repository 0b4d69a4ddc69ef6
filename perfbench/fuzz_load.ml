(* fuzz: the differential fuzzing campaign on one domain with the
   command line's default kernel. One round is the first [mutants]
   mutants of the seed; every round repeats them, so the campaign's
   report must not change between rounds.

   The traced run composes each mutant from [Fuzz.generate] and
   [Fuzz.classify] (what [Fuzz.run_one] does when no kernel mismatch
   needs minimizing) and must reproduce the campaign report byte for
   byte. *)

open Common
module Bug = Fpga_testbed.Bug
module Fuzz = Fpga_fuzz.Fuzz
module Campaign = Fpga_campaign.Campaign
module Telemetry = Fpga_telemetry.Telemetry
module L = Layers

let mutants = 1200

(* Set-up loads the base designs the mutants are made from. *)
let setup ~seed =
  List.iter
    (fun (bug : Bug.t) ->
      ignore
        (Simulator.create
           (Fpga_sim.Elaborate.elaborate (Bug.design_of bug ~buggy:false)
              ~top:bug.top)))
    Fuzz.targets;
  seed

let prepare _ = true

let twin ~seed ~index : Fuzz.result Campaign.job_result =
  let t0 = now () in
  let result =
    Telemetry.Trace.with_span ~cat:"op" (Printf.sprintf "mutant:%d" index)
    @@ fun () ->
    let bug, mutant, muts =
      L.span "fuzz.generate" (fun () -> Fuzz.generate ~seed ~index)
    in
    let base = parse bug.Bug.fixed_src in
    let outcome = L.span "fuzz.classify" (fun () -> Fuzz.classify bug ~base mutant) in
    {
      Fuzz.r_seed = seed;
      r_index = index;
      r_sub_seed = Fpga_fuzz.Mutate.derive seed index;
      r_bug = bug.id;
      r_mutations = muts;
      r_outcome = outcome;
      r_minimized = muts;
      r_repro = None;
    }
  in
  {
    Campaign.jr_id = index;
    jr_label = Printf.sprintf "fuzz:%d:%s" index result.r_bug;
    jr_wall = now () -. t0;
    jr_domain = 0;
    jr_value = Ok result;
    jr_trace = Telemetry.Trace.empty_segment;
  }

let run ~seed ~traced =
  if not traced then Campaign.run_fuzz ~domains:1 ~seed ~mutants ()
  else
    let t0 = now () in
    let results = Array.init mutants (fun index -> twin ~seed ~index) in
    let wall = now () -. t0 in
    {
      Campaign.f_seed = seed;
      f_kernel = Simulator.Event_driven;
      f_results = results;
      f_stats =
        { Campaign.ps_domains = 1; ps_jobs = mutants; ps_wall = wall;
          ps_busy = [| wall |]; ps_utilization = 1.0;
          ps_telemetry = Telemetry.empty_report };
    }

let round seed ~traced =
  let t0 = now () in
  let fc = run ~seed ~traced in
  let wall = now () -. t0 in
  let failed = ref 0 in
  Array.iter
    (fun (r : Fuzz.result Campaign.job_result) ->
      match r.jr_value with
      | Ok f ->
          count ("fuzz.outcome." ^ Fuzz.outcome_name f.r_outcome) 1;
          (match f.r_outcome with
          | Fuzz.Kernel_mismatch why ->
              ignore (check (Printf.sprintf "mutant %d: %s" r.jr_id why) false);
              incr failed
          | _ -> ())
      | Error e ->
          ignore (check (Printf.sprintf "mutant %d raised: %s" r.jr_id e) false);
          incr failed)
    fc.f_results;
  let jobs_s =
    Array.fold_left (fun s (r : _ Campaign.job_result) -> s +. r.jr_wall) 0.0
      fc.f_results
  in
  {
    ops = mutants;
    latencies_ms =
      Array.to_list
        (Array.map (fun (r : _ Campaign.job_result) -> r.jr_wall *. 1e3) fc.f_results);
    work = float_of_int mutants;
    work_s = wall;
    failed = !failed;
    digest = md5 (Campaign.fuzz_to_json fc);
    pool_overhead_s = (if traced then 0.0 else fc.f_stats.ps_wall -. jobs_s);
  }
