(* triage: the paper's push-button debugging loop, repeated. One round
   is one session per Table 2 bug, in an order the seed permutes. A
   session reproduces the bug with a waveform and checks the settle
   kernel against the brute-force reference (one campaign of one bug on
   one domain), bisects the checkpoint stream to the first failing
   cycle, instruments the design with the debugging recipe and prints
   it, and, for the data-loss bugs, runs LossCheck.

   The traced run replaces the campaign call with [twin_verdicts], the
   same jobs composed from the layers' public functions so that each
   layer gets its own span; its verdicts must equal the campaign's. *)

open Common
module Bug = Fpga_testbed.Bug
module Registry = Fpga_testbed.Registry
module Replay = Fpga_testbed.Replay
module Recipe = Fpga_testbed.Recipe
module Campaign = Fpga_campaign.Campaign
module Losscheck = Fpga_debug.Losscheck
module Elaborate = Fpga_sim.Elaborate
module Vcd = Fpga_sim.Vcd
module Trace = Fpga_telemetry.Telemetry.Trace
module L = Layers

(* The first failing cycle [Replay.bisect] finds for each bug at its
   default checkpoint interval. *)
let pinned_first_failing =
  [
    ("D1", 15); ("D2", 31); ("D3", 7); ("D4", 31); ("D5", 14); ("D6", 4);
    ("D7", 5); ("D8", 3); ("D9", 5); ("D10", 28); ("D11", 20); ("D12", 9);
    ("D13", 12); ("C1", 5); ("C2", 12); ("C3", 4); ("C4", 15); ("S1", 4);
    ("S2", 6); ("S3", 5);
  ]

(* Set-up loads the testbed: every buggy and fixed design is parsed,
   elaborated and compiled once, which also proves the inputs valid. *)
let setup ~seed =
  List.iter
    (fun (bug : Bug.t) ->
      List.iter
        (fun src ->
          ignore (Simulator.create (Elaborate.elaborate (parse src) ~top:bug.top)))
        [ bug.buggy_src; bug.fixed_src ])
    Registry.all;
  shuffle (Random.State.make [| seed |]) Registry.all

(* The testbed the expectations below are written for: 20 bugs, 7 of
   them data-loss bugs, of which only D11 (the paper's false negative)
   has no loss root for LossCheck to find. *)
let prepare _ =
  let ids = List.map (fun (b : Bug.t) -> b.Bug.id) Registry.all in
  let rootless =
    List.filter (fun (b : Bug.t) -> b.Bug.loss_root = None) Registry.loss_bugs
  in
  check "testbed has the 20 pinned bugs"
    (List.sort compare ids = List.sort compare (List.map fst pinned_first_failing))
  && check "7 loss bugs, D11 the only one without a loss root"
       (List.length Registry.loss_bugs = 7
       && List.map (fun (b : Bug.t) -> b.Bug.id) rootless = [ "D11" ])

(* [Bug.run_design] without checkpoints, with a span per layer call. *)
let run_design ?(vcd = false) ?kernel (bug : Bug.t) design : Bug.report =
  L.span "testbed.bug.run_design" @@ fun () ->
  let flat = L.span "sim.elaborate" (fun () -> Elaborate.elaborate design ~top:bug.top) in
  let sim =
    L.span "sim.simulator.create" (fun () ->
        count "sim.simulator.create.nodes" (plan_nodes flat);
        match kernel with
        | Some kernel -> Simulator.create ~kernel flat
        | None -> Simulator.create flat)
  in
  let dump = if vcd then Some (L.span "sim.vcd" (fun () -> Vcd.create flat)) else None in
  let rows = ref [] and ext = ref false and satisfied = ref false in
  let i = ref 0 in
  while !i < bug.max_cycles && (not (Simulator.finished sim)) && not !satisfied do
    List.iter (fun (n, v) -> Simulator.set_input sim n v) (bug.stimulus !i);
    L.span "sim.simulator.step" (fun () -> Simulator.step sim);
    Option.iter (fun d -> L.span "sim.vcd" (fun () -> Vcd.sample d sim)) dump;
    (match bug.sample sim with Some row -> rows := (!i, row) :: !rows | None -> ());
    (match bug.ext_monitor with Some f when f sim -> ext := true | _ -> ());
    (match bug.done_when with Some c when c sim -> satisfied := true | _ -> ());
    incr i
  done;
  account sim;
  {
    Bug.stuck = (match bug.done_when with Some _ -> not !satisfied | None -> false);
    finished = Simulator.finished sim;
    rows = List.rev !rows;
    ext_error = !ext;
    log = Simulator.log sim;
    cycles = !i;
    vcd = Option.map (fun d -> L.span "sim.vcd" (fun () -> Vcd.contents d)) dump;
  }

(* The repro and differential jobs of [Campaign.jobs_of], field for
   field. *)
let twin_verdicts (bug : Bug.t) : Campaign.verdict list =
  let buggy = run_design ~vcd:true bug (parse bug.buggy_src) in
  let fixed = run_design bug (parse bug.fixed_src) in
  let repro =
    {
      Campaign.v_bug = bug.id;
      v_kind = "repro";
      v_cycles = buggy.cycles + fixed.cycles;
      v_ok = Bug.reproduces_of ~bug ~buggy ~fixed;
      v_detail =
        Printf.sprintf "%d rows buggy, %d rows fixed" (List.length buggy.rows)
          (List.length fixed.rows);
      v_symptoms =
        List.map Fpga_study.Taxonomy.symptom_name (Bug.symptoms_of ~buggy ~fixed);
      v_log = buggy.log;
      v_vcd = buggy.vcd;
    }
  in
  let design = parse bug.buggy_src in
  let pr = run_design ~kernel:Simulator.Event_driven bug design in
  let bf = run_design ~kernel:Simulator.Brute_force bug design in
  let agree =
    pr.log = bf.log && pr.rows = bf.rows && pr.stuck = bf.stuck
    && pr.finished = bf.finished && pr.cycles = bf.cycles
  in
  let differential =
    {
      repro with
      v_kind = "differential";
      v_cycles = pr.cycles + bf.cycles;
      v_ok = agree;
      v_detail =
        (if agree then "kernels agree" else "event and brute-force kernels diverge");
      v_symptoms = [];
      v_log = pr.log;
      v_vcd = None;
    }
  in
  [ repro; differential ]

let campaign_verdicts (bug : Bug.t) =
  let c = Campaign.run ~domains:1 ~differential:true [ bug ] in
  let verdicts =
    Array.to_list c.c_results
    |> List.map (fun (r : Campaign.verdict Campaign.job_result) ->
           match r.jr_value with
           | Ok v -> v
           | Error e ->
               { Campaign.v_bug = bug.id; v_kind = r.jr_label; v_cycles = 0;
                 v_ok = false; v_detail = e; v_symptoms = []; v_log = [];
                 v_vcd = None })
  in
  let jobs_s =
    Array.fold_left (fun s (r : _ Campaign.job_result) -> s +. r.jr_wall) 0.0
      c.c_results
  in
  (verdicts, c.c_stats.ps_wall -. jobs_s)

(* One session; returns whether every check held, the digest of its
   outputs and the campaign pool's overhead. *)
let session ~traced (bug : Bug.t) =
  let out = Buffer.create 512 in
  let ok = ref true in
  let expect what c = if not (check (bug.id ^ ": " ^ what) c) then ok := false in
  let verdicts, pool_overhead =
    if traced then (twin_verdicts bug, 0.0) else campaign_verdicts bug
  in
  List.iter
    (fun (v : Campaign.verdict) ->
      expect v.v_kind v.v_ok;
      Option.iter (fun s -> count "sim.vcd.bytes" (String.length s)) v.v_vcd;
      Printf.bprintf out "%s %s %d %b %s [%s] log=%s vcd=%s\n" v.v_bug v.v_kind
        v.v_cycles v.v_ok v.v_detail (String.concat "," v.v_symptoms)
        (md5 (log_text v.v_log))
        (match v.v_vcd with Some s -> md5 s | None -> "-"))
    verdicts;
  let bi = L.span "testbed.replay" (fun () -> Replay.bisect bug) in
  expect "bisect first failing cycle"
    (bi.bi_first_failing = List.assoc_opt bug.id pinned_first_failing);
  count "testbed.replay.probes" bi.bi_probes;
  count "testbed.replay.resim_cycles" bi.bi_replayed_cycles;
  Printf.bprintf out "bisect %s %d %d\n"
    (match bi.bi_first_failing with Some c -> string_of_int c | None -> "-")
    bi.bi_probes bi.bi_replayed_cycles;
  let inst = L.span "testbed.recipe" (fun () -> Recipe.apply bug) in
  let text =
    L.span "hdl.pp_verilog" (fun () ->
        Fpga_hdl.Pp_verilog.module_to_string inst.Recipe.on_fpga)
  in
  Printf.bprintf out "recipe %s\n" (md5 text);
  (match bug.loss_spec with
  | None -> ()
  | Some spec ->
      let design = parse bug.buggy_src in
      let r =
        L.span "core.losscheck" (fun () ->
            Losscheck.localize ~ground_truth:bug.ground_truth
              ~max_cycles:bug.max_cycles ~top:bug.top ~spec ~stimulus:bug.stimulus
              design)
      in
      expect "losscheck localizes the loss root"
        (match bug.loss_root with
        | Some root -> List.mem root r.reported
        | None -> r.reported = []);
      Printf.bprintf out "losscheck [%s]\n" (String.concat "," r.reported));
  (!ok, Buffer.contents out, pool_overhead)

let round order ~traced =
  let out = Buffer.create 8192 in
  let lat = ref [] and failed = ref 0 and pool = ref 0.0 in
  let t0 = now () in
  List.iter
    (fun (bug : Bug.t) ->
      let s0 = now () in
      let ok, digest, overhead =
        Trace.with_span ~cat:"op" ("session:" ^ bug.id) (fun () ->
            session ~traced bug)
      in
      lat := ((now () -. s0) *. 1e3) :: !lat;
      if not ok then incr failed;
      pool := !pool +. overhead;
      Buffer.add_string out digest)
    order;
  {
    ops = List.length order;
    latencies_ms = List.rev !lat;
    work = float_of_int (List.length order);
    work_s = now () -. t0;
    failed = !failed;
    digest = md5 (Buffer.contents out);
    pool_overhead_s = !pool;
  }
