(* Pieces shared by the workloads: the clock, output checks, exact
   counts and the result of one round. *)

module Simulator = Fpga_sim.Simulator

let now = Unix.gettimeofday

(* A failed output check is reported on stderr; the caller counts it
   as a failed operation. *)
let check what ok =
  if not ok then prerr_endline ("check failed: " ^ what);
  ok

(* Exact simulated statistics of the current round: cycles per kernel,
   bytes written, closures run and skipped, mutant outcomes. They are
   pure functions of the seed, so every round of a run must report the
   same values. *)
let counts : (string, int) Hashtbl.t = Hashtbl.create 32

let count name n = Layers.bump counts name n

(* Cycles and lowered-kernel closure counts of a simulator the benchmark
   drove itself, as deltas from [before] (a [snapshot] taken earlier). *)
type snapshot = { s_cycle : int; s_run : int; s_skipped : int }

let snapshot sim =
  let run, skipped =
    match Simulator.lowered_run_stats sim with
    | Some rs -> (rs.Fpga_sim.Lowered.rs_closures_run, rs.rs_closures_skipped)
    | None -> (0, 0)
  in
  { s_cycle = Simulator.cycle sim; s_run = run; s_skipped = skipped }

let zero = { s_cycle = 0; s_run = 0; s_skipped = 0 }

let account ?(before = zero) sim =
  let after = snapshot sim in
  let cycles = after.s_cycle - before.s_cycle in
  count "sim.simulator.step.cycles" cycles;
  count
    ("sim.kernel." ^ Simulator.kernel_name (Simulator.kernel sim) ^ ".cycles")
    cycles;
  count "sim.lowered.closures_run" (after.s_run - before.s_run);
  count "sim.lowered.closures_skipped" (after.s_skipped - before.s_skipped)

let md5 s = Digest.to_hex (Digest.string s)

let log_text log =
  String.concat "\n" (List.map (fun (c, s) -> string_of_int c ^ " " ^ s) log)

let parse src =
  Layers.span "hdl.parser" (fun () ->
      count "hdl.parser.bytes" (String.length src);
      Fpga_hdl.Parser.parse_design src)

(* Comb plan size of a flattened design: the quantity the simulator's
   automatic kernel selection compares against its lowering cap. *)
let plan_nodes (flat : Fpga_sim.Elaborate.flat) =
  List.length flat.f_assigns + List.length flat.f_comb

type round = {
  ops : int;  (* operations attempted *)
  latencies_ms : float list;  (* one per latency-timed operation *)
  work : float;  (* throughput numerator: sessions, cycles or mutants *)
  work_s : float;  (* throughput denominator, seconds *)
  failed : int;  (* operations that failed an output check *)
  digest : string;  (* MD5 over every output the round produced *)
  pool_overhead_s : float;  (* campaign pool wall minus job walls *)
}

(* Seeded Fisher-Yates shuffle. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a
