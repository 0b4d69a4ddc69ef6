(* long-sim: few designs, long runs, so the settle kernel does the
   work. The mix holds two testbed bugs at a long cycle budget, a
   seeded comb chain below the simulator's 4096-node lowering cap, the
   same chain above it, and a register ring with almost no comb logic.

   A round restores each design to cycle 0, runs it for its budget
   while serializing a checkpoint every [every] cycles (writes), then
   deserializes the checkpoints at the seeded window starts and
   replays each window with a waveform of every signal (reads). Rows,
   [$display] log and waveform must equal those of a brute-force
   reference run made before the timed rounds. *)

open Common
module Bits = Fpga_bits.Bits
module Bug = Fpga_testbed.Bug
module Registry = Fpga_testbed.Registry
module Elaborate = Fpga_sim.Elaborate
module Checkpoint = Fpga_sim.Checkpoint
module Vcd = Fpga_sim.Vcd
module L = Layers

let lowering_cap = 4096

type design = {
  name : string;
  flat : Elaborate.flat;
  sim : Simulator.t;
  ck0 : Checkpoint.t;  (* cycle-0 state every round starts from *)
  stim : int -> (string * Bits.t) list;
  sample : Simulator.t -> string option;  (* output row of this cycle *)
  cycles : int;
  every : int;  (* checkpoint interval *)
  window : int;  (* replayed cycles per window *)
  starts : int list;  (* seeded window start cycles *)
  mutable expect_run : string;  (* reference digests *)
  mutable expect_windows : string list;
}

(* A chain of [stages] 16-bit wires, each an add, xor or rotate of the
   previous one, closed through a register. Every input change ripples
   through the whole chain, so no settle can skip a stage. The seed
   picks the constants only: the operator pattern, and so the cost of a
   cycle, is the same for every seed. *)
let chain_src rng stages =
  let b = Buffer.create (stages * 40) in
  let p fmt = Printf.bprintf b fmt in
  p "module chain (input clk, input [15:0] d, output [15:0] q);\n";
  p "  reg [15:0] acc;\n";
  for i = 0 to stages - 1 do p "  wire [15:0] w%d;\n" i done;
  p "  assign w0 = d ^ acc;\n";
  for i = 1 to stages - 1 do
    let k = Random.State.int rng 65536 in
    match i mod 3 with
    | 0 -> p "  assign w%d = w%d + 16'd%d;\n" i (i - 1) k
    | 1 -> p "  assign w%d = w%d ^ 16'd%d;\n" i (i - 1) k
    | _ -> p "  assign w%d = {w%d[14:0], w%d[15]};\n" i (i - 1) (i - 1)
  done;
  let last = stages - 1 in
  p "  assign q = w%d;\n" last;
  p "  always @(posedge clk) begin\n    acc <= w%d;\n" last;
  p "    if (w%d[7:0] == 8'd%d) $display(\"chain %%d\", w%d);\n" last
    (Random.State.int rng 256) last;
  p "  end\nendmodule\n";
  Buffer.contents b

(* A ring of [regs] 8-bit registers rewritten every cycle by one
   always block: sequential-edge work with a one-node comb plan. As in
   the chain, the seed picks the constants only. *)
let ring_src rng regs =
  let b = Buffer.create (regs * 40) in
  let p fmt = Printf.bprintf b fmt in
  p "module ring (input clk, input [7:0] d, output [7:0] q);\n";
  for i = 1 to regs do p "  reg [7:0] r%d;\n" i done;
  p "  assign q = r%d;\n  always @(posedge clk) begin\n" regs;
  p "    r1 <= r%d + d;\n" regs;
  for i = 2 to regs do
    p "    r%d <= r%d %s 8'd%d;\n" i (i - 1)
      (if i mod 2 = 0 then "+" else "^")
      (Random.State.int rng 256)
  done;
  p "    if (r%d == 8'd%d) $display(\"ring %%d\", r1);\n" regs
    (Random.State.int rng 256);
  p "  end\nendmodule\n";
  Buffer.contents b

let make ~rng ~name ~top ~src ~stim ~sample ~cycles ~every ~window ~windows =
  let flat = L.span "sim.elaborate" (fun () -> Elaborate.elaborate (parse src) ~top) in
  let sim = L.span "sim.simulator.create" (fun () -> Simulator.create flat) in
  let checkpoints = (cycles / every) - 1 in
  let starts =
    List.init windows (fun _ -> every * (1 + Random.State.int rng checkpoints))
  in
  { name; flat; sim; ck0 = Simulator.save_checkpoint sim; stim; sample; cycles;
    every; window; starts; expect_run = ""; expect_windows = [] }

(* Seeded input values for the generated designs, one per cycle. *)
let input_stim rng ~width cycles =
  let values = Array.init cycles (fun _ -> Random.State.int rng (1 lsl width)) in
  fun i -> [ ("d", Bits.of_int ~width values.(i)) ]

let output_row sim = Some (string_of_int (Simulator.read_int sim "q"))

let bug_design ~rng id ~cycles ~every ~window =
  let bug = Option.get (Registry.find id) in
  make ~rng ~name:id ~top:bug.top ~src:bug.buggy_src ~stim:bug.stimulus
    ~sample:(fun sim ->
      Option.map
        (fun row ->
          String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) row))
        (bug.sample sim))
    ~cycles ~every ~window ~windows:2

let generated ~rng ~name ~top ~src ~width ~cycles ~every ~window ~windows =
  make ~rng ~name ~top ~src ~stim:(input_stim rng ~width cycles) ~sample:output_row
    ~cycles ~every ~window ~windows

let setup ~seed =
  let rng = Random.State.make [| seed |] in
  [
    bug_design ~rng "D2" ~cycles:40_000 ~every:5_000 ~window:200;
    bug_design ~rng "D4" ~cycles:40_000 ~every:5_000 ~window:200;
    generated ~rng ~name:"ring-128" ~top:"ring" ~src:(ring_src rng 128) ~width:8
      ~cycles:20_000 ~every:2_000 ~window:50 ~windows:5;
    generated ~rng ~name:"chain-1000" ~top:"chain" ~src:(chain_src rng 999)
      ~width:16 ~cycles:1_200 ~every:200 ~window:2 ~windows:1;
    generated ~rng ~name:"chain-4100" ~top:"chain" ~src:(chain_src rng 4099)
      ~width:16 ~cycles:120 ~every:20 ~window:1 ~windows:1;
  ]

let apply_inputs d sim i = List.iter (fun (n, v) -> Simulator.set_input sim n v) (d.stim i)

let add_row d rows sim i =
  match d.sample sim with Some r -> Printf.bprintf rows "%d:%s\n" i r | None -> ()

(* The brute-force reference: one straight run per design, dumping each
   window's waveform as a replay from its start cycle would. *)
let reference d =
  let sim = Simulator.create ~kernel:Simulator.Brute_force d.flat in
  let rows = Buffer.create 4096 in
  let windows =
    List.map (fun c -> (c, Vcd.create d.flat, Buffer.create 256, ref "")) d.starts
  in
  for i = 0 to d.cycles - 1 do
    apply_inputs d sim i;
    Simulator.step sim;
    add_row d rows sim i;
    List.iter
      (fun (c, vcd, wrows, digest) ->
        if i >= c && i < c + d.window then (
          Vcd.sample vcd sim;
          add_row d wrows sim i;
          if i = c + d.window - 1 then
            digest :=
              md5
                (Vcd.contents vcd ^ Buffer.contents wrows
                ^ log_text (Simulator.log sim))))
      windows
  done;
  d.expect_run <- md5 (Buffer.contents rows ^ log_text (Simulator.log sim));
  d.expect_windows <- List.map (fun (_, _, _, digest) -> !digest) windows

let prepare designs =
  List.iter reference designs;
  List.iter
    (fun d ->
      Printf.printf "long-sim design %s: %d comb nodes, auto kernel %s\n" d.name
        (plan_nodes d.flat)
        (Simulator.kernel_name (Simulator.kernel d.sim)))
    designs;
  let nodes name = plan_nodes (List.find (fun d -> d.name = name) designs).flat in
  check "chain designs straddle the lowering cap"
    (nodes "chain-1000" <= lowering_cap && nodes "chain-4100" > lowering_cap)

(* The long run: stepping time excludes the checkpoint writes. *)
let long_run d =
  L.span "sim.checkpoint" (fun () -> Simulator.restore_checkpoint d.sim d.ck0);
  let before = snapshot d.sim in
  let rows = Buffer.create 4096 in
  let checkpoints = Hashtbl.create 16 in
  let step_s = ref 0.0 in
  let i = ref 0 in
  while !i < d.cycles do
    let stop = min d.cycles (!i + d.every) in
    let t0 = now () in
    L.span "sim.simulator.step" (fun () ->
        while !i < stop do
          apply_inputs d d.sim !i;
          Simulator.step d.sim;
          add_row d rows d.sim !i;
          incr i
        done);
    step_s := !step_s +. (now () -. t0);
    if stop < d.cycles then (
      let text =
        L.span "sim.checkpoint" (fun () ->
            Checkpoint.to_string (Simulator.save_checkpoint ~tag:d.name d.sim))
      in
      count "sim.checkpoint.bytes" (String.length text);
      Hashtbl.replace checkpoints stop text)
  done;
  account ~before d.sim;
  (md5 (Buffer.contents rows ^ log_text (Simulator.log d.sim)), !step_s, checkpoints)

let replay d text start =
  L.span "sim.checkpoint" (fun () ->
      Simulator.restore_checkpoint d.sim (Checkpoint.of_string text));
  let before = snapshot d.sim in
  let vcd = L.span "sim.vcd" (fun () -> Vcd.create d.flat) in
  let rows = Buffer.create 256 in
  for i = start to start + d.window - 1 do
    apply_inputs d d.sim i;
    L.span "sim.simulator.step" (fun () -> Simulator.step d.sim);
    L.span "sim.vcd" (fun () -> Vcd.sample vcd d.sim);
    add_row d rows d.sim i
  done;
  let text = L.span "sim.vcd" (fun () -> Vcd.contents vcd) in
  account ~before d.sim;
  count "sim.vcd.bytes" (String.length text);
  (text, Buffer.contents rows)

let round designs ~traced:_ =
  let lat = ref [] and failed = ref 0 and ops = ref 0 in
  let cycles = ref 0 and step_s = ref 0.0 in
  let out = Buffer.create 1024 in
  let expect what c =
    incr ops;
    if not (check what c) then incr failed
  in
  List.iter
    (fun d ->
      let digest, secs, checkpoints =
        Fpga_telemetry.Telemetry.Trace.with_span ~cat:"op" ("run:" ^ d.name)
          (fun () -> long_run d)
      in
      cycles := !cycles + d.cycles;
      step_s := !step_s +. secs;
      expect (d.name ^ ": long run equals the brute-force reference")
        (digest = d.expect_run);
      Buffer.add_string out digest;
      List.iter2
        (fun start expected ->
          let t0 = now () in
          let vcd, rows =
            Fpga_telemetry.Telemetry.Trace.with_span ~cat:"op"
              (Printf.sprintf "replay:%s@%d" d.name start)
              (fun () -> replay d (Hashtbl.find checkpoints start) start)
          in
          lat := ((now () -. t0) *. 1e3) :: !lat;
          let digest = md5 (vcd ^ rows ^ log_text (Simulator.log d.sim)) in
          expect (Printf.sprintf "%s: window at %d equals the reference" d.name start)
            (digest = expected);
          Buffer.add_string out digest)
        d.starts d.expect_windows)
    designs;
  {
    ops = !ops;
    latencies_ms = List.rev !lat;
    work = float_of_int !cycles;
    work_s = !step_s;
    failed = !failed;
    digest = md5 (Buffer.contents out);
    pool_overhead_s = 0.0;
  }
