(* Per-layer accounting for the traced run.

   The benchmark wraps every call it makes into a layer's public
   function in a trace span named after the layer ([span]). Calls that
   happen inside a library function the benchmark cannot see into are
   attributed through the spans the library already emits ("compile"
   inside [Simulator.create], "checkpoint.*", "replay.*", "fuzz.*").
   [fold] turns a captured trace segment into self time and call counts
   per layer; time that no layer span covers is the unattributed
   remainder [main.ml] reports. *)

module Trace = Fpga_telemetry.Telemetry.Trace

let names =
  [
    "hdl.parser"; "hdl.pp_verilog"; "sim.elaborate"; "sim.simulator.create";
    "sim.simulator.step"; "sim.vcd"; "sim.checkpoint"; "testbed.bug.run_design";
    "testbed.replay"; "testbed.recipe"; "core.losscheck"; "fuzz.generate";
    "fuzz.validate"; "fuzz.classify";
  ]

let span name f = Trace.with_span ~cat:"layer" name f

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* The layer a span's self time belongs to. The library's validity gate
   re-parses through one span that also covers pretty-printing, so on
   the fuzz workload [hdl.parser] includes the printer. *)
let layer_of_span name =
  if List.mem name names then Some name
  else
    match name with
    | "compile" | "fuzz.validate.cycle_check" -> Some "sim.simulator.create"
    | "fuzz.validate.reparse" -> Some "hdl.parser"
    | "fuzz.validate.elaborate" -> Some "sim.elaborate"
    | "fuzz.differential" | "fuzz.minimize" -> Some "fuzz.classify"
    | _ when has_prefix "fuzz.validate" name -> Some "fuzz.validate"
    | _ when has_prefix "checkpoint." name -> Some "sim.checkpoint"
    | _ when has_prefix "replay." name -> Some "testbed.replay"
    | _ -> None

type frame = {
  f_layer : string option;
  f_owner : string option;  (* nearest enclosing layer, this span included *)
  f_start : int;
  mutable f_child : int;
}

type t = {
  self_us : (string, int) Hashtbl.t;
  calls : (string, int) Hashtbl.t;
  spans : (string, int) Hashtbl.t;  (* raw span name -> occurrences *)
}

let create () =
  { self_us = Hashtbl.create 16; calls = Hashtbl.create 16; spans = Hashtbl.create 64 }

let bump tbl k n =
  Hashtbl.replace tbl k (n + Option.value (Hashtbl.find_opt tbl k) ~default:0)

let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0

(* A span counts as a call into its layer when it is entered from
   outside that layer, so the library's "compile" span nested in the
   benchmark's own [sim.simulator.create] span is not counted twice. *)
let fold acc (seg : Trace.segment) =
  let stacks = Hashtbl.create 4 in
  List.iter
    (fun (ev : Trace.event) ->
      let stack =
        Option.value (Hashtbl.find_opt stacks ev.te_track) ~default:[]
      in
      match ev.te_ph with
      | 'B' ->
          let layer = layer_of_span ev.te_name in
          let outer = match stack with f :: _ -> f.f_owner | [] -> None in
          (match layer with
          | Some l when Some l <> outer -> bump acc.calls l 1
          | _ -> ());
          bump acc.spans ev.te_name 1;
          let owner = if layer = None then outer else layer in
          Hashtbl.replace stacks ev.te_track
            ({ f_layer = layer; f_owner = owner; f_start = ev.te_ts; f_child = 0 }
            :: stack)
      | 'E' -> (
          match stack with
          | f :: rest ->
              let dur = ev.te_ts - f.f_start in
              Option.iter (fun l -> bump acc.self_us l (dur - f.f_child)) f.f_layer;
              (match rest with p :: _ -> p.f_child <- p.f_child + dur | [] -> ());
              Hashtbl.replace stacks ev.te_track rest
          | [] -> ())
      | _ -> ())
    seg.sg_events

let self_s acc l = float_of_int (get acc.self_us l) *. 1e-6
let calls acc l = get acc.calls l
let span_count acc name = get acc.spans name
let attributed_s acc = List.fold_left (fun s l -> s +. self_s acc l) 0.0 names

(* The parts of a fold that are exact: calls per layer and occurrences
   of every span name. *)
let exact acc =
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) tbl []) in
  (sorted acc.calls, sorted acc.spans)
