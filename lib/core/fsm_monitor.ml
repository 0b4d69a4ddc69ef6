(* FSM Monitor (section 4.2): detects FSM state variables statically and
   instruments the design to emit a state-transition trace through
   SignalCat. Developers can patch detection mistakes by forcing
   variables in ([extra]) or out ([exclude]). *)

module Ast = Fpga_hdl.Ast
module Bits = Fpga_bits.Bits
module Fsm_detect = Fpga_analysis.Fsm_detect
module Telemetry = Fpga_telemetry.Telemetry

type t = { module_name : string; fsms : Fsm_detect.fsm list }

type transition = {
  cycle : int;
  state_var : string;
  from_value : int;
  to_value : int;
  from_name : string;
  to_name : string;
}

let tag = "FSM"

let plan ?(extra = []) ?(exclude = []) (m : Ast.module_def) : t =
  let detected = Fsm_detect.detect m in
  let detected =
    List.filter
      (fun (f : Fsm_detect.fsm) -> not (List.mem f.Fsm_detect.state_var exclude))
      detected
  in
  let forced =
    List.filter_map
      (fun name ->
        if
          List.exists
            (fun (f : Fsm_detect.fsm) -> f.Fsm_detect.state_var = name)
            detected
        then None
        else
          match Ast.find_decl m name with
          | Some d ->
              Some
                {
                  Fsm_detect.state_var = name;
                  width = d.Ast.width;
                  states = [];
                  state_names =
                    List.filter_map
                      (fun (pname, v) ->
                        if Bits.width v = d.Ast.width then Some (v, pname)
                        else None)
                      m.Ast.localparams;
                }
          | None -> None)
      extra
  in
  { module_name = m.Ast.mod_name; fsms = detected @ forced }

let prev_name fsm =
  "_fsmmon_prev_" ^ Instrument.sanitize fsm.Fsm_detect.state_var

(* One shadow register per FSM plus a $display on every transition; the
   display then follows the SignalCat path in either execution mode. *)
let instrument (t : t) (m : Ast.module_def) : Ast.module_def =
  if t.fsms = [] then m
  else (
    let clk = Instrument.find_clock m in
    let decls =
      List.map
        (fun (f : Fsm_detect.fsm) ->
          {
            Ast.name = prev_name f;
            kind = Ast.Reg;
            width = f.Fsm_detect.width;
            depth = None;
            init = None;
          })
        t.fsms
    in
    let stmts =
      List.concat_map
        (fun (f : Fsm_detect.fsm) ->
          let sv = Ast.Ident f.Fsm_detect.state_var in
          let prev = Ast.Ident (prev_name f) in
          [
            Ast.Nonblocking (Ast.Lident (prev_name f), sv);
            Ast.If
              ( Ast.Binop (Ast.Neq, prev, sv),
                [
                  Ast.Display
                    ( Printf.sprintf "[%s] %s: %%d -> %%d" tag
                        f.Fsm_detect.state_var,
                      [ prev; sv ] );
                ],
                [] );
          ])
        t.fsms
    in
    Instrument.add_logic m ~decls
      ~always:[ { Ast.sens = Ast.Posedge clk; stmts } ])

(* Rebuild the transition trace from the unified log. The [decode_]
   variant is the pure parser shared by every consumer; the public
   {!transitions} additionally counts the decoded transitions in
   ["fsm_monitor.transitions"] (exactly once per call, never from the
   internal uses in {!final_states}). *)
let decode_transitions (t : t) (log : (int * string) list) : transition list =
  Instrument.tagged_lines tag log
  |> List.filter_map (fun (cycle, payload) ->
         match String.index_opt payload ':' with
         | None -> None
         | Some i -> (
             let state_var = String.sub payload 0 i in
             let rest =
               String.sub payload (i + 2) (String.length payload - i - 2)
             in
             match String.split_on_char ' ' rest with
             | [ a; "->"; b ] -> (
                 match
                   ( int_of_string_opt a,
                     int_of_string_opt b,
                     List.find_opt
                       (fun (f : Fsm_detect.fsm) ->
                         f.Fsm_detect.state_var = state_var)
                       t.fsms )
                 with
                 | Some from_value, Some to_value, Some f ->
                     let name v =
                       Fsm_detect.state_name f
                         (Bits.of_int ~width:f.Fsm_detect.width v)
                     in
                     Some
                       {
                         cycle;
                         state_var;
                         from_value;
                         to_value;
                         from_name = name from_value;
                         to_name = name to_value;
                       }
                 | _ -> None)
             | _ -> None))

let transitions_counter = Telemetry.Counter.make "fsm_monitor.transitions"

let transitions (t : t) (log : (int * string) list) : transition list =
  let trans = decode_transitions t log in
  if trans <> [] then
    Telemetry.Counter.bump transitions_counter (List.length trans);
  trans

(* The last observed state of every monitored FSM: the "where is each
   state machine stuck" question of the grayscale case study. *)
let final_states (t : t) (log : (int * string) list) : (string * string) list =
  let trans = decode_transitions t log in
  List.filter_map
    (fun (f : Fsm_detect.fsm) ->
      let mine =
        List.filter (fun tr -> tr.state_var = f.Fsm_detect.state_var) trans
      in
      match List.rev mine with
      | [] -> None
      | last :: _ -> Some (f.Fsm_detect.state_var, last.to_name))
    t.fsms

let transition_to_string tr =
  Printf.sprintf "cycle %d: %s %s -> %s" tr.cycle tr.state_var tr.from_name
    tr.to_name
