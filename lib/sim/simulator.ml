(* Cycle-accurate two-phase simulator over an elaborated design.

   Each [step] performs one clock cycle:
     1. settle combinational logic (continuous assigns and always-star blocks),
     2. execute sequential blocks against the settled pre-edge state,
        collecting non-blocking writes,
     3. step builtin IP primitives (FIFOs, RAMs),
     4. commit non-blocking writes and primitive outputs,
     5. settle combinational logic again so outputs reflect the new
        state; $display statements in combinational blocks fire once
        during this final settle.

   Combinational nodes are topologically ordered at construction;
   combinational cycles raise [Combinational_cycle]. All executable code
   is compiled at construction into the interned form of [Compiled]:
   signal references become dense integer ids and widths are
   pre-resolved, so the per-cycle hot path performs no string hashing
   or name resolution.

   Two kernels settle the plan. [Event_driven], the production kernel,
   hands the compiled plan to [Lowered]: fused closures over an unboxed
   int bank, scheduled by per-closure dirty bits fed from a sensitivity
   map, with an adaptive dense full-sweep mode for fully-active plans.
   [Brute_force] interprets the compiled plan in full on every settle;
   it is deliberately simple and serves as the oracle the differential
   tests, campaigns and the fuzzer hold the production kernel to. *)

module Ast = Fpga_hdl.Ast
module Bits = Fpga_bits.Bits
module Telemetry = Fpga_telemetry.Telemetry
open Elaborate

exception Combinational_cycle of string list

type kernel = Event_driven | Brute_force

let kernel_name = function Event_driven -> "event" | Brute_force -> "brute"

(* AST-level node, used only for dependency analysis (reads/writes are
   name sets); execution uses the compiled [Lowered.node] form. *)
type ast_node = Aassign of Ast.lvalue * Ast.expr | Ablock of Ast.stmt list

type fifo_state = {
  f_depth : int;
  f_width : int;
  f_data : Bits.t array;
  mutable f_head : int;
  mutable f_count : int;
}

type ram_state = { r_words : Bits.t array; mutable r_q : Bits.t }

(* IP instance with compiled port connections: inputs as pre-compiled
   reader closures (bound to whichever kernel's value banks are live),
   outputs as signal ids. *)
type cprim = {
  cp_src : fprim;
  cp_inputs : (string * (unit -> Bits.t)) list;
  cp_outputs : (string * int) list;
}

type prim_state =
  | Pfifo of cprim * fifo_state
  | Pram of cprim * ram_state

(* Kernel-profiling state that only telemetry needs, allocated at
   construction only when the telemetry switch (or tracing) is on;
   [None] keeps the hot paths at a single branch per settle/edge, with
   the per-node and per-write code untouched. Settles, plan rounds,
   evaluated closures and NBA commits are not here: both kernels count
   them unconditionally in the run-stats record [t.runs]. *)
type istats = {
  mutable s_steps : int;
  mutable s_dirty_total : int;  (* sum of dirty-set sizes at settle entry *)
  mutable s_dirty_peak : int;
  mutable s_prim_steps : int;
  mutable s_displays : int;
  s_toggles : int array;  (* per-signal change counts, by dense id *)
  s_settle_hist : Telemetry.Histogram.t;  (* nodes evaluated per settle *)
  mutable s_trace_mark : int;  (* [rs_closures_run] at the last sample *)
}

(* Cycles between two samples of the trace counter series. *)
let trace_sample_every = 32

(* The machinery behind a kernel: the production kernel's lowered
   closures, or the oracle's compiled plan and sequential blocks. *)
type engine =
  | Event of Lowered.t
  | Brute of {
      nodes : Lowered.node array;  (* topological order: writers before readers *)
      seq : (Elaborate.clock_edge * Compiled.cstmt list) list;
    }

type t = {
  flat : flat;
  env : Compiled.env;  (* signal values indexed by dense id *)
  engine : engine;
  runs : Lowered.run_stats;
      (* settle/closure/commit counts, kept by whichever kernel runs:
         fused closures under the event kernel, nodes (none skipped)
         under brute *)
  notify : int -> unit;  (* change callback: toggle counting or [ignore] *)
  prims : prim_state list;
  mutable cycle : int;
  finished : bool ref;  (* shared with the lowered kernel's $finish *)
  mutable log : (int * string) list;  (* newest first *)
  mutable log_len : int;
  mutable log_memo : int * (int * string) list;
      (* oldest-first view cached at a given length, so repeated [log]
         reads between new displays cost O(1) instead of re-reversing *)
  mutable display_hook : (int -> string -> unit) option;
  mutable step_hooks : (int -> unit) list;  (* registration order *)
  stats : istats option;
}

(* ------------------------------------------------------------------ *)
(* Combinational scheduling                                            *)
(* ------------------------------------------------------------------ *)

let node_reads = function
  | Aassign (l, e) -> Ast.dedup (Ast.expr_reads e @ Ast.lvalue_reads l)
  | Ablock stmts -> Ast.dedup (List.concat_map Ast.stmt_reads stmts)

let node_writes = function
  | Aassign (l, _) -> Ast.lvalue_bases l
  | Ablock stmts -> Ast.dedup (List.concat_map Ast.stmt_writes stmts)

let topo_sort (nodes : ast_node list) : ast_node list =
  let arr = Array.of_list nodes in
  let n = Array.length arr in
  let writes = Array.map node_writes arr in
  let reads = Array.map node_reads arr in
  (* reader index for every read signal, built once: successor lookup is
     then linear in the actual edges rather than rescanning every node's
     read set for every written signal *)
  let readers = Hashtbl.create (max 16 n) in
  Array.iteri
    (fun j rs ->
      List.iter
        (fun r ->
          let prev = Option.value (Hashtbl.find_opt readers r) ~default:[] in
          Hashtbl.replace readers r (j :: prev))
        rs)
    reads;
  let succs i =
    (* nodes that read what node i writes *)
    List.concat_map
      (fun w -> Option.value (Hashtbl.find_opt readers w) ~default:[])
      writes.(i)
    |> List.filter (fun j -> j <> i)
    |> List.sort_uniq Int.compare
  in
  let state = Array.make n 0 (* 0 unvisited, 1 in-stack, 2 done *) in
  let order = ref [] in
  let rec visit i =
    match state.(i) with
    | 2 -> ()
    | 1 ->
        let cyc = Ast.dedup (writes.(i) @ reads.(i)) in
        raise (Combinational_cycle cyc)
    | _ ->
        state.(i) <- 1;
        List.iter visit (succs i);
        state.(i) <- 2;
        order := i :: !order
  in
  for i = 0 to n - 1 do
    visit i
  done;
  (* each node is prepended after its readers, so [order] places every
     writer before all of its readers *)
  List.map (fun i -> arr.(i)) !order

(* ------------------------------------------------------------------ *)
(* Statement interpretation (the brute-force oracle)                   *)
(* ------------------------------------------------------------------ *)

type exec_ctx = {
  sim : t;
  mutable pending : Compiled.cwrite list;  (* reversed *)
  in_comb_phase : bool;
  displays_enabled : bool;
}

(* The $display sink, shared by both kernels: log, stats, hook. Reads
   the cycle counter at emission time. *)
let emit_text sim text =
  sim.log <- (sim.cycle, text) :: sim.log;
  sim.log_len <- sim.log_len + 1;
  (match sim.stats with
  | Some st -> st.s_displays <- st.s_displays + 1
  | None -> ());
  match sim.display_hook with Some f -> f sim.cycle text | None -> ()

let emit_display ctx fmt args =
  if ctx.displays_enabled then (
    let vals = List.map (Compiled.eval ctx.sim.env) args in
    emit_text ctx.sim (Display.render fmt vals))

let rec exec_stmt ctx (s : Compiled.cstmt) =
  if not !(ctx.sim.finished) then
    match s with
    | Compiled.CSblocking (l, e, cw) ->
        (* blocking assignments update immediately, visible to the next
           statement, in both combinational and sequential blocks *)
        let v = Compiled.eval_ctx ctx.sim.env ~ctx:cw e in
        Compiled.write_notify ctx.sim.env ~notify:ctx.sim.notify l v
    | Compiled.CSnonblocking (l, e, cw) ->
        let v = Compiled.eval_ctx ctx.sim.env ~ctx:cw e in
        if ctx.in_comb_phase then
          (* non-blocking inside a combinational block degenerates to a
             blocking update in a two-phase simulator *)
          Compiled.write_notify ctx.sim.env ~notify:ctx.sim.notify l v
        else
          ctx.pending <-
            List.rev_append
              (Compiled.resolve_write ctx.sim.env l v)
              ctx.pending
    | Compiled.CSif (c, t, f) ->
        if Bits.reduce_or (Compiled.eval ctx.sim.env c) then
          List.iter (exec_stmt ctx) t
        else List.iter (exec_stmt ctx) f
    | Compiled.CScase (e, items, default) -> (
        let v = Compiled.eval ctx.sim.env e in
        let matches (match_exprs, _) =
          List.exists
            (fun me ->
              let mv = Compiled.eval ctx.sim.env me in
              let w = max (Bits.width v) (Bits.width mv) in
              Bits.equal (Bits.resize v w) (Bits.resize mv w))
            match_exprs
        in
        match List.find_opt matches items with
        | Some (_, body) -> List.iter (exec_stmt ctx) body
        | None -> (
            match default with
            | Some body -> List.iter (exec_stmt ctx) body
            | None -> ()))
    | Compiled.CSdisplay (fmt, args) -> emit_display ctx fmt args
    | Compiled.CSfinish -> ctx.sim.finished := true

(* ------------------------------------------------------------------ *)
(* Primitives                                                          *)
(* ------------------------------------------------------------------ *)

let prim_param (cp : cprim) name default =
  Option.value (List.assoc_opt name cp.cp_src.fp_params) ~default

let make_prim_state (cp : cprim) : prim_state =
  match cp.cp_src.fp_kind with
  | Scfifo | Dcfifo ->
      let width = prim_param cp "lpm_width" 8 in
      let depth = prim_param cp "lpm_numwords" 16 in
      Pfifo
        ( cp,
          {
            f_depth = depth;
            f_width = width;
            f_data = Array.make depth (Bits.zero width);
            f_head = 0;
            f_count = 0;
          } )
  | Altsyncram ->
      let width = prim_param cp "width_a" 8 in
      let words = prim_param cp "numwords_a" 16 in
      Pram
        (cp, { r_words = Array.make words (Bits.zero width); r_q = Bits.zero width })

let prim_input (cp : cprim) name =
  match List.assoc_opt name cp.cp_inputs with
  | Some f -> f ()
  | None -> Bits.zero 1

let prim_input_bool cp name = Bits.reduce_or (prim_input cp name)

(* Change-detected write to a vector signal through whichever kernel's
   value bank is live; resizes to the declared width and notifies on
   change. Memories are never written this way. *)
let write_sig sim i value =
  match sim.env.(i) with
  | Compiled.Mem _ -> ()
  | Compiled.Vec old -> (
      match sim.engine with
      | Event low -> Lowered.write_vec low i value
      | Brute _ ->
          let value = Bits.resize value (Bits.width old) in
          if not (Bits.equal old value) then (
            sim.env.(i) <- Compiled.Vec value;
            sim.notify i))

(* Drive a primitive output signal if it is connected; change-detected
   so a quiescent primitive does not wake its combinational readers. *)
let drive sim (cp : cprim) formal value =
  match List.assoc_opt formal cp.cp_outputs with
  | None -> ()
  | Some i -> write_sig sim i value

let fifo_port_names kind =
  match kind with
  | Scfifo -> ("wrreq", "rdreq", "data", "q", "full", "empty", "usedw")
  | Dcfifo -> ("wrreq", "rdreq", "data", "q", "wrfull", "rdempty", "wrusedw")
  | Altsyncram -> assert false

let drive_fifo_outputs sim (cp : cprim) (f : fifo_state) =
  let _, _, _, q, full, empty, usedw = fifo_port_names cp.cp_src.fp_kind in
  let front =
    if f.f_count > 0 then f.f_data.(f.f_head) else Bits.zero f.f_width
  in
  drive sim cp q front;
  drive sim cp full (Bits.of_bool (f.f_count >= f.f_depth));
  drive sim cp empty (Bits.of_bool (f.f_count = 0));
  (* [drive] resizes to the connected signal's declared width *)
  drive sim cp usedw (Bits.of_int ~width:16 f.f_count)

let step_prim (ps : prim_state) =
  match ps with
  | Pfifo (cp, f) ->
      let wrreq_n, rdreq_n, data_n, _, _, _, _ =
        fifo_port_names cp.cp_src.fp_kind
      in
      let wrreq = prim_input_bool cp wrreq_n in
      let rdreq = prim_input_bool cp rdreq_n in
      let data = Bits.resize (prim_input cp data_n) f.f_width in
      let popped = rdreq && f.f_count > 0 in
      let pushed = wrreq && f.f_count < f.f_depth in
      if popped then (
        f.f_head <- (f.f_head + 1) mod f.f_depth;
        f.f_count <- f.f_count - 1);
      if pushed then (
        f.f_data.((f.f_head + f.f_count) mod f.f_depth) <- data;
        f.f_count <- f.f_count + 1)
  | Pram (cp, r) ->
      let addr = Bits.to_int_trunc (prim_input cp "address_a") in
      let wren = prim_input_bool cp "wren_a" in
      let data = prim_input cp "data_a" in
      let size = Array.length r.r_words in
      let k = if size = 0 then 0 else addr mod size in
      (* registered read of the old word, then write *)
      r.r_q <- r.r_words.(k);
      if wren then
        r.r_words.(k) <- Bits.resize data (Bits.width r.r_words.(k))

let drive_prim_outputs sim ps =
  match ps with
  | Pfifo (cp, f) -> drive_fifo_outputs sim cp f
  | Pram (cp, r) -> drive sim cp "q_a" r.r_q

(* ------------------------------------------------------------------ *)
(* Construction and stepping                                           *)
(* ------------------------------------------------------------------ *)

let rec stmt_has_display (s : Ast.stmt) =
  match s with
  | Ast.Display _ -> true
  | Ast.If (_, t, f) ->
      List.exists stmt_has_display t || List.exists stmt_has_display f
  | Ast.Case (_, items, default) ->
      List.exists (fun it -> List.exists stmt_has_display it.Ast.body) items
      || (match default with
         | Some body -> List.exists stmt_has_display body
         | None -> false)
  | Ast.Blocking _ | Ast.Nonblocking _ | Ast.Finish -> false

let compile_node tab = function
  | Aassign (l, e) ->
      let cl = Compiled.compile_lvalue tab l in
      Lowered.Lassign (cl, Compiled.compile_expr tab e, Compiled.clvalue_width cl)
  | Ablock stmts -> Lowered.Lblock (List.map (Compiled.compile_stmt tab) stmts)

(* Build the production kernel over the topologically sorted plan. *)
let lower ~tab ~env ~finished ~notify ~runs (flat : flat) ast_nodes nodes seq =
  let n = Array.length nodes in
  (* sensitivity map on ids: every signal a node reads wakes that node *)
  let sens = Array.make (Array.length flat.f_signal_order) [] in
  Array.iteri
    (fun rank node ->
      List.iter
        (fun s ->
          match Hashtbl.find_opt flat.f_signal_ids s with
          | Some i -> sens.(i) <- rank :: sens.(i)
          | None -> ())
        (node_reads node))
    ast_nodes;
  (* ranks of comb blocks containing $display, which must fire on every
     display-enabled settle even when no input changed *)
  let display_ranks =
    List.filter
      (fun rank ->
        match ast_nodes.(rank) with
        | Ablock stmts -> List.exists stmt_has_display stmts
        | Aassign _ -> false)
      (List.init n Fun.id)
  in
  (* single-reader assign chains fuse into one closure: when node r-1 is
     a plain assign whose sole written signal feeds exactly one node and
     that node is r, the pair always runs back to back in the full
     sweep, so folding them is behavior-preserving and halves the
     plan-iteration overhead on long chains *)
  let fuse = Array.make (max n 1) false in
  for r = 1 to n - 1 do
    match ast_nodes.(r - 1) with
    | Aassign (l, _) -> (
        match Ast.lvalue_bases l with
        | [ s ] -> (
            match Hashtbl.find_opt flat.f_signal_ids s with
            | Some i -> if sens.(i) = [ r ] then fuse.(r) <- true
            | None -> ())
        | _ -> ())
    | Ablock _ -> ()
  done;
  Lowered.create ~tab ~env ~finished ~notify ~runs ~nodes ~fuse ~sens
    ~display_ranks ~seq

let create ?(kernel = Event_driven) (flat : flat) : t =
  Telemetry.span "compile" @@ fun () ->
  let tab = Compiled.of_flat flat in
  let env = Compiled.fresh_env flat in
  let node_list =
    List.map (fun (l, e) -> Aassign (l, e)) flat.f_assigns
    @ List.map (fun b -> Ablock b) flat.f_comb
  in
  let ast_nodes = Array.of_list (topo_sort node_list) in
  let nodes = Array.map (compile_node tab) ast_nodes in
  let seq =
    List.map
      (fun (e, _clk, body) -> (e, List.map (Compiled.compile_stmt tab) body))
      flat.f_seq
  in
  let stats =
    (* structured tracing samples its counter series off [istats], so a
       trace-only run (telemetry switch off) still carries them; every
       per-cycle recording inside remains gated on its own switch *)
    if Telemetry.enabled () || Telemetry.Trace.enabled () then
      Some
        {
          s_steps = 0;
          s_dirty_total = 0;
          s_dirty_peak = 0;
          s_prim_steps = 0;
          s_displays = 0;
          s_toggles = Array.make (Array.length flat.f_signal_order) 0;
          s_settle_hist = Telemetry.Histogram.make "settle.nodes_evaluated";
          s_trace_mark = 0;
        }
    else None
  in
  let notify =
    match stats with
    | None -> ignore
    | Some st -> fun i -> st.s_toggles.(i) <- st.s_toggles.(i) + 1
  in
  let finished = ref false in
  let runs =
    { Lowered.rs_settles = 0; rs_closures_run = 0; rs_closures_skipped = 0;
      rs_edges = 0; rs_commit_imm = 0; rs_commit_boxed = 0 }
  in
  let engine =
    match kernel with
    | Event_driven ->
        Event (lower ~tab ~env ~finished ~notify ~runs flat ast_nodes nodes seq)
    | Brute_force -> Brute { nodes; seq }
  in
  let input_closure ce =
    match engine with
    | Event low -> Lowered.input_fn low ce
    | Brute _ -> fun () -> Compiled.eval env ce
  in
  let prims =
    List.map
      (fun (p : fprim) ->
        let cp =
          {
            cp_src = p;
            cp_inputs =
              List.map
                (fun (f, e) -> (f, input_closure (Compiled.compile_expr tab e)))
                p.fp_inputs;
            cp_outputs =
              List.map (fun (f, s) -> (f, Compiled.id tab s)) p.fp_outputs;
          }
        in
        make_prim_state cp)
      flat.f_prims
  in
  let sim =
    { flat; env; engine; runs; notify; prims; cycle = 0; finished; log = [];
      log_len = 0; log_memo = (0, []); display_hook = None; step_hooks = [];
      stats }
  in
  (match engine with Event low -> Lowered.set_emit low (emit_text sim) | Brute _ -> ());
  (* initial primitive outputs so the first settle sees them; every
     closure starts dirty, so the first settle evaluates the full plan *)
  List.iter (drive_prim_outputs sim) prims;
  sim

let exec_node ctx (node : Lowered.node) =
  match node with
  | Lowered.Lassign (l, e, cw) ->
      let v = Compiled.eval_ctx ctx.sim.env ~ctx:cw e in
      Compiled.write_notify ctx.sim.env ~notify:ctx.sim.notify l v
  | Lowered.Lblock stmts -> List.iter (exec_stmt ctx) stmts

let settle ?(displays = false) (sim : t) =
  match sim.engine with
  | Event low -> (
      match sim.stats with
      | None -> ignore (Lowered.settle low ~displays)
      | Some st ->
          (* dirty size is read at settle entry (display forcing
             happens inside) *)
          let pre = Lowered.dirty_count low in
          let ev = Lowered.settle low ~displays in
          st.s_dirty_total <- st.s_dirty_total + pre;
          if pre > st.s_dirty_peak then st.s_dirty_peak <- pre;
          Telemetry.Histogram.observe st.s_settle_hist ev)
  | Brute { nodes; _ } ->
      (* every node counts as considered, evaluated, and dirty *)
      let n = Array.length nodes in
      let r = sim.runs in
      r.rs_settles <- r.rs_settles + 1;
      r.rs_closures_run <- r.rs_closures_run + n;
      (match sim.stats with
      | None -> ()
      | Some st ->
          st.s_dirty_total <- st.s_dirty_total + n;
          if n > st.s_dirty_peak then st.s_dirty_peak <- n;
          Telemetry.Histogram.observe st.s_settle_hist n);
      let ctx =
        { sim; pending = []; in_comb_phase = true; displays_enabled = displays }
      in
      Array.iter (exec_node ctx) nodes

let lowered sim = match sim.engine with Event low -> Some low | Brute _ -> None

let dense_mode sim =
  match sim.engine with Event low -> Lowered.dense low | Brute _ -> false

(* Public accessors stay name-keyed: one id lookup per call, then array
   reads/writes. *)
let find_id sim name = Hashtbl.find_opt sim.flat.f_signal_ids name

let set_input sim name value =
  match find_id sim name with
  | Some i -> (
      match sim.env.(i) with
      | Compiled.Vec _ -> write_sig sim i value
      | Compiled.Mem _ -> invalid_arg "Simulator.set_input: memory")
  | None -> invalid_arg (Printf.sprintf "Simulator.set_input: unknown %s" name)

let set_input_int sim name v =
  match find_id sim name with
  | Some i -> (
      match sim.env.(i) with
      | Compiled.Vec old -> write_sig sim i (Bits.of_int ~width:(Bits.width old) v)
      | Compiled.Mem _ ->
          invalid_arg (Printf.sprintf "Simulator.set_input_int: unknown %s" name))
  | None ->
      invalid_arg (Printf.sprintf "Simulator.set_input_int: unknown %s" name)

let read sim name =
  match find_id sim name with
  | Some i -> (
      match sim.env.(i) with
      | Compiled.Vec b -> (
          match sim.engine with Event low -> Lowered.read_vec low i | Brute _ -> b)
      | Compiled.Mem _ ->
          invalid_arg (Printf.sprintf "Simulator.read: %s is a memory" name))
  | None -> invalid_arg (Printf.sprintf "Simulator.read: unknown %s" name)

let read_int sim name = Bits.to_int_trunc (read sim name)

let read_memory sim name =
  match find_id sim name with
  | Some i -> (
      match sim.env.(i) with
      | Compiled.Mem a -> Array.copy a
      | Compiled.Vec _ ->
          invalid_arg (Printf.sprintf "Simulator.read_memory: %s" name))
  | None -> invalid_arg (Printf.sprintf "Simulator.read_memory: %s" name)

(* Run the sequential blocks firing on one clock edge and commit their
   non-blocking writes. *)
let edge_phase (sim : t) (edge : Elaborate.clock_edge) ~with_prims =
  match sim.engine with
  | Event low ->
      Lowered.run_edge low edge;
      if with_prims then List.iter step_prim sim.prims;
      (match sim.stats with
      | Some st when with_prims ->
          st.s_prim_steps <- st.s_prim_steps + List.length sim.prims
      | _ -> ());
      Lowered.commit low;
      if with_prims then List.iter (drive_prim_outputs sim) sim.prims
  | Brute { seq; _ } ->
      let ctx =
        { sim; pending = []; in_comb_phase = false; displays_enabled = true }
      in
      let r = sim.runs in
      List.iter
        (fun (e, body) ->
          if e = edge then (
            r.rs_edges <- r.rs_edges + 1;
            List.iter (exec_stmt ctx) body))
        seq;
      if with_prims then List.iter step_prim sim.prims;
      r.rs_commit_boxed <- r.rs_commit_boxed + List.length ctx.pending;
      (match sim.stats with
      | Some st when with_prims ->
          st.s_prim_steps <- st.s_prim_steps + List.length sim.prims
      | _ -> ());
      List.iter
        (Compiled.apply_write_notify sim.env ~notify:sim.notify)
        (List.rev ctx.pending);
      if with_prims then List.iter (drive_prim_outputs sim) sim.prims

let has_negedge (sim : t) =
  List.exists (fun (e, _, _) -> e = Elaborate.Neg) sim.flat.f_seq

let step (sim : t) =
  if not !(sim.finished) then (
    settle sim ~displays:false;
    (* rising edge: posedge blocks and the clocked IP primitives fire
       against the settled pre-edge state; displays use those values *)
    edge_phase sim Elaborate.Pos ~with_prims:true;
    (* falling edge (half a cycle later): negedge blocks observe the
       post-posedge state, as in event-driven simulation *)
    if has_negedge sim then (
      settle sim ~displays:false;
      edge_phase sim Elaborate.Neg ~with_prims:false);
    settle sim ~displays:true;
    let completed = sim.cycle in
    sim.cycle <- completed + 1;
    (match sim.stats with
    | Some st ->
        st.s_steps <- st.s_steps + 1;
        (* counter series for the trace timeline, sampled once per
           window (no per-cycle cost); "sim.evaluated" is the window's
           closure count, so the samples sum to the run's total *)
        if st.s_steps mod trace_sample_every = 0 then (
          let evaluated = sim.runs.rs_closures_run in
          let delta = evaluated - st.s_trace_mark in
          st.s_trace_mark <- evaluated;
          if Telemetry.Trace.enabled () then (
            Telemetry.Trace.counter "sim.dirty"
              (match sim.engine with
              | Event low -> Lowered.dirty_count low
              | Brute { nodes; _ } -> Array.length nodes);
            Telemetry.Trace.counter "sim.evaluated" delta;
            Telemetry.Trace.counter "sim.dense"
              (if dense_mode sim then 1 else 0)))
    | None -> ());
    if sim.step_hooks <> [] then
      List.iter (fun f -> f completed) sim.step_hooks)

let run sim n =
  let i = ref 0 in
  while !i < n && not !(sim.finished) do
    step sim;
    incr i
  done

(* Entries accumulate by prepending (O(1) per $display); the oldest-first
   view is materialized at most once per new entry and memoized, so a
   caller polling [log] between displays never re-reverses. *)
let log sim =
  let len, memo = sim.log_memo in
  if len = sim.log_len then memo
  else (
    let oldest_first = List.rev sim.log in
    sim.log_memo <- (sim.log_len, oldest_first);
    oldest_first)

let cycle sim = sim.cycle
let finished sim = !(sim.finished)
let kernel sim = match sim.engine with Event _ -> Event_driven | Brute _ -> Brute_force
let lowering_stats sim = Option.map Lowered.stats (lowered sim)
let on_display sim f = sim.display_hook <- Some f
let on_step sim f = sim.step_hooks <- sim.step_hooks @ [ f ]

(* ------------------------------------------------------------------ *)
(* Telemetry read-back                                                 *)
(* ------------------------------------------------------------------ *)

type stats = {
  st_steps : int;
  st_settles : int;
  st_node_rounds : int;
  st_nodes_evaluated : int;
  st_nodes_skipped : int;
  st_dirty_total : int;
  st_dirty_peak : int;
  st_nba_commits : int;
  st_prim_steps : int;
  st_displays : int;
  st_settle_hist : Telemetry.Histogram.snapshot;
}

let stats sim =
  let r = sim.runs in
  Option.map
    (fun st ->
      {
        st_steps = st.s_steps;
        st_settles = r.rs_settles;
        st_node_rounds = r.rs_closures_run + r.rs_closures_skipped;
        st_nodes_evaluated = r.rs_closures_run;
        st_nodes_skipped = r.rs_closures_skipped;
        st_dirty_total = st.s_dirty_total;
        st_dirty_peak = st.s_dirty_peak;
        st_nba_commits = r.rs_commit_imm + r.rs_commit_boxed;
        st_prim_steps = st.s_prim_steps;
        st_displays = st.s_displays;
        st_settle_hist = Telemetry.Histogram.snapshot st.s_settle_hist;
      })
    sim.stats

let lowered_run_stats sim =
  match sim.engine with Event _ -> Some sim.runs | Brute _ -> None

let kernel_efficiency sim =
  let r = sim.runs in
  let rounds = r.rs_closures_run + r.rs_closures_skipped in
  match sim.stats with
  | Some _ when rounds > 0 ->
      Some (float_of_int r.rs_closures_run /. float_of_int rounds)
  | _ -> None

let toggle_counts sim =
  match sim.stats with
  | None -> []
  | Some st ->
      Array.to_list
        (Array.mapi (fun i n -> (sim.flat.f_signal_order.(i), n)) st.s_toggles)

let hottest_signals ?(k = 10) sim =
  toggle_counts sim
  |> List.filter (fun (_, n) -> n > 0)
  |> List.sort (fun (na, a) (nb, b) ->
         match compare b a with 0 -> compare na nb | c -> c)
  |> List.filteri (fun i _ -> i < k)

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)
(* ------------------------------------------------------------------ *)

(* A deep snapshot of the architectural state (environment, primitive
   contents, cycle count, log), name-keyed into the versioned
   [Checkpoint] wire format and bound to the design by its structural
   hash. Restoring a checkpoint and stepping produces the same trace as
   the original run - the replay property checkpoint-based FPGA
   debuggers (DESSERT, StateMover) rely on. The dirty set, adaptive
   mode, and NBA queue are derived or empty at cycle boundaries, so a
   restored simulator re-derives them. *)

(* Architectural value of signal [i], materialized through the lowered
   kernel's immediate bank when that is the live representation. *)
let sig_value sim i =
  match sim.env.(i) with
  | Compiled.Vec b ->
      Compiled.Vec
        (match sim.engine with Event low -> Lowered.read_vec low i | Brute _ -> b)
  | Compiled.Mem a -> Compiled.Mem (Array.copy a)

let ck_saves = Telemetry.Counter.make "checkpoint.saves"
let ck_restores = Telemetry.Counter.make "checkpoint.restores"

let save_checkpoint ?(tag = "") ?(meta = []) (sim : t) : Checkpoint.t =
  Telemetry.span "checkpoint.save" @@ fun () ->
  Telemetry.Counter.incr ck_saves;
  let ck_values =
    Array.to_list
      (Array.mapi
         (fun i name -> (name, sig_value sim i))
         sim.flat.f_signal_order)
  in
  let ck_prims =
    List.map
      (fun ps ->
        match ps with
        | Pfifo (cp, f) ->
            Checkpoint.Cfifo
              {
                cf_name = cp.cp_src.fp_name;
                cf_width = f.f_width;
                cf_data = Array.copy f.f_data;
                cf_head = f.f_head;
                cf_count = f.f_count;
              }
        | Pram (cp, r) ->
            Checkpoint.Cram
              {
                cr_name = cp.cp_src.fp_name;
                cr_width = Bits.width r.r_q;
                cr_q = r.r_q;
                cr_words = Array.copy r.r_words;
              })
      sim.prims
  in
  {
    Checkpoint.ck_design = Checkpoint.design_hash sim.flat;
    ck_tag = tag;
    ck_cycle = sim.cycle;
    ck_finished = !(sim.finished);
    ck_values;
    ck_prims;
    ck_log = log sim;
    ck_meta = meta;
  }

let ck_fail fmt =
  Printf.ksprintf (fun s -> raise (Checkpoint.Checkpoint_error s)) fmt

let restore_checkpoint (sim : t) (ck : Checkpoint.t) : unit =
  Telemetry.span "checkpoint.restore" @@ fun () ->
  Telemetry.Counter.incr ck_restores;
  let here = Checkpoint.design_hash sim.flat in
  if ck.Checkpoint.ck_design <> here then
    ck_fail
      "checkpoint%s was taken from a different design (signature %s, this \
       simulator has %s)"
      (if ck.Checkpoint.ck_tag = "" then ""
       else Printf.sprintf " %S" ck.Checkpoint.ck_tag)
      ck.Checkpoint.ck_design here;
  List.iter
    (fun (name, v) ->
      match find_id sim name with
      | None -> ck_fail "checkpoint signal %s does not exist in the design" name
      | Some i -> (
          match (sim.env.(i), v) with
          | Compiled.Vec old, Compiled.Vec b ->
              if Bits.width b <> Bits.width old then
                ck_fail "checkpoint signal %s has width %d, design has %d" name
                  (Bits.width b) (Bits.width old)
              else (
                (* raw store into whichever bank is live; no change
                   detection, everything is re-marked below *)
                match sim.engine with
                | Event low -> Lowered.set_vec_raw low i b
                | Brute _ -> sim.env.(i) <- v)
          | Compiled.Mem old, Compiled.Mem a ->
              if Array.length a <> Array.length old then
                ck_fail "checkpoint memory %s has %d words, design has %d" name
                  (Array.length a) (Array.length old)
              else sim.env.(i) <- Compiled.Mem (Array.copy a)
          | Compiled.Vec _, Compiled.Mem _ | Compiled.Mem _, Compiled.Vec _ ->
              ck_fail "checkpoint signal %s has the wrong shape" name))
    ck.Checkpoint.ck_values;
  List.iter
    (fun ckp ->
      let find name =
        List.find_opt
          (fun ps ->
            match ps with
            | Pfifo (cp, _) | Pram (cp, _) -> cp.cp_src.fp_name = name)
          sim.prims
      in
      match ckp with
      | Checkpoint.Cfifo { cf_name; cf_data; cf_head; cf_count; _ } -> (
          match find cf_name with
          | Some (Pfifo (_, st)) when Array.length cf_data = st.f_depth ->
              Array.blit cf_data 0 st.f_data 0 st.f_depth;
              st.f_head <- cf_head;
              st.f_count <- cf_count
          | _ -> ck_fail "checkpoint FIFO %s does not match the design" cf_name)
      | Checkpoint.Cram { cr_name; cr_q; cr_words; _ } -> (
          match find cr_name with
          | Some (Pram (_, st))
            when Array.length cr_words = Array.length st.r_words ->
              Array.blit cr_words 0 st.r_words 0 (Array.length st.r_words);
              st.r_q <- cr_q
          | _ -> ck_fail "checkpoint RAM %s does not match the design" cr_name))
    ck.Checkpoint.ck_prims;
  sim.cycle <- ck.Checkpoint.ck_cycle;
  sim.finished := ck.Checkpoint.ck_finished;
  sim.log <- List.rev ck.Checkpoint.ck_log;
  sim.log_len <- List.length ck.Checkpoint.ck_log;
  (* invalidate the memo: a restored log of the same length as the
     current one would otherwise serve the stale reversed view *)
  sim.log_memo <- (-1, []);
  (* the whole environment may have changed: drop back to sparse with
     everything dirty and let activity re-derive the mode *)
  Option.iter Lowered.mark_all (lowered sim);
  (* primitive outputs must reflect the restored contents before the
     next settle, exactly as [create] does for the initial state *)
  List.iter (drive_prim_outputs sim) sim.prims
