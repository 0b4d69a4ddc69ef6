(** Lowered closure-array settle kernel — the simulator's production
    ({!Simulator.Event_driven}) kernel.

    Lowers the id-resolved compiled plan ({!Compiled}) one level
    further at simulator construction: each combinational node becomes
    a fused [unit -> unit] closure with all dispatch (width class,
    representation, index power-of-two-ness) decided at compile time,
    and every vector signal of width [<= 63] lives unboxed in a dense
    [int array] bank ({!Fpga_bits.Bits.Imm}), masked on write. Wide
    vectors and memories stay in limb form in the shared
    {!Compiled.env}. Sequential always-blocks are lowered the same way,
    with non-blocking writes deferred into a flat int-triple commit
    buffer (boxed/memory targets overflow into a side list).

    Closures are scheduled by a per-closure dirty worklist fed from a
    closure-level sensitivity index, so a settle runs only closures
    whose inputs changed. An adaptive sparse/dense hysteresis switches
    to a plain full sweep while nearly every closure fires anyway, so
    fully-active plans pay no flag traffic.

    Semantics are bit-identical to the reference executor: same width
    rules, same out-of-range index handling, same non-blocking commit
    ordering (dropped writes included, so commit statistics match),
    same display gating and change-detection points (toggle counts
    match the brute-force kernel). Managed by {!Simulator}; not a
    public entry point. *)

type stats = {
  lw_nodes : int;  (** combinational nodes lowered *)
  lw_closures : int;  (** plan closures after fusion *)
  lw_fused : int;  (** nodes folded into a predecessor closure *)
  lw_imm : int;  (** signals held in the immediate int bank *)
  lw_boxed : int;  (** signals kept in limb form (wide vecs + mems) *)
  lw_seq : int;  (** sequential always-blocks lowered to closures *)
}

(** Runtime counters, maintained unconditionally (a handful of int
    stores per settle/commit, never per node). *)
type run_stats = {
  mutable rs_settles : int;  (** settle passes *)
  mutable rs_closures_run : int;  (** closures evaluated *)
  mutable rs_closures_skipped : int;  (** skipped by dirty scheduling *)
  mutable rs_edges : int;  (** sequential block invocations *)
  mutable rs_commit_imm : int;  (** flat-buffer (unboxed) NBA commits *)
  mutable rs_commit_boxed : int;  (** boxed NBA commits, drops included *)
}

type t

(** Combinational node in compiled form, as built by [Simulator]. *)
type node =
  | Lassign of Compiled.clvalue * Compiled.cexpr * int  (** ctx width *)
  | Lblock of Compiled.cstmt list

val create :
  tab:Compiled.tab ->
  env:Compiled.env ->
  finished:bool ref ->
  notify:(int -> unit) ->
  nodes:node array ->
  fuse:bool array ->
  sens:int list array ->
  display_ranks:int list ->
  seq:(Elaborate.clock_edge * Compiled.cstmt list) list ->
  t
(** [fuse.(r)] marks a node to be folded into its predecessor's closure
    (legal only for single-reader assign chains — the caller proves
    it); [finished] is shared with the simulator's $finish flag and
    checked before every lowered statement. [notify] is the external
    change callback (toggle counting under telemetry); dirty marking is
    composed on top internally. Immediate-bank values are seeded from
    [env]. [sens] maps signal id to the ranks of reading nodes and
    [display_ranks] lists ranks of comb blocks containing [$display];
    both are lifted to the closure level. *)

(** {1 Execution} *)

val settle : t -> displays:bool -> int
(** One settle pass over the fused plan in topological order; returns
    the number of closures evaluated (the whole plan unless dirty-set
    scheduling skipped some). [displays] gates combinational
    [$display]s, as in the reference settle; display closures are
    forced onto the worklist for display-enabled settles so logs stay
    identical. *)

val run_edge : t -> Elaborate.clock_edge -> unit
(** Run the sequential blocks for one clock edge; non-blocking writes
    accumulate until {!commit}. *)

val pending_count : t -> int
(** Deferred writes accumulated since the last {!commit} (dropped
    writes included, matching the reference's commit statistics). *)

val commit : t -> unit
(** Apply deferred non-blocking writes with change detection and
    notification: the flat immediate buffer in push order, then boxed
    writes in program order. Per-signal ordering is exact (a signal's
    writes always land in one buffer). *)

(** {1 Dirty-set scheduling} *)

val mark_all : t -> unit
(** Reset the dirty scheduler: back to the sparse worklist with every
    closure pending (checkpoint restore). *)

val dirty_count : t -> int
(** Closures currently pending: the sparse worklist size, or the whole
    plan in dense mode. *)

val dense : t -> bool
(** Whether the scheduler is currently in the dense full-sweep mode. *)

val plan_size : t -> int
(** Number of closures in the fused settle plan. *)

(** {1 State access} *)

val read_vec : t -> int -> Fpga_bits.Bits.t
(** Materialize the current value of a vector signal. *)

val write_vec : t -> int -> Fpga_bits.Bits.t -> unit
(** Change-detected external write (inputs, primitive outputs),
    resized to the signal width; notifies on change. *)

val set_vec_raw : t -> int -> Fpga_bits.Bits.t -> unit
(** Checkpoint restore: store without change detection or
    notification. *)

val input_fn : t -> Compiled.cexpr -> unit -> Fpga_bits.Bits.t
(** Compile a primitive-input reader over the lowered banks
    (self-determined context). *)

val set_emit : t -> (string -> unit) -> unit
(** Wire the [$display] sink (the simulator's log/telemetry path). *)

val stats : t -> stats
val run_stats : t -> run_stats
