(** Cycle-accurate two-phase simulator over an elaborated design.

    Each {!step} performs one clock cycle:
    + settle combinational logic (continuous assigns and always-star
      blocks, in a topological order computed at construction),
    + execute sequential blocks against the settled pre-edge state,
      collecting non-blocking writes ($display statements fire here,
      with pre-edge values, as in event-driven simulators),
    + step the builtin IP primitives (FIFOs, RAMs),
    + commit the non-blocking writes and primitive outputs,
    + settle combinational logic again so outputs reflect the new state.

    The simulator assumes a single clock domain: every sequential block
    fires on every [step], which matches the single-clock subset the
    testbed uses (dcfifo instances have both clocks tied).

    Two kernels settle the combinational plan. The production kernel,
    {!Event_driven}, compiles the plan into fused closures over an
    unboxed int bank ({!Lowered}) and settles it {e event-driven}: a
    sensitivity map (signal -> reading closures) is built at
    construction, every write is change-detected, and each settle
    re-runs only the closures whose inputs changed, in topological
    order. This preserves the exact cycle-level semantics of the full
    sweep (including the once-per-final-settle firing of combinational
    [$display] statements) while skipping quiescent logic entirely. On
    plans where nearly every closure fires every cycle, the kernel
    adaptively falls back to a plain full sweep ({e dense mode}) while
    activity stays high; see {!dense_mode}. Mode switches never change
    simulation results.

    {!Brute_force} interprets the whole compiled plan on every settle.
    It is deliberately simple and slow: the oracle that the
    differential tests, campaigns and the fuzzer hold the production
    kernel to. *)

exception Combinational_cycle of string list
(** Raised at construction when continuous assignments / combinational
    blocks form a dependency cycle; carries the signals involved. *)

type kernel =
  | Event_driven
      (** the production kernel: fused closures ({!Lowered}) scheduled
          by per-closure dirty bits, with the adaptive dense fallback *)
  | Brute_force
      (** re-interpret the full topological plan on every settle — the
          reference oracle for differential testing *)

val kernel_name : kernel -> string
(** ["event"] or ["brute"] — the CLI spelling. *)

type t

val create : ?kernel:kernel -> Elaborate.flat -> t
(** Build a simulator with all registers at their declared initial
    values (zero by default) and primitive outputs settled. [kernel]
    defaults to {!Event_driven}, whatever the plan size. Both kernels
    produce byte-identical traces. *)

val kernel : t -> kernel
(** The kernel this simulator was built with. *)

val step : t -> unit
(** Advance one clock cycle. No-op once the design executed [$finish]. *)

val run : t -> int -> unit
(** [run sim n] steps up to [n] cycles, stopping early on [$finish]. *)

val set_input : t -> string -> Fpga_bits.Bits.t -> unit
(** Drive a top-level input (resized to its declared width). Takes
    effect at the next [step]. *)

val set_input_int : t -> string -> int -> unit

val read : t -> string -> Fpga_bits.Bits.t
(** Read any signal by its flat name (post-settle value). *)

val read_int : t -> string -> int
(** Low 62 bits of {!read}, as an int. *)

val read_memory : t -> string -> Fpga_bits.Bits.t array
(** Snapshot of a memory's words — the JTAG-readback analog used by
    SignalCat's log reconstruction. *)

val log : t -> (int * string) list
(** All $display output so far, oldest first, as (cycle, text). *)

val cycle : t -> int
(** Number of completed cycles. *)

val finished : t -> bool
(** The design executed [$finish]. *)

val on_display : t -> (int -> string -> unit) -> unit
(** Install a hook called for every $display as it fires. *)

val on_step : t -> (int -> unit) -> unit
(** Register a hook called after every completed {!step} with the cycle
    number just finished (0-based). Hooks run in registration order;
    multiple hooks may be installed. Registering no hook keeps [step]
    on its original path. *)

(** {1 Telemetry}

    Kernel-profiling counters, recorded only when the global
    {!Fpga_telemetry.Telemetry} switch was on at {!create} time —
    otherwise every accessor below reports nothing and the hot paths
    carry no instrumentation at all. *)

type stats = {
  st_steps : int;  (** completed clock cycles *)
  st_settles : int;  (** combinational settle passes *)
  st_node_rounds : int;  (** settles × plan size: work a full sweep does *)
  st_nodes_evaluated : int;  (** nodes actually re-evaluated *)
  st_nodes_skipped : int;  (** [st_node_rounds - st_nodes_evaluated] *)
  st_dirty_total : int;  (** sum of dirty-set sizes at settle entry *)
  st_dirty_peak : int;  (** largest dirty set seen *)
  st_nba_commits : int;  (** non-blocking writes committed *)
  st_prim_steps : int;  (** primitive (FIFO/RAM) step invocations *)
  st_displays : int;  (** $display statements fired *)
  st_settle_hist : Fpga_telemetry.Telemetry.Histogram.snapshot;
      (** distribution of nodes evaluated per settle *)
}

val stats : t -> stats option
(** [None] when telemetry was disabled at construction. *)

val dense_mode : t -> bool
(** True while the {!Event_driven} kernel is in its dense full-sweep
    fallback (always false for {!Brute_force}). Exposed for tests and
    profiling; mode switches never change simulation results. *)

val lowering_stats : t -> Lowered.stats option
(** Closure/representation counts from the lowering pass; [None] for
    {!Brute_force}. Always available (not telemetry-gated) — the
    numbers are static facts of the compiled plan. *)

val lowered_run_stats : t -> Lowered.run_stats option
(** Runtime counters of the {!Event_driven} kernel (closures
    run/skipped, commit-buffer occupancy); [None] for {!Brute_force}.
    Always maintained (a few int stores per settle, never per node),
    so available even without telemetry. *)

val kernel_efficiency : t -> float option
(** [st_nodes_evaluated / st_node_rounds] — the fraction of full-sweep
    work the kernel actually performed (1.0 for {!Brute_force}; for
    {!Event_driven} both counts are in fused closures). [None] when
    telemetry is off or no combinational work was considered (an empty
    plan, or no settle yet), rather than a vacuous 100%. *)

val toggle_counts : t -> (string * int) list
(** Per-signal change counts (every change-detected write that took
    effect), in dense-id order; empty when telemetry is off. *)

val hottest_signals : ?k:int -> t -> (string * int) list
(** Top-[k] (default 10) most active signals by toggle count,
    descending, ties by name. *)

(** {1 Checkpointing}

    Deep snapshots of the architectural state (registers, memories,
    primitive contents, cycle count, log), in the spirit of the
    checkpoint-based FPGA debuggers the paper relates to (DESSERT,
    StateMover). A snapshot is name-keyed into the versioned,
    content-hashed {!Checkpoint} wire format and bound to the design by
    its structural hash; it can stay in memory or be written to disk.
    Restoring a checkpoint and stepping yields results bit-identical to
    a run that never stopped — the replay-determinism property the CI
    replay gate enforces. *)

val save_checkpoint :
  ?tag:string -> ?meta:(string * string) list -> t -> Checkpoint.t
(** Snapshot the complete state at the current cycle boundary. [tag]
    records free-form provenance (e.g. the bug id); [meta] is an
    open-ended key/value section for harness replay state (observed
    rows, monitor flags, stimulus seeds). *)

val restore_checkpoint : t -> Checkpoint.t -> unit
(** Restore a snapshot into a simulator built from the same design.
    Raises {!Checkpoint.Checkpoint_error} when the checkpoint's design
    signature, a signal's width/shape, or a primitive's geometry does
    not match — a checkpoint can never be silently restored into a
    different design. The event-driven kernel restarts in sparse mode
    with every closure dirty (a conservative superset that re-derives the
    schedule without affecting results). *)
