(** Campaign engine: batch execution of independent simulation jobs on
    a pool of OCaml domains.

    The paper's evaluation (§6) repeatedly runs the whole 20-bug
    testbed end to end; this module turns that from a latency chain
    into a throughput workload. A single shared queue is drained by N
    domains, each job's result is slotted into a results array at its
    submission index, and [Domain.join] makes the disjoint slot writes
    visible to the collector — so collected results are ordered by job
    id and byte-identical to a serial run regardless of scheduling
    (see the campaign determinism tests).

    Jobs must be self-contained: they share no mutable state, and any
    telemetry they record lands in per-domain sinks
    ({!Fpga_telemetry.Telemetry}) that the pool merges at join. *)

(** {1 Generic pool} *)

type 'a job = { label : string; work : unit -> 'a }

type 'a job_result = {
  jr_id : int;  (** submission index; result arrays are ordered by it *)
  jr_label : string;
  jr_wall : float;  (** seconds spent in the job body *)
  jr_domain : int;  (** 0-based worker that ran it *)
  jr_value : ('a, string) result;
      (** [Error] carries the exception text of a raising job *)
  jr_trace : Fpga_telemetry.Telemetry.Trace.segment;
      (** the job's slice of its worker's trace buffer (empty while
          tracing is off). Each job body runs inside a tree span named
          after its label (category ["job"]) on its worker's track
          (worker [w] records on track [w+1]); the captured segment is
          rebased, so it is identical at any pool width. *)
}

type pool_stats = {
  ps_domains : int;
  ps_jobs : int;
  ps_wall : float;  (** submission to last join *)
  ps_busy : float array;  (** per-worker seconds inside job bodies *)
  ps_utilization : float;  (** total busy / (domains × wall) *)
  ps_telemetry : Fpga_telemetry.Telemetry.report;
      (** merged across all worker sinks *)
}

val run_pool :
  ?domains:int -> 'a job array -> 'a job_result array * pool_stats
(** Execute every job; results are ordered by submission index.
    [domains] defaults to [Domain.recommended_domain_count ()]; a
    value [<= 1] (or a single job) runs inline on the calling domain
    with no spawns. A raising job becomes an [Error] result and never
    takes down the pool. *)

(** {1 Testbed jobs} *)

type verdict = {
  v_bug : string;
  v_kind : string;  (** ["repro"], ["differential"], or ["sweep:<n>"] *)
  v_cycles : int;  (** simulated cycles, all runs of the job summed *)
  v_ok : bool;
  v_detail : string;
  v_symptoms : string list;  (** observed symptom names (repro jobs) *)
  v_log : (int * string) list;  (** buggy-run $display log *)
  v_vcd : string option;  (** buggy-run waveform (repro jobs) *)
}

val repro_job :
  ?kernel:Fpga_sim.Simulator.kernel -> Fpga_testbed.Bug.t -> verdict job
(** Differential buggy-vs-fixed reproduction with a VCD captured on
    the buggy side; ok when every Table 2 symptom manifests. [kernel]
    defaults to {!Fpga_sim.Simulator.Event_driven}. *)

val differential_job :
  ?kernel:Fpga_sim.Simulator.kernel -> Fpga_testbed.Bug.t -> verdict job
(** Primary settle kernel ([kernel], default event-driven) vs the
    brute-force reference over the buggy design; ok when the two
    reports are observationally identical. *)

val sweep_job :
  ?kernel:Fpga_sim.Simulator.kernel ->
  cycles:int -> Fpga_testbed.Bug.t -> verdict job
(** Buggy run under a non-default cycle budget. *)

val replay_job : every:int -> Fpga_testbed.Bug.t -> verdict job
(** Checkpoint/replay determinism: record a stream with a checkpoint
    every [every] cycles, round-trip the middle snapshot through the
    serialized wire format, replay it, and demand the window be
    byte-identical to the straight run (rows, log, flags, and the full
    waveform). Vacuously ok when the run is too short to produce a
    checkpoint. *)

(** {1 Campaign} *)

type t = {
  c_results : verdict job_result array;  (** ordered by job id *)
  c_stats : pool_stats;
  c_cycles : int;  (** simulated cycles across all jobs *)
}

val jobs_of :
  ?kernel:Fpga_sim.Simulator.kernel ->
  ?differential:bool ->
  ?sweeps:int list ->
  ?replay_every:int ->
  Fpga_testbed.Bug.t list ->
  verdict job array
(** Repro jobs for every bug, plus kernel-differential pairs when
    [differential], plus one sweep job per (bug, cycle budget) in
    [sweeps], plus one replay-determinism job per bug when
    [replay_every] is set to a positive checkpoint interval. [kernel]
    pins the settle kernel for repro/differential/sweep jobs (replay
    jobs keep the default kernel so the recorded and replayed runs
    share it). *)

val run :
  ?domains:int ->
  ?kernel:Fpga_sim.Simulator.kernel ->
  ?differential:bool ->
  ?sweeps:int list ->
  ?replay_every:int ->
  Fpga_testbed.Bug.t list ->
  t

val ok : t -> bool
(** Every job completed with [v_ok]. *)

val trace_segments :
  t -> (string * Fpga_telemetry.Telemetry.Trace.segment) list
(** (label, segment) per job, in submission order — the [~jobs]
    argument of {!Fpga_telemetry.Trace_export.to_json}. *)

val to_json : t -> string
(** Schema [fpga-debug-campaign/1]: per-job wall time, worker, verdict
    (waveforms summarized as length + MD5), plus aggregate throughput,
    per-worker busy time, pool utilization, and merged telemetry. *)

val print : t -> unit

(** {1 Fuzz campaigns}

    The differential fuzzing job kind: each job is one mutant of
    {!Fpga_fuzz.Fuzz.run_one}, generated inside the job from
    [(seed, index)] alone, so the pool's slot-by-submission-index
    ordering makes any [--jobs] width produce the same results. *)

val fuzz_job :
  ?kernel:Fpga_sim.Simulator.kernel ->
  seed:int -> index:int -> unit -> Fpga_fuzz.Fuzz.result job

type fuzz_campaign = {
  f_seed : int;
  f_kernel : Fpga_sim.Simulator.kernel;
      (** primary kernel of the differential (brute-force is always
          the reference side) *)
  f_results : Fpga_fuzz.Fuzz.result job_result array;
      (** ordered by mutant index *)
  f_stats : pool_stats;
}

val run_fuzz :
  ?domains:int ->
  ?kernel:Fpga_sim.Simulator.kernel ->
  seed:int -> mutants:int -> unit -> fuzz_campaign
(** [kernel] is the primary kernel every mutant is classified under
    (default event-driven); recorded in the report's ["kernel"]
    field. *)

val fuzz_ok : fuzz_campaign -> bool
(** No kernel-mismatch classifications and no pool-level job errors —
    the fuzz-smoke CI gate. *)

val fuzz_findings : fuzz_campaign -> Fpga_fuzz.Fuzz.result list
(** The kernel mismatches, in mutant-index order. *)

val fuzz_trace_segments :
  fuzz_campaign -> (string * Fpga_telemetry.Telemetry.Trace.segment) list
(** (label, segment) per mutant job, in mutant-index order. *)

val fuzz_to_json : fuzz_campaign -> string
(** Schema [fpga-debug-fuzz/2] (v2 adds the ["kernel"] field). Contains
    only deterministic fields (no wall times, worker ids, domain
    counts, or telemetry): the same (seed, kernel) yields
    byte-identical JSON across runs and [--jobs] widths. Reproducer
    sources are summarized as (bytes, MD5). *)

val print_fuzz : fuzz_campaign -> unit
