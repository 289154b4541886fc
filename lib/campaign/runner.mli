(** Adapts one {!Spec.point} to a validated {!Svt_core.System.Config.t}
    and the workload entry points, and returns a uniform result record
    for the ledger.

    Each run builds a fresh, fully independent system whose machine PRNG
    seed is derived from the point's {!Spec.run_hash} through
    {!Svt_engine.Prng.of_seed}, so a given run_id produces bit-identical
    metrics whether it executes sequentially, on a worker domain, or in
    a re-run campaign. *)

type status =
  | Run_ok
  | Run_failed of string
  | Run_timeout
      (** the run exceeded its budget — either the pool's cooperative
          wall-clock timeout (metrics are still recorded: the work
          finished, just too slowly) or the simulator's deterministic
          fuel budget (the fuel counters become the metrics) *)
  | Run_quarantined of string
      (** pulled from retry after K consecutive failures; the payload
          carries the final exception and its backtrace *)

val status_name : status -> string
(** "ok", "failed", "timeout", "quarantined". *)

type result = {
  point : Spec.point;
  run_id : string;
  status : status;
  attempts : int;
  wall_s : float;  (** host wall-clock of the final attempt *)
  metrics : (string * float) list;
      (** workload metrics plus [sim_events] and [sim_now_us];
          empty unless [status = Run_ok] *)
}

val stack_workload_names : string list
(** The stack-shaped workloads, which {!workload_metrics} drives on one
    built system: cpuid, rr, stream, ioping, fio, etc, tpcc, video, spin
    (a deliberately hung reflection loop for exercising the fuel budget
    — never run it without one). *)

val workload_names : string list
(** The registry: {!stack_workload_names} followed by the host-shaped
    workloads consolidate (tenants time-sliced on one scheduled host)
    and cluster (a fleet of hosts behind admission control), which build
    their own hosts and run only through {!exec}. *)

val default_max_sim_events : int
(** {!exec}'s default event fuel (50M): far above any real workload but
    low enough to cut a runaway run in seconds, deterministically. *)

val make_system :
  ?max_sim_events:int ->
  ?max_sim_time:Svt_engine.Time.t ->
  Spec.point ->
  Svt_core.System.t
(** Build the point's system (content-addressed PRNG seed, paper
    config) without running anything — callers that want to install
    observability sinks first (the [trace] subcommand) use this and
    then {!workload_metrics}. The optional fuel budget is installed on
    the system's simulator (default: none). *)

val workload_metrics : Spec.point -> Svt_core.System.t -> (string * float) list
(** Drive the point's workload on an already-built system and return
    its metric list (without the [sim_*] extras {!exec} appends).
    Raises [Failure] for a host-shaped workload (saying it must go
    through {!exec}) and for an unknown one (listing
    {!workload_names}). *)

val exec :
  ?max_sim_events:int ->
  ?max_sim_time:Svt_engine.Time.t ->
  Spec.point ->
  (string * float) list
(** Run one point to completion and return its metrics; raises on
    unknown workload or simulation failure, and
    {!Svt_engine.Simulator.Budget_exhausted} when the fuel budget
    (default [max_sim_events = default_max_sim_events]) is spent — the
    campaign layer maps that to a [timeout] ledger row carrying the
    fuel counters. Workload parameters are fixed, modest constants so
    sweeps stay fast and deterministic. Also installs a timeline sink
    and appends the per-span-kind [obs.*] summary fields
    ({!Svt_obs.Export.fields}). *)
