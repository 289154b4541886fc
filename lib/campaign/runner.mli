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

(** {1 The workload registry}

    One table names every workload, says how to drive it and what it
    measures. The campaign, the per-figure [svt_sim] subcommands, the
    bench figures and the paper's speedup rows all read it. *)

module Param : sig
  type value = Int of int | Choice of string

  type t = {
    name : string;  (** also the subcommand's flag: [--name] *)
    doc : string;
    default : value;  (** the value a campaign run uses *)
    choices : string list;  (** the allowed values of a [Choice]; [[]] for an [Int] *)
  }
end

type shape =
  | Stack of ((string * Param.value) list -> Svt_core.System.t -> (string * float) list)
      (** drives one built stack; the list holds every declared parameter *)
  | Host of (Spec.point -> (string * float) list)
      (** builds its own hosts from the point's axes *)

type headline = { metric : string; lower_better : bool }

type workload = {
  name : string;
  shape : shape;
  doc : string;  (** one line, naming the paper figure it reproduces *)
  params : Param.t list;
  headline : headline option;  (** [None] only for spin, which never finishes *)
  min_vcpus : int;  (** {!make_system} raises the point's vCPU count to this *)
}

val workloads : workload list
(** In order: cpuid, rr, stream, ioping, fio, etc, tpcc, video, spin
    (a deliberately hung reflection loop for exercising the fuel budget
    — never run it without one), then the host-shaped consolidate
    (tenants time-sliced on one scheduled host) and cluster (a fleet of
    hosts behind admission control). *)

val find : string -> workload
(** Raises [Failure] naming {!workload_names} for an unknown name. *)

val drive :
  workload ->
  ?params:(string * Param.value) list ->
  Svt_core.System.t ->
  (string * float) list
(** Drive a stack-shaped workload on a built system. [params] override
    the declared defaults by name. Raises [Failure] for a host-shaped
    workload (saying it must go through {!exec}) and [Invalid_argument]
    for an undeclared parameter or a value of the wrong kind. *)

val speedup : headline -> base:float -> float -> float
(** How many times better a headline value is than [base]. *)

val stack_workload_names : string list
(** The names of the [Stack] entries of {!workloads}. *)

val workload_names : string list
(** The names of all {!workloads}. *)

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
    then {!workload_metrics}. The vCPU count is at least the workload's
    [min_vcpus]. The optional fuel budget is installed on the system's
    simulator (default: none). *)

val workload_metrics : Spec.point -> Svt_core.System.t -> (string * float) list
(** {!drive} the point's workload with its defaults on an already-built
    system and return its metric list (without the [sim_*] extras
    {!exec} appends). Raises [Failure] for a host-shaped or an unknown
    workload, as {!drive} and {!find} do. *)

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
    fuel counters. Workloads run with their declared defaults, so
    sweeps stay fast and deterministic. Also installs a timeline sink
    and appends the per-span-kind [obs.*] summary fields
    ({!Svt_obs.Export.fields}). *)
