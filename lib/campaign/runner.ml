(* The spec-point -> simulation adapter and the workload registry. One
   run = one fresh System with a content-addressed PRNG seed, one
   workload drive, one flat metric list. A campaign always drives a
   workload with its declared defaults, small fixed constants: it trades
   per-point statistical depth for matrix breadth, and identical
   parameters are what make two ledgers diffable run_id by run_id. *)

module Time = Svt_engine.Time
module Prng = Svt_engine.Prng
module System = Svt_core.System
module Machine = Svt_hyp.Machine
module Microbench = Svt_workloads.Microbench
module Netperf = Svt_workloads.Netperf
module Disk = Svt_workloads.Disk
module Etc = Svt_workloads.Etc_workload
module Tpcc = Svt_workloads.Tpcc
module Video = Svt_workloads.Video

type status =
  | Run_ok
  | Run_failed of string
  | Run_timeout
  | Run_quarantined of string

let status_name = function
  | Run_ok -> "ok"
  | Run_failed _ -> "failed"
  | Run_timeout -> "timeout"
  | Run_quarantined _ -> "quarantined"

type result = {
  point : Spec.point;
  run_id : string;
  status : status;
  attempts : int;
  wall_s : float;
  metrics : (string * float) list;
}

(* Default event fuel for campaign runs: far above any real workload
   (the largest sweep rows record ~10^5 events) but low enough that a
   runaway run is cut in seconds, deterministically, instead of wedging
   a worker domain until a wall-clock guess expires. *)
let default_max_sim_events = 50_000_000

(* The point's SVt-thread placement policy; the empty axis value means
   the scheduler's default. *)
let policy_of_point (p : Spec.point) =
  match p.Spec.policy with
  | "" -> Svt_sched.Policy.default
  | s -> (
      match Svt_sched.Policy.of_string s with
      | Ok pol -> pol
      | Error e -> failwith (Printf.sprintf "run %s: %s" (Spec.run_id p) e))

(* The consolidation workload is host-shaped, not stack-shaped: it
   builds its own topology and tenant set from the point's cores / smt /
   tenants / policy axes and time-slices [tenants] copies of the mode
   under the scheduler. Bounded by the horizon, not by event fuel. *)
let consolidate_horizon = Time.of_ms 20

(* The point's [tenants] copies of its mode, each seeded from the run
   hash. *)
let tenant_specs (p : Spec.point) =
  let rng = Prng.of_seed (Spec.run_hash p) in
  let policy = policy_of_point p in
  List.init p.Spec.tenants (fun i ->
      Svt_sched.Host.tenant_spec
        ~name:(Printf.sprintf "t%d" i)
        ~arch:p.Spec.arch ~policy ~n_vcpus:p.Spec.vcpus
        ~seed:(Prng.int rng (1 lsl 30))
        p.Spec.mode)

let consolidate_metrics (p : Spec.point) =
  let topology =
    Svt_sched.Topology.create ~sockets:1 ~cores_per_socket:p.Spec.cores
      ~smt_per_core:p.Spec.smt ()
  in
  let host = Svt_sched.Host.create ~topology () in
  List.iteri
    (fun i spec ->
      match Svt_sched.Host.add_tenant host spec with
      | Ok () -> ()
      | Error errs ->
          failwith
            (Fmt.str "run %s: tenant %d rejected: %a" (Spec.run_id p) i
               (Fmt.list ~sep:Fmt.comma System.Config.pp_error)
               errs))
    (tenant_specs p);
  Svt_sched.Host.run host ~horizon:consolidate_horizon;
  let r = Svt_sched.Host.report host in
  Svt_sched.Host.fields r
  @ [ ("sim_now_us", Time.to_us_f (Svt_sched.Host.now host)) ]

(* The fleet workload: [hosts] Sched.Hosts behind the admission
   controller, [tenants] submissions of the point's mode/policy/vcpus,
   cluster-scope faults from the point's plan. Like consolidate it is
   horizon-bounded and host-shaped; the stack half of the fault axis
   must be empty (stack faults strike inside one System — there is no
   single System here to strike). *)
let cluster_horizon = Time.of_ms 20

let cluster_metrics (p : Spec.point) =
  let stack_plan, cluster_plan =
    match Svt_fault.Cluster_plan.split_of_string p.Spec.fault with
    | Ok sp -> sp
    | Error e -> failwith (Printf.sprintf "run %s: %s" (Spec.run_id p) e)
  in
  if not (Svt_fault.Plan.is_empty stack_plan) then
    failwith
      (Printf.sprintf
         "run %s: cluster workload takes cluster-scope faults only (got %s)"
         (Spec.run_id p)
         (Svt_fault.Plan.to_string stack_plan));
  let cluster =
    Svt_cluster.Cluster.create
      {
        Svt_cluster.Cluster.default_config with
        n_hosts = p.Spec.hosts;
        sockets = 1;
        cores_per_socket = p.Spec.cores;
        smt_per_core = p.Spec.smt;
        plan = cluster_plan;
        seed = Spec.run_hash p;
      }
  in
  List.iter
    (fun spec -> ignore (Svt_cluster.Cluster.submit cluster spec))
    (tenant_specs p);
  Svt_cluster.Cluster.run cluster ~horizon:cluster_horizon;
  let r = Svt_cluster.Cluster.report cluster in
  Svt_cluster.Cluster.fields r
  @ [ ("sim_now_us", Time.to_us_f (Svt_cluster.Cluster.now cluster)) ]

(* ---- the workload registry ---- *)

module Param = struct
  type value = Int of int | Choice of string
  type t = { name : string; doc : string; default : value; choices : string list }
end

type shape =
  | Stack of ((string * Param.value) list -> System.t -> (string * float) list)
  | Host of (Spec.point -> (string * float) list)

type headline = { metric : string; lower_better : bool }

type workload = {
  name : string;
  shape : shape;
  doc : string;
  params : Param.t list;
  headline : headline option;
  min_vcpus : int;
}

let int name doc default =
  { Param.name; doc; default = Param.Int default; choices = [] }

let duration default = int "duration-ms" "Run duration in simulated ms." default
let disk_ops = [ ("randread", Disk.Randread); ("randwrite", Disk.Randwrite) ]

let op =
  { Param.name = "op"; doc = "randread or randwrite.";
    default = Param.Choice "randread"; choices = List.map fst disk_ops }

(* A drive gets every declared parameter, each checked by {!drive}. *)
let get ps name =
  match List.assoc name ps with Param.Int n -> n | Param.Choice _ -> assert false

let ms ps name = Time.of_ms (get ps name)

let disk_op ps =
  match List.assoc "op" ps with
  | Param.Choice c -> List.assoc c disk_ops
  | Param.Int _ -> assert false

let lower metric = Some { metric; lower_better = true }
let higher metric = Some { metric; lower_better = false }

let stack ?(min_vcpus = 1) name doc params headline drive =
  { name; shape = Stack drive; doc; params; headline; min_vcpus }

let host name doc headline run =
  { name; shape = Host run; doc; params = []; headline; min_vcpus = 1 }

(* Each default is the campaign's: a small fixed constant, so a sweep
   stays fast and two ledgers diff run_id by run_id. *)
let workloads =
  [
    stack "cpuid" "The cpuid micro-benchmark (Table 1 / Figure 6)."
      [ int "workload" "Dependent increments per iteration." 0 ]
      (lower "per_op_us")
      (fun ps sys ->
        let r = Microbench.measure_cpuid ~workload:(get ps "workload") sys in
        [ ("per_op_us", r.Microbench.per_op_us);
          ("samples", float_of_int r.Microbench.stats.Svt_stats.Convergence.samples_used);
          ("exits", float_of_int r.Microbench.exits) ]);
    stack "rr" "netperf TCP_RR latency (Figure 7)."
      [ int "transactions" "Round trips." 120 ] (lower "mean_rtt_us")
      (fun ps sys ->
        let r = Netperf.run_rr ~transactions:(get ps "transactions") sys in
        [ ("mean_rtt_us", r.Netperf.mean_rtt_us); ("p99_rtt_us", r.Netperf.p99_rtt_us);
          ("transactions", float_of_int r.Netperf.transactions) ]);
    stack "stream" "netperf TCP_STREAM throughput (Figure 7)."
      [ duration 10 ] (higher "mbps")
      (fun ps sys ->
        let r = Netperf.run_stream ~duration:(ms ps "duration-ms") sys in
        [ ("mbps", r.Netperf.mbps); ("packets", float_of_int r.Netperf.packets) ]);
    stack "ioping" "512 B disk latency at QD1 (Figure 7)."
      [ op; int "ops" "Operations." 100 ] (lower "mean_us")
      (fun ps sys ->
        let r = Disk.run_ioping ~ops:(get ps "ops") ~op:(disk_op ps) sys in
        [ ("mean_us", r.Disk.mean_us); ("p99_us", r.Disk.p99_us) ]);
    stack "fio" "4 KB disk bandwidth (Figure 7)."
      [ op; int "ops" "Operations." 200; int "depth" "Queue depth." 8 ]
      (higher "kb_per_sec")
      (fun ps sys ->
        let r =
          Disk.run_fio ~ops:(get ps "ops") ~depth:(get ps "depth") ~op:(disk_op ps) sys
        in
        [ ("kb_per_sec", r.Disk.kb_per_sec) ]);
    (* memcached serves one worker per vCPU; keep the paper's 2-vCPU
       floor so the Figure 8 shape survives a 1-vCPU axis. *)
    stack "etc" ~min_vcpus:2 "memcached with Facebook's ETC workload (Figure 8)."
      [ int "qps" "Offered load." 10_000; duration 30 ] (lower "p99_us")
      (fun ps sys ->
        let qps = float_of_int (get ps "qps") in
        let r = Etc.run_point ~duration:(ms ps "duration-ms") ~qps sys in
        [ ("achieved_qps", r.Etc.achieved_qps); ("avg_us", r.Etc.avg_us);
          ("p99_us", r.Etc.p99_us); ("requests", float_of_int r.Etc.requests) ]);
    stack "tpcc" "TPC-C over the mini storage engine (Figure 9)."
      [ duration 50 ] (higher "tpm")
      (fun ps sys ->
        let r = Tpcc.run ~duration:(ms ps "duration-ms") sys in
        [ ("tpm", r.Tpcc.tpm); ("transactions", float_of_int r.Tpcc.transactions);
          ("new_orders", float_of_int r.Tpcc.new_orders) ]);
    stack "video" "Soft-realtime video playback (Figure 10)."
      [ int "fps" "Frame rate." 60; int "seconds" "Playback length." 30 ]
      (lower "dropped")
      (fun ps sys ->
        let r = Video.run ~seconds:(get ps "seconds") ~fps:(get ps "fps") sys in
        [ ("dropped", float_of_int r.Video.dropped);
          ("frames", float_of_int r.Video.frames);
          ("idle_fraction", r.Video.idle_fraction) ]);
    (* Deliberately hung: every cpuid is a full nested exit episode, and
       only the simulator's fuel budget ends the loop. The resume golden
       test's timeout row. *)
    stack "spin" "A hung reflection loop that only a fuel budget ends." [] None
      (fun _ sys ->
        Svt_hyp.Vcpu.spawn_program (System.vcpu0 sys) (fun v ->
            while true do
              ignore (Svt_core.Guest.cpuid v ~leaf:1)
            done);
        System.run sys;
        [ ("iterations", nan) ]);
    host "consolidate" "Tenants time-sliced on one scheduled SMT host."
      (higher "sched.aggregate_kops") consolidate_metrics;
    host "cluster" "A fleet of hosts behind admission control."
      (higher "cluster.aggregate_kops") cluster_metrics;
  ]

let workload_names = List.map (fun w -> w.name) workloads

let stack_workload_names =
  List.filter_map
    (fun w -> match w.shape with Stack _ -> Some w.name | Host _ -> None)
    workloads

let find_opt name = List.find_opt (fun w -> w.name = name) workloads

let find name =
  match find_opt name with
  | Some w -> w
  | None ->
      failwith
        (Printf.sprintf "unknown workload %S (expected one of %s)" name
           (String.concat ", " workload_names))

let speedup h ~base v = if h.lower_better then base /. v else v /. base

let drive w ?(params = []) sys =
  match w.shape with
  | Host _ ->
      failwith
        (Printf.sprintf
           "workload %S is host-shaped: it builds its own hosts rather than \
            driving one stack, so it runs only through Runner.exec"
           w.name)
  | Stack f ->
      let valid (p : Param.t) = function
        | Param.Int _ -> p.choices = []
        | Param.Choice c -> List.mem c p.choices
      in
      List.iter
        (fun (k, v) ->
          match List.find_opt (fun (p : Param.t) -> p.name = k) w.params with
          | Some p when valid p v -> ()
          | _ -> invalid_arg (Printf.sprintf "workload %s: bad parameter %s" w.name k))
        params;
      f (params @ List.map (fun (p : Param.t) -> (p.name, p.default)) w.params) sys

let make_system ?max_sim_events ?max_sim_time (p : Spec.point) =
  (* Derive the machine seed from the run hash: independent stream per
     run_id, stable across scheduling orders (Prng satellite). The fault
     seed is a further draw from the same stream, so it is equally
     content-addressed. *)
  let rng = Prng.of_seed (Spec.run_hash p) in
  let seed = Prng.int rng (1 lsl 30) in
  let fault_seed = Prng.next_int64 rng in
  let config = { Machine.paper_config with seed } in
  let n_vcpus =
    match find_opt p.Spec.workload with
    | Some w -> max w.min_vcpus p.Spec.vcpus
    | None -> p.Spec.vcpus
  in
  let faults =
    match Svt_fault.Plan.of_string p.Spec.fault with
    | Ok plan -> plan
    | Error e -> failwith (Printf.sprintf "run %s: %s" (Spec.run_id p) e)
  in
  System.of_config
    (System.Config.make ~arch:p.Spec.arch ~machine:config ~n_vcpus ~faults
       ~fault_seed ?max_sim_events ?max_sim_time ~mode:p.Spec.mode
       ~level:p.Spec.level ())

let workload_metrics (p : Spec.point) sys = drive (find p.Spec.workload) sys

let exec ?(max_sim_events = default_max_sim_events) ?max_sim_time p =
  match find_opt p.Spec.workload with
  | Some { shape = Host host_metrics; _ } -> host_metrics p
  | Some { shape = Stack _; _ } | None ->
      let sys = make_system ~max_sim_events ?max_sim_time p in
      (* Per-span-kind summaries ride along in every ledger row, so
         sweep-diff can compare exit-path composition across revisions. The
         timeline sink never advances virtual time, so the workload metrics
         are identical with or without it. *)
      let tl = Svt_obs.Recorder.enable_timeline (System.obs sys) in
      let metrics = workload_metrics p sys in
      let sim = System.sim sys in
      let inj = System.injector sys in
      let fault_fields =
        if Svt_fault.Injector.is_active inj then Svt_fault.Injector.fields inj
        else []
      in
      metrics
      @ Svt_obs.Export.fields tl
      @ fault_fields
      @ [
          ("sim_events", float_of_int (Svt_engine.Simulator.events_processed sim));
          ("sim_now_us", Time.to_us_f (Svt_engine.Simulator.now sim));
        ]
