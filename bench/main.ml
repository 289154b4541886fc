(* The reproduction harness: regenerates every table and figure of the
   paper's evaluation (section 6) and prints measured-vs-paper comparisons.

       dune exec bench/main.exe             # everything
       dune exec bench/main.exe -- fig7     # one section
       dune exec bench/main.exe -- quick    # shortened runs
       dune exec bench/main.exe -- jobs=4   # shard run matrices over domains

   Sections: table1 table2 table3 table4 fig6 fig7 fig8 fig9 fig10
             channels ablation faults sched cluster profile perf-check

   An unknown section or a malformed jobs=N exits 2 and lists the
   sections. Every section's quick output except fig10's is pinned in
   test/golden.

   The matrix-shaped sections (fig6, fig7, fig10) go through the
   lib/campaign worker pool: jobs=1 (the default) is the sequential
   deterministic path, jobs=N shards the runs over N domains. Per-run
   results are identical either way; only wall-clock changes.

   Absolute parity with the authors' testbed is not the goal (our
   substrate is a simulator calibrated against the paper's own Table 1);
   the comparisons show shape: who wins, by what factor, where knees and
   crossovers sit. EXPERIMENTS.md records a full run. *)

module Time = Svt_engine.Time
module Mode = Svt_core.Mode
module System = Svt_core.System
module Guest = Svt_core.Guest
module Vcpu = Svt_hyp.Vcpu
module Table = Svt_stats.Table
module Metrics = Svt_stats.Metrics
module Paper = Svt_report.Paper
module Microbench = Svt_workloads.Microbench
module Etc = Svt_workloads.Etc_workload
module Channel_bench = Svt_workloads.Channel_bench
module Spec = Svt_campaign.Spec
module Campaign = Svt_campaign.Campaign
module Runner = Svt_campaign.Runner

let args = List.tl (Array.to_list Sys.argv)
let quick = List.mem "quick" args

(* Worker domains for the campaign-shaped sections; set from jobs=N. *)
let jobs = ref 1

(* Run a bench matrix through the campaign pool and hand back a lookup
   by run_id; a failed point aborts the section like an uncaught
   exception used to. *)
let campaign_lookup ?run ~label spec =
  let o = Campaign.execute ~jobs:!jobs ~retries:0 ~progress_label:label ?run spec in
  let fail point what =
    failwith (Printf.sprintf "%s: %s %s" label (Spec.canonical_key point) what)
  in
  List.iter
    (fun (r : Runner.result) ->
      match r.Runner.status with
      | Runner.Run_ok -> ()
      | Runner.Run_failed msg -> fail r.Runner.point ("failed: " ^ msg)
      | Runner.Run_timeout -> fail r.Runner.point "timed out"
      | Runner.Run_quarantined msg -> fail r.Runner.point ("quarantined: " ^ msg))
    o.Campaign.results;
  fun point metric ->
    match
      List.find_opt
        (fun (r : Runner.result) -> r.Runner.run_id = Spec.run_id point)
        o.Campaign.results
    with
    | None -> fail point "missing"
    | Some r -> (
        match List.assoc_opt metric r.Runner.metrics with
        | Some v -> v
        | None -> fail point (Printf.sprintf "has no metric %S" metric))

let header title = Printf.printf "\n==== %s ====\n\n%!" title

(* A registry workload and its headline metric. *)
let registry name =
  let w = Runner.find name in
  (w, Option.get w.Runner.headline)

let nested ?arch ?machine ?n_vcpus ?shadow ?multiplex_contexts mode =
  System.of_config
    (System.Config.make ?arch ?machine ?n_vcpus ?shadow ?multiplex_contexts
       ~mode ~level:System.L2_nested ())

(* ---------------------------------------------------------------- Table 1 *)

let table1 () =
  header "Table 1: breakdown of a cpuid in a nested VM (baseline)";
  let sys = nested Mode.Baseline in
  let r = Microbench.measure_cpuid sys in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "Part"; "Time (us)"; "Perc. (%)"; "paper us"; "paper %" ]
  in
  List.iter2
    (fun (name, time, pct) p ->
      Table.add_row t
        [
          name;
          Printf.sprintf "%.2f" (Time.to_us_f time);
          Printf.sprintf "%.2f" pct;
          Printf.sprintf "%.2f" p.Paper.time_us;
          Printf.sprintf "%.2f" p.Paper.percent;
        ])
    r.Microbench.breakdown Paper.table1;
  Table.print t;
  Printf.printf
    "\ntotal: %.2f us measured vs %.2f us paper (%d samples, converged=%b)\n"
    r.Microbench.per_op_us Paper.table1_total_us
    r.Microbench.stats.Svt_stats.Convergence.samples_used
    r.Microbench.stats.Svt_stats.Convergence.converged

(* ------------------------------------------------------------- Tables 2-4 *)

let table2 () =
  header "Table 2: SVt architectural and micro-architectural state";
  let t =
    Table.create ~aligns:[ Table.Left; Table.Left; Table.Left ]
      [ "Name"; "Type"; "Purpose" ]
  in
  List.iter
    (fun d ->
      Table.add_row t
        [ d.Svt_core.Svt_fields.name;
          Svt_core.Svt_fields.kind_name d.Svt_core.Svt_fields.kind;
          d.Svt_core.Svt_fields.purpose ])
    Svt_core.Svt_fields.table2;
  Table.print t

let table3 () =
  header "Table 3: the paper's SW SVt prototype code changes (for reference)";
  let t =
    Table.create ~aligns:[ Table.Left; Table.Right; Table.Right ]
      [ "Codebase"; "LOCs added"; "LOCs removed" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [ r.Paper.codebase; string_of_int r.Paper.added;
          string_of_int r.Paper.removed ])
    Paper.table3;
  Table.print t;
  print_endline
    "\nThis repository implements the equivalent machinery from scratch:\n\
     the SW SVt runtime lives in lib/core (channel.ml, nested.ml), the\n\
     hardware design in lib/core + lib/arch (svt_fields.ml, smt_core.ml)."

let table4 () =
  header "Table 4: machine parameters (simulated)";
  let t = Table.create ~aligns:[ Table.Left; Table.Left ] [ "Level"; "Description" ] in
  List.iter (fun (l, d) -> Table.add_row t [ l; d ]) Paper.table4;
  Table.print t;
  let cm = Svt_arch.Cost_model.paper_machine in
  Printf.printf
    "\ncalibrated cost model: trap %dns, resume %dns, world-switch extra %dns,\n\
     transform %d+%d/field ns, mwait wake %dns, thread switch %dns\n"
    cm.trap_hw cm.resume_hw cm.l1_world_extra cm.transform_base
    cm.transform_per_field cm.mwait_wake cm.thread_switch

(* ---------------------------------------------------------------- Figure 6 *)

let fig6 () =
  header "Figure 6: cpuid latency per level and mode";
  (* The level/mode matrix as a campaign spec; the pool shards it when
     jobs > 1 and the run_id-derived seeding keeps every bar identical
     to the sequential run. *)
  let bars =
    [
      ("L0", Spec.point ~level:System.L0_native Mode.Baseline);
      ("L1", Spec.point ~level:System.L1_leaf Mode.Baseline);
      ("L2", Spec.point Mode.Baseline);
      ("SW SVt", Spec.point Mode.sw_svt_default);
      ("HW SVt", Spec.point Mode.Hw_svt);
      ("OoH", Spec.point Mode.Ooh);
      ("HW full nesting", Spec.point Mode.Hw_full_nesting);
    ]
  in
  let lookup = campaign_lookup ~label:"fig6" (List.map snd bars) in
  let time_us p = lookup p "per_op_us" in
  let l0_us = time_us (List.assoc "L0" bars) in
  let l2_us = time_us (List.assoc "L2" bars) in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "config"; "time (us)"; "overhead vs L0"; "speedup vs L2" ]
  in
  List.iter
    (fun (label, p) ->
      let us = time_us p in
      Table.add_row t
        [
          label;
          Printf.sprintf "%.2f" us;
          Printf.sprintf "%.1fx" (us /. l0_us);
          (if
             label = "SW SVt" || label = "HW SVt" || label = "OoH"
             || label = "HW full nesting"
           then Printf.sprintf "%.2fx" (l2_us /. us)
           else "-");
        ])
    bars;
  Table.print t;
  Printf.printf "\npaper: SW SVt %.2fx, HW SVt %.2fx\n" Paper.fig6_sw_speedup
    Paper.fig6_hw_speedup;
  (* The cross-ISA claim: ARM NV/VHE redirects every nested exit through
     a memory-backed sysreg image instead of a cached VMCS, so its
     baseline is uniformly costlier and SVt's relative win uniformly
     larger than on x86. *)
  Printf.printf "\nper-exit L2 latency, x86/VMX vs ARM NV/VHE (SVt = sw-svt):\n";
  let x86 = Microbench.per_exit_table ~arch:Svt_arch.Backend.X86 () in
  let arm = Microbench.per_exit_table ~arch:Svt_arch.Backend.Arm () in
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Left; Table.Right;
          Table.Right ]
      [ "x86 exit"; "base (us)"; "speedup"; "arm exit"; "base (us)"; "speedup" ]
  in
  List.iter2
    (fun (x : Microbench.exit_row) (a : Microbench.exit_row) ->
      Table.add_row t
        [
          x.Microbench.exit_label;
          Printf.sprintf "%.2f" x.Microbench.baseline_us;
          Printf.sprintf "%.2fx" x.Microbench.speedup;
          a.Microbench.exit_label;
          Printf.sprintf "%.2f" a.Microbench.baseline_us;
          Printf.sprintf "%.2fx" a.Microbench.speedup;
        ])
    x86 arm;
  Table.print t

(* ---------------------------------------------------------------- Figure 7 *)

let fig7 () =
  header "Figure 7: I/O subsystem benchmarks";
  let int n = Runner.Param.Int n in
  let op o = ("op", Runner.Param.Choice o) in
  let rr = [ ("transactions", int (if quick then 100 else 300)) ] in
  let stream = [ ("duration-ms", int (if quick then 15 else 30)) ] in
  let io_n = ("ops", int (if quick then 100 else 250)) in
  let fio_n = ("ops", int (if quick then 200 else 400)) in
  (* (row label, Paper.fig7 row, registry workload, its quick-aware
     parameters). The 6-row x 4-mode matrix runs through the campaign
     pool, each point keyed on its Paper.fig7 row name. *)
  let rows =
    [
      ("network latency", "net-latency", "rr", rr);
      ("network bandwidth", "net-bandwidth", "stream", stream);
      ("disk randrd latency", "disk-randrd-latency", "ioping", [ op "randread"; io_n ]);
      ("disk randrd bandwidth", "disk-randrd-bandwidth", "fio", [ op "randread"; fio_n ]);
      ("disk randwr latency", "disk-randwr-latency", "ioping", [ op "randwrite"; io_n ]);
      ("disk randwr bandwidth", "disk-randwr-bandwidth", "fio", [ op "randwrite"; fio_n ]);
    ]
  in
  let modes = [ Mode.Baseline; Mode.sw_svt_default; Mode.Hw_svt; Mode.Ooh ] in
  let spec =
    Spec.cartesian ~modes ~workloads:(List.map (fun (_, key, _, _) -> key) rows) ()
  in
  let run (p : Spec.point) =
    let _, _, name, params =
      List.find (fun (_, key, _, _) -> key = p.Spec.workload) rows
    in
    Runner.drive (Runner.find name) ~params (nested p.Spec.mode)
  in
  let lookup = campaign_lookup ~run ~label:"fig7" spec in
  List.iter
    (fun (label, key, name, _) ->
      let _, h = registry name in
      let value mode = lookup (Spec.point ~workload:key mode) h.Runner.metric in
      let base = value Mode.Baseline in
      let speedup mode = Runner.speedup h ~base (value mode) in
      let paper = List.find (fun r -> r.Paper.name = key) Paper.fig7 in
      Printf.printf
        "%-22s base %10.1f %-5s | SW %5.2fx (paper %.2fx) | HW %5.2fx (paper \
         %.2fx) | OoH %5.2fx\n\
         %!"
        label base paper.Paper.unit_ (speedup Mode.sw_svt_default)
        paper.Paper.sw_speedup (speedup Mode.Hw_svt) paper.Paper.hw_speedup
        (speedup Mode.Ooh))
    rows;
  Printf.printf
    "\nnote: paper baselines: 163us / 9387Mbps / 126us / 87136KB/s / 179us / 55769KB/s.\n\
     The HW bandwidth row cannot exceed 1.0x here when the wire is the\n\
     bottleneck; the paper's 1.12x comes from its analytic trap-cost scaling\n\
     (see EXPERIMENTS.md).\n"

(* ---------------------------------------------------------------- Figure 8 *)

let fig8 () =
  header "Figure 8: memcached latency vs load (Facebook ETC, SLA 500us p99)";
  let duration = Time.of_ms (if quick then 40 else 120) in
  let loads =
    if quick then [ 5_000.; 10_000.; 15_000.; 20_000. ]
    else [ 5_000.; 7_500.; 10_000.; 12_500.; 15_000.; 17_500.; 20_000.; 22_500. ]
  in
  let sweep mode = Etc.sweep ~loads ~duration ~mode () in
  let base = sweep Mode.Baseline in
  let svt = sweep Mode.sw_svt_default in
  let t =
    Table.create
      ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "load (qps)"; "base avg"; "base p99"; "svt avg"; "svt p99" ]
  in
  List.iter2
    (fun b s ->
      Table.add_row t
        [
          Printf.sprintf "%.0f" b.Etc.offered_qps;
          Printf.sprintf "%.0f us" b.Etc.avg_us;
          Printf.sprintf "%.0f us" b.Etc.p99_us;
          Printf.sprintf "%.0f us" s.Etc.avg_us;
          Printf.sprintf "%.0f us" s.Etc.p99_us;
        ])
    base svt;
  Table.print t;
  let cap_b = Etc.capacity_within_sla base in
  let cap_s = Etc.capacity_within_sla svt in
  let last_b = List.nth base (List.length base - 1) in
  let last_s = List.nth svt (List.length svt - 1) in
  Printf.printf
    "\ncapacity within SLA: baseline %.0f qps, SVt %.0f qps -> %.2fx (paper %.2fx)\n"
    cap_b cap_s
    (if cap_b > 0.0 then cap_s /. cap_b else nan)
    Paper.fig8_p99_speedup;
  Printf.printf "avg latency at peak load: %.2fx (paper %.2fx)\n"
    (last_b.Etc.avg_us /. last_s.Etc.avg_us)
    Paper.fig8_avg_speedup;
  (* section 6.3.1 profiling claim *)
  let s = nested ~n_vcpus:2 Mode.Baseline in
  let _ = Etc.run_point ~duration ~qps:17_500.0 s in
  let m = System.metrics s in
  let whole = Svt_engine.Simulator.now (System.sim s) in
  Printf.printf
    "L0 time shares at 17.5k qps: EPT_MISCONFIG %.1f%% (paper 4.8-19.3%%), \
     MSR_WRITE %.1f%% (paper 0.5-4.6%%)\n"
    (100.0 *. Metrics.time_share m "l2_exit_time.EPT_MISCONFIG" ~whole)
    (100.0 *. Metrics.time_share m "l2_exit_time.MSR_WRITE" ~whole)

(* ---------------------------------------------------------------- Figure 9 *)

let fig9 () =
  header "Figure 9: TPC-C throughput";
  let tpcc, h = registry "tpcc" in
  let params = [ ("duration-ms", Runner.Param.Int (if quick then 150 else 400)) ] in
  let run mode = Runner.drive tpcc ~params (nested mode) in
  let base = run Mode.Baseline in
  let svt = run Mode.sw_svt_default in
  let count r k = int_of_float (List.assoc k r) in
  let tpm r = List.assoc h.Runner.metric r in
  Printf.printf "baseline: %7.0f tpm (%d txns, %d new-order)\n" (tpm base)
    (count base "transactions") (count base "new_orders");
  Printf.printf "SVt:      %7.0f tpm (%d txns)\n" (tpm svt) (count svt "transactions");
  Printf.printf "speedup:  %.2fx (paper %.2fx; paper SVt absolute %.0f Ktpm)\n"
    (Runner.speedup h ~base:(tpm base) (tpm svt))
    Paper.fig9_speedup
    (Paper.fig9_svt_tpm /. 1000.0)

(* --------------------------------------------------------------- Figure 10 *)

let fig10 () =
  header "Figure 10: video playback dropped frames (5 min of playback)";
  let seconds = if quick then 120 else 300 in
  (* fps × mode matrix through the campaign pool; each fps becomes a
     workload name so the points stay distinguishable by run_id. *)
  let workload_of_fps fps = Printf.sprintf "video-%d" fps in
  let spec =
    Spec.cartesian
      ~modes:[ Mode.Baseline; Mode.sw_svt_default ]
      ~workloads:(List.map (fun p -> workload_of_fps p.Paper.fps) Paper.fig10)
      ()
  in
  let video, h = registry "video" in
  let run (p : Spec.point) =
    let fps = Scanf.sscanf p.Spec.workload "video-%d" Fun.id in
    Runner.drive video
      ~params:[ ("fps", Runner.Param.Int fps); ("seconds", Runner.Param.Int seconds) ]
      (nested p.Spec.mode)
  in
  let lookup = campaign_lookup ~run ~label:"fig10" spec in
  let drops mode fps =
    int_of_float
      (lookup (Spec.point ~workload:(workload_of_fps fps) mode) h.Runner.metric)
  in
  let t =
    Table.create
      ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "fps"; "baseline"; "SVt"; "paper base"; "paper SVt" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          string_of_int p.Paper.fps;
          string_of_int (drops Mode.Baseline p.Paper.fps);
          string_of_int (drops Mode.sw_svt_default p.Paper.fps);
          string_of_int p.Paper.baseline_drops;
          string_of_int p.Paper.svt_drops;
        ])
    Paper.fig10;
  Table.print t;
  if quick then print_endline "(quick mode: 2 min of playback; drops scale ~linearly)"

(* ----------------------------------------------------- section 6.1 sweep *)

let channels () =
  header "Section 6.1: communication-channel microbenchmark";
  let samples = Channel_bench.sweep () in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "mechanism"; "placement"; "workload"; "latency (us)"; "worker slowdown" ]
  in
  List.iter
    (fun s ->
      Table.add_row t
        [
          Channel_bench.mechanism_name s.Channel_bench.mechanism;
          Mode.placement_name s.Channel_bench.placement;
          string_of_int s.Channel_bench.workload_increments;
          Printf.sprintf "%.2f" s.Channel_bench.round_trip_us;
          Printf.sprintf "%.2fx" s.Channel_bench.worker_slowdown;
        ])
    samples;
  Table.print t;
  print_endline
    "\npaper's conclusions, reproduced: polling is fastest at small\n\
     workloads but steals SMT cycles as the workload grows; cross-NUMA\n\
     placement costs an order of magnitude; mwait is the compromise."

(* ---------------------------------------------------------------- ablation *)

let ablation () =
  header "Ablations (design choices called out in DESIGN.md)";
  print_endline "a) SW SVt wait mechanism (nested cpuid latency):";
  List.iter
    (fun wait ->
      let mode = Mode.Sw_svt { wait; placement = Mode.Smt_sibling } in
      let r = Microbench.measure_cpuid (nested mode) in
      Printf.printf "   %-8s %6.2f us\n%!" (Mode.wait_name wait)
        r.Microbench.per_op_us)
    [ Mode.Polling; Mode.Mwait; Mode.Mutex ];
  print_endline "b) SVt-thread placement (mwait):";
  List.iter
    (fun placement ->
      let mode = Mode.Sw_svt { wait = Mode.Mwait; placement } in
      let r = Microbench.measure_cpuid (nested mode) in
      Printf.printf "   %-16s %6.2f us\n%!" (Mode.placement_name placement)
        r.Microbench.per_op_us)
    [ Mode.Smt_sibling; Mode.Same_numa_core; Mode.Cross_numa ];
  print_endline "c) HW SVt sensitivity to ctxtld/ctxtst cost:";
  List.iter
    (fun ns ->
      let cost = { Svt_arch.Cost_model.paper_machine with ctxt_reg_access = ns } in
      let machine = { Svt_hyp.Machine.paper_config with cost } in
      let sys = nested ~machine Mode.Hw_svt in
      let r = Microbench.measure_cpuid sys in
      Printf.printf "   %3d ns/access  %6.2f us\n%!" ns r.Microbench.per_op_us)
    [ 1; 4; 16; 64 ];
  print_endline
    "d) auxiliary L1->L0 exits during one EPT_MISCONFIG (baseline vs HW SVt):";
  List.iter
    (fun aux ->
      let per_reason r =
        let p = Svt_arch.Cost_model.paper_profiles r in
        if r = Svt_arch.Exit_reason.Ept_misconfig then
          { p with Svt_arch.Cost_model.l1_aux_exits = aux }
        else p
      in
      let cost = { Svt_arch.Cost_model.paper_machine with per_reason } in
      let machine = { Svt_hyp.Machine.paper_config with cost } in
      let t mode =
        let sys = nested ~machine mode in
        let net, _ = System.attach_net sys in
        let vcpu = System.vcpu0 sys in
        let out = ref 0.0 in
        Vcpu.spawn_program vcpu (fun v ->
            let gpa = Svt_virtio.Virtio_net.doorbell_gpa net in
            Guest.mmio_write32 v gpa 1;
            let t0 = Svt_engine.Simulator.Proc.now () in
            Guest.mmio_write32 v gpa 1;
            out := Time.to_us_f (Time.diff (Svt_engine.Simulator.Proc.now ()) t0));
        System.run sys;
        !out
      in
      Printf.printf "   aux=%2d  baseline %6.2f us   hw-svt %6.2f us\n%!" aux
        (t Mode.Baseline) (t Mode.Hw_svt))
    [ 0; 7; 14; 21 ];
  print_endline "e) hardware VMCS shadowing (baseline nested cpuid):";
  List.iter
    (fun (label, shadow) ->
      let sys = nested ~shadow Mode.Baseline in
      let r = Microbench.measure_cpuid sys in
      Printf.printf "   %-10s %6.2f us\n%!" label r.Microbench.per_op_us)
    [ ("enabled", Svt_vmcs.Shadow.hardware_shadowing_enabled);
      ("disabled", Svt_vmcs.Shadow.no_shadowing) ];
  print_endline
    "f) the design-space endpoints (nested cpuid; section 3's trade-off):";
  List.iter
    (fun mode ->
      let r = Microbench.measure_cpuid (nested mode) in
      Printf.printf "   %-18s %6.2f us\n%!" (Mode.name mode)
        r.Microbench.per_op_us)
    [ Mode.Baseline; Mode.sw_svt_default; Mode.Hw_svt; Mode.Ooh;
      Mode.Hw_full_nesting ];
  print_endline
    "g) context multiplexing (section 3.1): HW SVt on a 2-context core,\n\
    \   where L1 and L2 share a hardware context:";
  List.iter
    (fun (label, multiplex_contexts) ->
      let sys = nested ~multiplex_contexts Mode.Hw_svt in
      let r = Microbench.measure_cpuid sys in
      Printf.printf "   %-22s %6.2f us\n%!" label r.Microbench.per_op_us)
    [ ("3 contexts (proposal)", false); ("2 contexts (multiplexed)", true) ]

(* ----------------------------------------------------------------- faults *)

(* Graceful degradation under injected faults: latency of the SW SVt rr
   path as ring-fault rates rise, plus the typed outcome counts. The
   interesting shape: moderate fault rates cost retries and watchdog
   stalls, certain loss costs a downgrade to baseline reflection — the
   run always completes. *)
let faults () =
  header "faults: SW SVt TCP_RR under injected ring faults";
  Printf.printf "   %-34s %12s %10s %10s %10s\n" "plan" "mean_rtt_us"
    "injected" "retries" "downgrades";
  List.iter
    (fun plan ->
      let p =
        Spec.point ~workload:"rr" ~seed:1 ~fault:plan Mode.sw_svt_default
      in
      let m = Runner.exec p in
      let metric k =
        match List.assoc_opt k m with Some v -> v | None -> 0.0
      in
      let injected =
        List.fold_left
          (fun acc (k, v) ->
            if String.length k > 15 && String.sub k 0 15 = "fault.injected." then
              acc +. v
            else acc)
          0.0 m
      in
      Printf.printf "   %-34s %12.1f %10.0f %10.0f %10.0f\n%!"
        (if plan = "" then "(none)" else plan)
        (metric "mean_rtt_us") injected
        (metric "fault.resume-retry")
        (metric "fault.downgrade"))
    [
      "";
      "drop-ring:0.01";
      "drop-ring:0.05";
      "drop-ring:0.05,corrupt-vmcs12:0.02";
      "drop-ring:1";
    ]

(* ------------------------------------------------------------------ sched *)

(* A host configuration's row label: the policy only means something for
   SW SVt stacks. *)
let config_label mode policy =
  match mode with
  | Mode.Sw_svt _ ->
      Printf.sprintf "%s/%s" (Mode.to_string mode) (Svt_sched.Policy.name policy)
  | _ -> Mode.to_string mode

(* Whole-host consolidation: eight single-vCPU tenants (each a complete
   nested stack) packed onto a 4-core x 2-SMT host under each SVt-thread
   provisioning policy. The interesting shape: dedicating a sibling per
   vCPU halves the schedulable slots (aggregate drops below plain SMT
   sharing), on-demand donation recovers the slots at a per-episode wake
   cost, and a shared pool lands in between. *)
let sched () =
  header "sched: 8-tenant consolidation on a 4-core x 2-SMT host";
  let module Topology = Svt_sched.Topology in
  let module Policy = Svt_sched.Policy in
  let module Host = Svt_sched.Host in
  let horizon = Svt_engine.Time.of_ms (if quick then 5 else 20) in
  Printf.printf "   %-28s %9s %13s %10s %10s %9s\n" "configuration" "agg kops"
    "per-exit(us)" "occupancy" "steal(ms)" "wake(us)";
  List.iter
    (fun (mode, policy) ->
      let topology =
        Topology.create ~sockets:1 ~cores_per_socket:4 ~smt_per_core:2 ()
      in
      let host = Host.create ~topology () in
      for i = 0 to 7 do
        match Host.add_tenant host (Host.tenant_spec ~policy ~seed:i mode) with
        | Ok () -> ()
        | Error es ->
            failwith
              (Fmt.str "tenant %d rejected: %a" i
                 Fmt.(list ~sep:(any "; ") Svt_core.System.Config.pp_error)
                 es)
      done;
      Host.run host ~horizon;
      let r = Host.report host in
      let sum f = List.fold_left (fun a tr -> a +. f tr) 0.0 r.Host.tenant_reports in
      Printf.printf "   %-28s %9.1f %13.2f %9.1f%% %10.2f %9.1f\n%!" (config_label mode policy)
        r.Host.aggregate_kops
        (sum (fun tr -> tr.Host.per_exit_us) /. float_of_int (max 1 (List.length r.Host.tenant_reports)))
        (100.0 *. r.Host.occupancy)
        (sum (fun tr -> tr.Host.steal_ms))
        (sum (fun tr -> tr.Host.wake_penalty_us)))
    [
      (Mode.Baseline, Policy.default);
      (Mode.sw_svt_default, Svt_core.Mode.Dedicated_sibling);
      (Mode.sw_svt_default, Svt_core.Mode.On_demand_donation);
      (Mode.sw_svt_default, Svt_core.Mode.Shared_pool { threads = 2 });
      (Mode.Hw_svt, Policy.default);
      (Mode.Ooh, Policy.default);
    ]

(* ---------------------------------------------------------------- cluster *)

(* The fault-tolerant fleet: the same four headline modes, each as 12
   tenants submitted to a 4-host fleet under a crash+flap+degrade plan.
   The interesting shape: every mode survives the same seeded fault
   sequence (identical eviction counts), aggregate throughput keeps the
   fig6 mode ordering, and no tenant is ever lost — placed + queued +
   rejected always sums to the submissions. *)
let cluster () =
  header "cluster: 12 tenants on a faulty 4-host fleet";
  let module Policy = Svt_sched.Policy in
  let module Host = Svt_sched.Host in
  let module Cluster = Svt_cluster.Cluster in
  let horizon = Svt_engine.Time.of_ms (if quick then 5 else 20) in
  let plan =
    Svt_fault.Cluster_plan.of_string_exn
      "host-crash:0.01,host-degrade:0.01,host-flap:0.02"
  in
  Printf.printf "   %-28s %9s %7s %7s %7s %7s %12s\n" "configuration"
    "agg kops" "placed" "evict" "readm" "quar" "p99-exit(us)";
  List.iter
    (fun (mode, policy) ->
      let fleet =
        Cluster.create { Cluster.default_config with plan; seed = 42L }
      in
      for i = 0 to 11 do
        ignore (Cluster.submit fleet (Host.tenant_spec ~policy ~seed:i mode))
      done;
      Cluster.run fleet ~horizon;
      let r = Cluster.report fleet in
      if not r.Cluster.r_conserved then failwith "cluster: tenant lost";
      Printf.printf "   %-28s %9.1f %7d %7d %7d %7d %12.2f\n%!" (config_label mode policy)
        r.Cluster.r_aggregate_kops r.Cluster.r_placed r.Cluster.r_evictions
        r.Cluster.r_readmissions r.Cluster.r_quarantines
        r.Cluster.r_survivor_p99_per_exit_us)
    [
      (Mode.Baseline, Policy.default);
      (Mode.sw_svt_default, Svt_core.Mode.Dedicated_sibling);
      (Mode.Hw_svt, Policy.default);
      (Mode.Ooh, Policy.default);
    ]

(* ---------------------------------------------------------------- profile *)

(* Self-profiling trajectory (BENCH_obs.json): how fast the simulator
   retires events on the paper's two characteristic shapes — the fig6
   nested cpuid microbench and a whole-host consolidation run — plus
   what the profiler itself costs when armed (wall-clock ratio and
   allocated bytes per event). The simulated results are identical with
   the profiler on or off (the determinism suite asserts it); these
   numbers only track the host-side cost trajectory across PRs. *)
let profile () =
  header "profile: self-profiler throughput + overhead (BENCH_obs.json)";
  let module Profiler = Svt_obs.Profiler in
  let module Simulator = Svt_engine.Simulator in
  let reps = if quick then 3 else 7 in
  let median samples =
    let a = Array.of_list samples in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let p = Spec.point ~workload:"cpuid" Mode.sw_svt_default in
  (* one measured rep: wall seconds, events retired, profiler (if armed) *)
  let rep ~armed () =
    let sys = Runner.make_system p in
    let prof =
      if not armed then None
      else begin
        let prof = Profiler.create () in
        Svt_obs.Probe.subscribe (System.probe sys) (Profiler.sink prof);
        Simulator.set_observer (System.sim sys) (Some (Profiler.observer prof));
        Profiler.start prof;
        Some prof
      end
    in
    let t0 = Unix.gettimeofday () in
    ignore (Runner.workload_metrics p sys : (string * float) list);
    let wall = Unix.gettimeofday () -. t0 in
    Option.iter Profiler.stop prof;
    (wall, Simulator.events_processed (System.sim sys), prof)
  in
  ignore (rep ~armed:true () : float * int * Profiler.t option) (* warm-up *);
  let null_walls = List.init reps (fun _ -> let w, _, _ = rep ~armed:false () in w) in
  let armed = List.init reps (fun _ -> rep ~armed:true ()) in
  let _, events, _ = List.hd armed in
  let null_wall = median null_walls in
  let armed_wall = median (List.map (fun (w, _, _) -> w) armed) in
  let alloc_bytes =
    median
      (List.filter_map
         (fun (_, _, prof) -> Option.map Profiler.allocated_bytes prof)
         armed)
  in
  let events_per_sec = float_of_int events /. null_wall in
  let overhead_ratio = armed_wall /. null_wall in
  let alloc_bytes_per_event = alloc_bytes /. float_of_int events in
  Printf.printf
    "  fig6 cpuid (sw-svt, l2): %d events, %.0f events/sec, profiler \
     overhead x%.2f, %.0f B allocated/event\n%!"
    events events_per_sec overhead_ratio alloc_bytes_per_event;
  (* whole-host consolidation: 8 nested tenants on 4 cores x 2 SMT *)
  let module Topology = Svt_sched.Topology in
  let module Policy = Svt_sched.Policy in
  let module Host = Svt_sched.Host in
  let horizon = Svt_engine.Time.of_ms (if quick then 2 else 5) in
  let consolidate_rep () =
    let topology =
      Topology.create ~sockets:1 ~cores_per_socket:4 ~smt_per_core:2 ()
    in
    let host = Host.create ~topology () in
    for i = 0 to 7 do
      match
        Host.add_tenant host
          (Host.tenant_spec ~policy:Svt_core.Mode.Dedicated_sibling ~seed:i
             Mode.sw_svt_default)
      with
      | Ok () -> ()
      | Error _ -> failwith "profile: consolidation tenant rejected"
    done;
    let t0 = Unix.gettimeofday () in
    Host.run host ~horizon;
    let wall = Unix.gettimeofday () -. t0 in
    (wall, Host.events host)
  in
  ignore (consolidate_rep () : float * int) (* warm-up *);
  let cons = List.init reps (fun _ -> consolidate_rep ()) in
  let _, cons_events = List.hd cons in
  let cons_wall = median (List.map fst cons) in
  let consolidate_events_per_sec = float_of_int cons_events /. cons_wall in
  Printf.printf "  consolidate (8 tenants): %d events, %.0f events/sec\n%!"
    cons_events consolidate_events_per_sec;
  let path =
    Bench_out.write ~section:"obs"
      [
        ("reps", Bench_out.Int reps);
        ("events", Bench_out.Int events);
        ("events_per_sec", Bench_out.Float events_per_sec);
        ("overhead_ratio", Bench_out.Float overhead_ratio);
        ("alloc_bytes_per_event", Bench_out.Float alloc_bytes_per_event);
        ("consolidate_events", Bench_out.Int cons_events);
        ( "consolidate_events_per_sec",
          Bench_out.Float consolidate_events_per_sec );
      ]
  in
  Printf.printf "  wrote %s\n%!" path

(* ------------------------------------------------------------- perf-check *)

(* Gate BENCH_obs.json against the checked-in envelope
   (BENCH_obs.envelope.json): fail on a >30% regression. Throughput
   floors regress downward (measured < baseline / margin); cost
   ceilings regress upward (measured > baseline * margin). The
   envelope's throughput baselines are set conservatively low so that
   host-speed variation does not trip the gate, while the
   host-speed-independent ratios (overhead, bytes/event) gate tightly. *)
let perf_check () =
  header "perf-check: BENCH_obs.json vs checked-in envelope";
  let margin = 1.3 in
  let read_fields path =
    if not (Sys.file_exists path) then begin
      Printf.printf "  %s missing (run the profile section first)\n%!" path;
      exit 1
    end;
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let fail () =
      Printf.printf "  %s is not a JSON object\n%!" path;
      exit 1
    in
    match Svt_campaign.Ledger.parse_json (String.trim s) with
    | Svt_campaign.Ledger.Obj fields ->
        List.filter_map
          (function
            | k, Svt_campaign.Ledger.Num v -> Some (k, v)
            | _ -> None)
          fields
    | _ -> fail ()
    | exception Svt_campaign.Ledger.Parse_error _ -> fail ()
  in
  let measured = read_fields "BENCH_obs.json" in
  let envelope = read_fields "BENCH_obs.envelope.json" in
  let get src name =
    match List.assoc_opt name src with
    | Some v -> v
    | None ->
        Printf.printf "  missing field %s\n%!" name;
        exit 1
  in
  let failures = ref 0 in
  let gate name ~kind =
    let m = get measured name and b = get envelope name in
    let ok, bound =
      match kind with
      | `Floor -> (m >= b /. margin, b /. margin)
      | `Ceiling -> (m <= b *. margin, b *. margin)
    in
    Printf.printf "  %-28s %12.2f %s %12.2f (baseline %.2f)  %s\n%!" name m
      (match kind with `Floor -> ">=" | `Ceiling -> "<=")
      bound b
      (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in
  gate "events_per_sec" ~kind:`Floor;
  gate "consolidate_events_per_sec" ~kind:`Floor;
  gate "overhead_ratio" ~kind:`Ceiling;
  gate "alloc_bytes_per_event" ~kind:`Ceiling;
  if !failures > 0 then begin
    Printf.printf
      "  %d metric(s) regressed >30%% against BENCH_obs.envelope.json\n%!"
      !failures;
    exit 1
  end;
  Printf.printf "  all metrics within the envelope\n%!"

(* ------------------------------------------------------------- dispatch *)

(* Every section, in the order a run with no section named runs them. *)
let sections =
  [
    ("table1", table1); ("table2", table2); ("table3", table3);
    ("table4", table4); ("fig6", fig6); ("fig7", fig7); ("fig8", fig8);
    ("fig9", fig9); ("fig10", fig10); ("channels", channels);
    ("ablation", ablation); ("faults", faults); ("sched", sched);
    ("cluster", cluster); ("profile", profile); ("perf-check", perf_check);
  ]

let () =
  let usage msg =
    Printf.eprintf
      "bench: %s\nusage: main.exe [SECTION...] [quick] [jobs=N]\nsections: %s\n"
      msg
      (String.concat " " (List.map fst sections));
    exit 2
  in
  let wanted =
    List.filter
      (fun a ->
        if a = "quick" then false
        else if String.starts_with ~prefix:"jobs=" a then begin
          (match int_of_string_opt (String.sub a 5 (String.length a - 5)) with
          | Some n when n >= 1 -> jobs := n
          | _ -> usage (Printf.sprintf "bad %S: expected jobs=N with N >= 1" a));
          false
        end
        else if List.mem_assoc a sections then true
        else usage (Printf.sprintf "unknown section %S" a))
      args
  in
  Printf.printf "SVt reproduction bench harness%s\n"
    (if quick then " (quick mode)" else "");
  List.iter
    (fun (name, run) -> if wanted = [] || List.mem name wanted then run ())
    sections;
  print_endline "\ndone."
