(* End-to-end integration tests: whole-stack workloads under every run
   mode, pinning the reproduction's headline shapes (who wins, roughly by
   how much) and the paper's side claims (profiling shares, WAL
   durability, multi-vCPU serving). These use shortened runs; the bench
   harness produces the full-scale numbers. *)

module Time = Svt_engine.Time
module Mode = Svt_core.Mode
module System = Svt_core.System
module Netperf = Svt_workloads.Netperf
module Disk = Svt_workloads.Disk
module Etc = Svt_workloads.Etc_workload
module Tpcc = Svt_workloads.Tpcc
module Video = Svt_workloads.Video
module Microbench = Svt_workloads.Microbench

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let sys ?n_vcpus mode =
  System.of_config (System.Config.make ?n_vcpus ~mode ~level:System.L2_nested ())

(* --- network -------------------------------------------------------------- *)

let test_net_rr_ordering () =
  let rtt mode = (Netperf.run_rr ~transactions:60 (sys mode)).Netperf.mean_rtt_us in
  let base = rtt Mode.Baseline in
  let sw = rtt Mode.sw_svt_default in
  let hw = rtt Mode.Hw_svt in
  checkb "baseline in the 120-180us band (paper: 163)" true
    (base > 120.0 && base < 185.0);
  checkb "sw beats baseline" true (sw < base);
  checkb "hw beats sw" true (hw < sw);
  checkb "hw speedup approaches 2x (paper: 2.38x)" true (base /. hw > 1.7)

let test_net_stream_wire_bound () =
  let mbps mode =
    (Netperf.run_stream ~duration:(Time.of_ms 15) (sys mode)).Netperf.mbps
  in
  let base = mbps Mode.Baseline in
  let sw = mbps Mode.sw_svt_default in
  (* paper: 9387 Mb/s, SVt 1.00x — the wire is the bottleneck *)
  checkb "near line rate" true (base > 8_800.0 && base < 9_500.0);
  checkb "sw within 5% (1.00x)" true (Float.abs (sw /. base -. 1.0) < 0.05)

(* --- disk ----------------------------------------------------------------- *)

let test_disk_read_latency_ordering () =
  let lat mode =
    (Disk.run_ioping ~ops:50 ~op:Disk.Randread (sys mode)).Disk.mean_us
  in
  let base = lat Mode.Baseline in
  let hw = lat Mode.Hw_svt in
  checkb "baseline band (paper: 126us)" true (base > 100.0 && base < 140.0);
  checkb "hw speedup about 2x (paper: 2.18x)" true
    (base /. hw > 1.8 && base /. hw < 2.6)

let test_disk_write_slower_than_read () =
  let s = sys Mode.Baseline in
  let rd = (Disk.run_ioping ~ops:40 ~op:Disk.Randread s).Disk.mean_us in
  let s2 = sys Mode.Baseline in
  let wr = (Disk.run_ioping ~ops:40 ~op:Disk.Randwrite s2).Disk.mean_us in
  checkb "writes pay the journal commit" true (wr > rd *. 1.3)

let test_disk_bandwidth_ordering () =
  let bw mode =
    (Disk.run_fio ~ops:150 ~op:Disk.Randread (sys mode)).Disk.kb_per_sec
  in
  let base = bw Mode.Baseline in
  let hw = bw Mode.Hw_svt in
  checkb "baseline band (paper: 87 MB/s)" true (base > 70_000.0 && base < 110_000.0);
  checkb "hw wins" true (hw > base *. 1.5)

(* --- memcached / ETC -------------------------------------------------------- *)

let test_etc_latency_improves_under_svt () =
  let point mode =
    Etc.run_point ~duration:(Time.of_ms 25) ~qps:15_000.0 (sys ~n_vcpus:2 mode)
  in
  let base = point Mode.Baseline in
  let svt = point Mode.sw_svt_default in
  checkb "requests served" true (base.Etc.requests > 200);
  checkb "avg improves (paper: 1.43x)" true (svt.Etc.avg_us < base.Etc.avg_us);
  checkb "tail improves (paper: 2.2x capacity)" true (svt.Etc.p99_us < base.Etc.p99_us)

let test_etc_profiling_shares () =
  (* §6.3.1: under load, EPT_MISCONFIG dominates MSR_WRITE in L0 time *)
  let s = sys ~n_vcpus:2 Mode.Baseline in
  let _ = Etc.run_point ~duration:(Time.of_ms 25) ~qps:15_000.0 s in
  let m = System.metrics s in
  let ept = Svt_stats.Metrics.time m "l2_exit_time.EPT_MISCONFIG" in
  let msr = Svt_stats.Metrics.time m "l2_exit_time.MSR_WRITE" in
  checkb "both present" true (ept > Time.zero && msr > Time.zero);
  checkb "ept misconfig dominates" true (ept > msr)

(* --- TPC-C -------------------------------------------------------------------- *)

let test_tpcc_throughput_ordering () =
  let tpm mode = (Tpcc.run ~duration:(Time.of_ms 150) (sys mode)).Tpcc.tpm in
  let base = tpm Mode.Baseline in
  let svt = tpm Mode.sw_svt_default in
  checkb "band (paper: 5.4k baseline)" true (base > 4_500.0 && base < 8_500.0);
  let speedup = svt /. base in
  checkb "speedup band (paper: 1.18x)" true (speedup > 1.05 && speedup < 1.35)

(* --- video ---------------------------------------------------------------------- *)

let test_video_drops_shape () =
  (* shortened runs: 60s of playback *)
  let drops mode fps = (Video.run ~seconds:60 ~fps (sys mode)).Video.dropped in
  checki "24 fps clean (baseline)" 0 (drops Mode.Baseline 24);
  let b120 = drops Mode.Baseline 120 in
  let s120 = drops Mode.sw_svt_default 120 in
  checkb "baseline drops at 120 fps" true (b120 > 0);
  checkb "svt drops fewer (paper: 0.65x)" true (s120 < b120)

let test_video_idle_fraction () =
  let r = Video.run ~seconds:30 ~fps:120 (sys Mode.Baseline) in
  (* paper §6.3.3: L2 is idle 61% of the time at 120 FPS *)
  checkb "idle fraction near 0.6" true
    (r.Video.idle_fraction > 0.5 && r.Video.idle_fraction < 0.7)

(* --- microbenchmark plumbing ------------------------------------------------------ *)

let test_microbench_workload_scales () =
  let r0 = Microbench.measure_cpuid ~workload:0 (sys Mode.Baseline) in
  let r1 = Microbench.measure_cpuid ~workload:10_000 (sys Mode.Baseline) in
  (* 10k dependent increments at 2.4GHz ~ 4.2us *)
  checkb "workload adds its compute" true
    (r1.Microbench.per_op_us -. r0.Microbench.per_op_us > 3.5);
  checkb "converged" true r0.Microbench.stats.Svt_stats.Convergence.converged

let test_multi_vcpu_isolated_breakdowns () =
  let s = sys ~n_vcpus:2 Mode.Baseline in
  let v0 = System.vcpu s 0 and v1 = System.vcpu s 1 in
  Svt_hyp.Vcpu.spawn_program v0 (fun v -> ignore (Svt_core.Guest.cpuid v ~leaf:1));
  System.run s;
  checkb "v0 charged" true
    (Svt_hyp.Breakdown.total (Svt_hyp.Vcpu.breakdown v0) > Time.zero);
  checki "v1 untouched" 0
    (Svt_hyp.Breakdown.total (Svt_hyp.Vcpu.breakdown v1))

(* Determinism across identical runs: the whole stack must be replayable. *)
let test_end_to_end_determinism () =
  let go () =
    let s = sys Mode.sw_svt_default in
    let r = Netperf.run_rr ~transactions:30 s in
    (r.Netperf.mean_rtt_us, r.Netperf.p99_rtt_us)
  in
  checkb "bit-identical reruns" true (go () = go ())

let () =
  Alcotest.run "integration"
    [
      ( "network",
        [
          Alcotest.test_case "TCP_RR ordering vs paper" `Slow test_net_rr_ordering;
          Alcotest.test_case "TCP_STREAM wire bound" `Slow test_net_stream_wire_bound;
        ] );
      ( "disk",
        [
          Alcotest.test_case "read latency ordering" `Slow
            test_disk_read_latency_ordering;
          Alcotest.test_case "writes slower than reads" `Slow
            test_disk_write_slower_than_read;
          Alcotest.test_case "bandwidth ordering" `Slow test_disk_bandwidth_ordering;
        ] );
      ( "memcached",
        [
          Alcotest.test_case "latency improves under SVt" `Slow
            test_etc_latency_improves_under_svt;
          Alcotest.test_case "profiling shares (section 6.3.1)" `Slow
            test_etc_profiling_shares;
        ] );
      ( "tpcc",
        [ Alcotest.test_case "throughput ordering" `Slow test_tpcc_throughput_ordering ] );
      ( "video",
        [
          Alcotest.test_case "dropped-frame shape" `Slow test_video_drops_shape;
          Alcotest.test_case "idle fraction" `Slow test_video_idle_fraction;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "microbench workload scaling" `Slow
            test_microbench_workload_scales;
          Alcotest.test_case "multi-vcpu breakdown isolation" `Quick
            test_multi_vcpu_isolated_breakdowns;
          Alcotest.test_case "end-to-end determinism" `Slow
            test_end_to_end_determinism;
        ] );
    ]
