(* The paper's published numbers, as data: every table and figure of the
   evaluation section (§6), used by the bench harness to print
   measured-vs-paper comparisons and by the regression tests to pin the
   reproduction's shape. *)

(* Table 1: cpuid breakdown in a nested VM (µs). *)
type table1_row = { part : string; time_us : float; percent : float }

let table1 =
  [
    { part = "0:L2"; time_us = 0.05; percent = 0.47 };
    { part = "1:Switch L2<->L0"; time_us = 0.81; percent = 7.75 };
    { part = "2:Transform vmcs02/vmcs12"; time_us = 1.29; percent = 12.45 };
    { part = "3:L0 handler"; time_us = 4.89; percent = 47.02 };
    { part = "4:Switch L0<->L1"; time_us = 1.40; percent = 13.43 };
    { part = "5:L1 handler"; time_us = 1.96; percent = 18.87 };
  ]

let table1_total_us = 10.40

(* Figure 6: cpuid latency and speedups. *)
let fig6_l0_us = 0.05
let fig6_sw_speedup = 1.23
let fig6_hw_speedup = 1.94

(* Figure 7: subsystem benchmarks — baseline absolute and speedups. *)
type fig7_row = {
  name : string;
  baseline : float;
  unit_ : string;
  sw_speedup : float;
  hw_speedup : float;
}

let fig7 =
  [
    { name = "net-latency"; baseline = 163.0; unit_ = "usec";
      sw_speedup = 1.10; hw_speedup = 2.38 };
    { name = "net-bandwidth"; baseline = 9387.0; unit_ = "Mbps";
      sw_speedup = 1.00; hw_speedup = 1.12 };
    { name = "disk-randrd-latency"; baseline = 126.0; unit_ = "usec";
      sw_speedup = 1.30; hw_speedup = 2.18 };
    { name = "disk-randrd-bandwidth"; baseline = 87136.0; unit_ = "KB/s";
      sw_speedup = 1.55; hw_speedup = 2.31 };
    { name = "disk-randwr-latency"; baseline = 179.0; unit_ = "usec";
      sw_speedup = 1.05; hw_speedup = 2.26 };
    { name = "disk-randwr-bandwidth"; baseline = 55769.0; unit_ = "KB/s";
      sw_speedup = 1.18; hw_speedup = 2.60 };
  ]

(* Figure 8: memcached/ETC. *)
let fig8_sla_us = 500.0
let fig8_p99_speedup = 2.20 (* capacity within SLA *)
let fig8_avg_speedup = 1.43
let fig8_load_range_qps = (5_000.0, 22_500.0)

(* §6.3.1 profiling claims. *)
let fig8_ept_misconfig_share = (0.048, 0.193)
let fig8_msr_write_share = (0.005, 0.046)

(* Figure 9: TPC-C. *)
let fig9_svt_tpm = 6_370.0
let fig9_speedup = 1.18

(* Figure 10: video playback dropped frames. *)
type fig10_row = { fps : int; baseline_drops : int; svt_drops : int }

let fig10 =
  [
    { fps = 24; baseline_drops = 0; svt_drops = 0 };
    { fps = 60; baseline_drops = 3; svt_drops = 0 };
    { fps = 120; baseline_drops = 40; svt_drops = 26 };
  ]

(* Table 3: the SW SVt prototype's code-change inventory. *)
type table3_row = { codebase : string; added : int; removed : int }

let table3 =
  [
    { codebase = "QEMU"; added = 654; removed = 10 };
    { codebase = "Linux / KVM"; added = 2432; removed = 51 };
    { codebase = "Linux / other"; added = 227; removed = 2 };
  ]

(* Table 4: machine parameters. *)
let table4 =
  [
    ("L0", "2x Intel E5-2630v3 (2.4GHz, 8 cores, 2-SMT), 2x64GB RAM, Intel X540-AT2 (10Gb)");
    ("L1", "6 vCPUs (1 reserved), 50GB RAM, virtio-net-pci+vhost, virtio disk @ ramfs");
    ("L2", "3 vCPUs (1 reserved), 35GB RAM, virtio-net-pci+vhost, virtio disk @ ramfs");
  ]

(* ---- campaign-ledger consumption ----

   Measured-vs-paper comparison rows computed straight from a campaign
   run ledger rather than from in-memory result lists: look up the
   baseline and an SVt mode for the same (workload, level), form the
   measured speedup, and pair it with the published number above. Only
   rows whose runs are actually present (status ok) are emitted, so any
   sweep — however partial — yields exactly the comparisons it supports. *)

module Ledger = Svt_campaign.Ledger
module Spec = Svt_campaign.Spec
module Runner = Svt_campaign.Runner

let ledger_metric entries ~mode ~level ~workload name =
  List.find_map
    (fun (e : Ledger.entry) ->
      let p = e.Ledger.point in
      if
        e.Ledger.status = "ok"
        && p.Spec.mode = mode && p.Spec.level = level
        && p.Spec.workload = workload
      then
        match List.assoc_opt name e.Ledger.metrics with
        | Some v when Float.is_finite v -> Some v
        | _ -> None
      else None)
    entries

(* (row label, registry workload, paper SW speedup, paper HW speedup)
   for every workload the paper publishes nested speedups for; the
   registry supplies the headline metric and its direction, and the
   fig7 rows above are the source of truth for the published numbers. *)
let ledger_speedup_specs =
  let f7 label workload =
    let r = List.find (fun r -> r.name = label) fig7 in
    (label, workload, r.sw_speedup, r.hw_speedup)
  in
  [
    ("cpuid latency", "cpuid", fig6_sw_speedup, fig6_hw_speedup);
    f7 "net-latency" "rr";
    f7 "net-bandwidth" "stream";
    f7 "disk-randrd-latency" "ioping";
    f7 "disk-randrd-bandwidth" "fio";
  ]

let speedup_rows_of_ledger entries =
  let level = Svt_core.System.L2_nested in
  List.concat_map
    (fun (label, workload, paper_sw, paper_hw) ->
      let w = Runner.find workload in
      let h = Option.get w.Runner.headline in
      let metric mode =
        ledger_metric entries ~mode ~level ~workload h.Runner.metric
      in
      match metric Svt_core.Mode.Baseline with
      | None -> []
      | Some base ->
          let row mode paper =
            match metric mode with
            | None -> []
            | Some v ->
                [
                  {
                    Compare.metric =
                      Printf.sprintf "%s %s speedup" label
                        (Svt_core.Mode.to_string mode);
                    paper;
                    measured = Runner.speedup h ~base v;
                    unit_ = "x";
                  };
                ]
          in
          row Svt_core.Mode.sw_svt_default paper_sw
          @ row Svt_core.Mode.Hw_svt paper_hw)
    ledger_speedup_specs
