(* Simulated SW/HW SVt speed-ups beside the paper's published values
   (lib/report/paper.ml), with the relative error of each. *)

module Mode = Svt_core.Mode
module Paper = Svt_report.Paper

let fig7 name = List.find (fun r -> r.Paper.name = name) Paper.fig7

let from_fig7 name =
  let r = fig7 name in
  (Some r.Paper.sw_speedup, Some r.Paper.hw_speedup)

(* (figure, headline metric, lower is better, what the paper measured,
   paper SW speed-up, paper HW speed-up). etc runs one 10 k qps point,
   while the paper's 1.43x is at peak load, and video plays 30 s, while
   the paper counts drops over 5 minutes; neither is comparable, so
   neither is listed. *)
let rows =
  [
    ("cpuid", "per_op_us", true, "Fig 6 cpuid latency",
     (Some Paper.fig6_sw_speedup, Some Paper.fig6_hw_speedup));
    ("rr", "mean_rtt_us", true, "Fig 7 net latency", from_fig7 "net-latency");
    ("ioping", "mean_us", true, "Fig 7 disk randrd latency",
     from_fig7 "disk-randrd-latency");
    ("tpcc", "tpm", false, "Fig 9 TPC-C throughput",
     (Some Paper.fig9_speedup, None));
    ("stream", "mbps", false, "Fig 7 net bandwidth", from_fig7 "net-bandwidth");
    ("fio-randread", "kb_per_sec", false, "Fig 7 disk randrd bandwidth",
     from_fig7 "disk-randrd-bandwidth");
    ("fio-randwrite", "kb_per_sec", false, "Fig 7 disk randwr bandwidth",
     from_fig7 "disk-randwr-bandwidth");
  ]

let print (ops : Workloads.op list) =
  let value figure mode metric =
    let label = figure ^ "/" ^ Mode.name mode in
    match List.find_opt (fun (o : Workloads.op) -> o.label = label) ops with
    | Some o -> List.assoc_opt metric o.fields
    | _ -> None
  in
  let cell figure metric lower base mode paper =
    match (value figure mode metric, paper) with
    | Some v, Some p ->
        let s = if lower then base /. v else v /. base in
        Printf.sprintf "%5.2fx (paper %.2fx, error %+5.1f%%)" s p
          (100.0 *. (s -. p) /. p)
    | _ -> "-"
  in
  let printed = ref false in
  List.iter
    (fun (figure, metric, lower, what, (sw, hw)) ->
      match value figure Mode.Baseline metric with
      | None -> ()
      | Some base ->
          if not !printed then
            print_endline "simulated speed-up over nested baseline:";
          printed := true;
          Printf.printf "  %-28s SW %s  HW %s\n" what
            (cell figure metric lower base Mode.sw_svt_default sw)
            (cell figure metric lower base Mode.Hw_svt hw))
    rows;
  if !printed then
    print_endline
      "  The cost model is calibrated to the paper's own numbers; it has not \
       been validated on hardware."
