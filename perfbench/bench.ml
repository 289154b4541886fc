(* The benchmark driver.

     bench.exe --workload exits|bulk-io|fuzz|fleet --seed N --seconds S
               --trace 0|1 [--expected FILE] [--out DIR]
     bench.exe --pin --workload W --seed N

   With --trace 0 it repeats the workload's set-up and measured phases
   for S seconds after one warm-up pass and reports the end-to-end
   metrics (medians over the passes). With --trace 1 it runs every
   workload untraced and then traced, plus the layer micro-drivers, and
   reports the per-layer metrics. Every op's simulated output is checked
   against expected.txt. The last line of output is one JSON object;
   everything before it is for people. --pin prints the expected.txt
   lines of one pass instead. *)

module W = Workloads

let now = Unix.gettimeofday

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  pin : bool;
  expected : string;
  out : string;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload exits|bulk-io|fuzz|fleet --seed N --seconds \
     S --trace 0|1 [--expected FILE] [--out DIR] [--pin]";
  exit 2

let parse argv =
  let rec go a = function
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--expected" :: v :: rest -> go { a with expected = v } rest
    | "--out" :: v :: rest -> go { a with out = v } rest
    | "--pin" :: rest -> go { a with pin = true } rest
    | [] -> a
    | _ -> usage ()
  in
  try
    go
      {
        workload = "";
        seed = 7;
        seconds = 10.0;
        trace = false;
        pin = false;
        expected = "perfbench/expected.txt";
        out = "perfbench/out";
      }
      (List.tl (Array.to_list argv))
  with Failure _ -> usage ()

(* ---- checking simulated outputs ---- *)

type tally = { mutable attempted : int; mutable failed : int }

let fail tally ~workload ~seed label weight why =
  tally.failed <- tally.failed + weight;
  Printf.printf "FAILED %s seed %d %s: %s\n" workload seed label why

(* An op fails when it has no digest, or (on a pinned seed) its digest
   differs from expected.txt. *)
let check pinned tally ~workload ~seed (run : W.run) =
  let expect = Pinned.find pinned ~workload ~seed in
  List.iter
    (fun (o : W.op) ->
      tally.attempted <- tally.attempted + o.weight;
      let why =
        match (o.outcome, expect) with
        | Error why, _ -> Some why
        | Ok _, None -> None
        | Ok d, Some ops -> (
            match Hashtbl.find_opt ops o.label with
            | Some d' when d = d' -> None
            | Some _ -> Some "output differs from expected.txt"
            | None -> Some "op missing from expected.txt")
      in
      Option.iter (fail tally ~workload ~seed o.label o.weight) why)
    run.ops;
  Option.iter
    (Hashtbl.iter (fun label _ ->
         if not (List.exists (fun (o : W.op) -> o.label = label) run.ops) then begin
           tally.attempted <- tally.attempted + 1;
           fail tally ~workload ~seed label 1 "expected op never ran"
         end))
    expect

let digests (run : W.run) =
  List.map (fun (o : W.op) -> (o.label, o.outcome)) run.ops

(* ---- passes ---- *)

type pass = { setup_s : float; setup_norm_s : float; run : W.run }

(* One set-up and one measured phase, from a collected heap so no pass
   pays for the previous one's garbage. *)
let pass ?tr (w : W.t) ~seed =
  Gc.compact ();
  let go, setup_s, setup_norm_s =
    Speed.timed (fun () ->
        Spans.span tr ~run:w.name "bench.setup" (fun () -> w.prepare tr ~seed))
  in
  let run = Spans.span tr ~run:w.name "bench.measure" go in
  { setup_s; setup_norm_s; run }

(* The measured phase's host time at the nominal host speed (see Speed):
   each op's median over the passes, summed over the ops. *)
let norm_wall_s passes =
  let all = Hashtbl.create 64 in
  List.iter
    (fun p ->
      List.iter
        (fun (o : W.op) ->
          let xs = Option.value ~default:[] (Hashtbl.find_opt all o.label) in
          Hashtbl.replace all o.label (o.norm_s :: xs))
        p.run.ops)
    passes;
  Hashtbl.fold (fun _ xs acc -> acc +. Quantile.median xs) all 0.0

let bytes_per_event p = p.run.alloc_bytes /. float_of_int p.run.events

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* ---- output ---- *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

let print_result tally metrics =
  List.iter
    (fun m ->
      Printf.printf "  %-32s %14.6g %-6s %s\n" m.name m.value m.unit_ m.note)
    metrics;
  match List.filter (fun m -> not (Float.is_finite m.value)) metrics with
  | m :: _ ->
      Printf.eprintf "metric %s is not a finite number\n" m.name;
      exit 1
  | [] ->
      let body =
        List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.name
              m.value m.unit_)
          metrics
      in
      Printf.printf
        "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
        (tally.failed = 0 && tally.attempted > 0)
        tally.attempted tally.failed (String.concat ", " body)

(* ---- end-to-end run (--trace 0) ---- *)

let min_passes = 3
let min_setups = 15

let end_to_end args pinned (w : W.t) =
  let tally = { attempted = 0; failed = 0 } in
  let seed = args.seed in
  let checked p =
    check pinned tally ~workload:w.name ~seed p.run;
    p
  in
  let warm = checked (pass w ~seed) in
  Accuracy.print warm.run.ops;
  let t0 = now () in
  let rec more acc =
    if List.length acc >= min_passes && now () -. t0 >= args.seconds then acc
    else more (checked (pass w ~seed) :: acc)
  in
  let passes = more [] in
  (* set-up is short, so it gets extra samples of its own *)
  let rec setups acc =
    if List.length acc >= min_setups then acc
    else begin
      Gc.compact ();
      let (_ : unit -> W.run), raw, norm =
        Speed.timed (fun () -> w.prepare None ~seed)
      in
      setups ((raw, norm) :: acc)
    end
  in
  let setup_samples =
    setups (List.map (fun p -> (p.setup_s, p.setup_norm_s)) (warm :: passes))
  in
  let wall_s = norm_wall_s passes in
  Printf.printf "%s seed %d: %d events a pass, %d measured passes, %d set-ups\n"
    w.name seed warm.run.events (List.length passes) (List.length setup_samples);
  Printf.printf
    "raw host time (not normalised): measured phase %.4f s (median pass), \
     set-up %.5f s (median)\n"
    (Quantile.median (List.map (fun p -> p.run.wall_s) passes))
    (Quantile.median (List.map fst setup_samples));
  print_result tally
    [
      metric "norm_wall_s" "s" wall_s;
      metric "setup_s" "s" (Quantile.median (List.map snd setup_samples));
      metric "norm_events_per_s" "ev/s"
        (float_of_int warm.run.events /. wall_s);
      metric "alloc_bytes_per_event" "B/ev"
        (Quantile.median (List.map bytes_per_event passes));
      metric "peak_heap_mb" "MB" (peak_heap_mb ());
    ]

(* ---- traced run (--trace 1) ---- *)

let ms x = 1e3 *. x

let tail_metric name durations =
  match Quantile.tail durations with
  | Some (p, v, n) ->
      metric name "ms" (ms v)
        ~note:(Printf.sprintf "(p%d of %d samples)" p n)
  | None -> metric name "ms" nan ~note:"(fewer than 11 samples)"

type traced_workload = { name : string; tr : Spans.t; base : pass; traced : pass }

(* Every workload runs once to warm up, once untraced and once traced, so
   the per-layer metrics are the same whichever --workload is named. *)
let traced args pinned =
  let tally = { attempted = 0; failed = 0 } in
  let seed = args.seed in
  let traces =
    List.map
      (fun (w : W.t) ->
        let checked p =
          check pinned tally ~workload:w.name ~seed p.run;
          p
        in
        ignore (checked (pass w ~seed));
        let base = checked (pass w ~seed) in
        let tr = Spans.create () in
        let traced = checked (pass ~tr w ~seed) in
        let agree = digests traced.run = digests base.run in
        if not agree then
          fail tally ~workload:w.name ~seed "trace" (List.length traced.run.ops)
            "traced run's simulated outputs differ from the untraced run's";
        Printf.printf "%s: traced and untraced digests %s\n%!" w.name
          (if agree then "agree" else "DIFFER");
        { name = w.name; tr; base; traced })
      W.all
  in
  let find name = List.find (fun t -> t.name = name) traces in
  let exits = (find "exits").tr and bulk = (find "bulk-io").tr in
  let fz = (find "fuzz").tr and fleet = (find "fleet").tr in
  let c = Spans.counted in
  let drive_s tr figures =
    List.fold_left ( +. ) 0.0
      (List.concat_map
         (fun f -> Spans.durations tr ("workloads.drive." ^ f))
         figures)
  in
  let drive_ms figure =
    let tr = if List.mem figure W.exit_figures then exits else bulk in
    metric ("workloads.drive_ms." ^ figure) "ms" (ms (drive_s tr [ figure ]))
  in
  let of_config_us, of_config_kb = Layers.of_config () in
  let machine_us, machine_kb = Layers.machine_create () in
  let metrics =
    [
      metric "engine.queue_op_ns" "ns"
        (Layers.queue_op_ns ~depth:(int_of_float (c exits "engine.peak_live")));
      metric "engine.switch_ns" "ns" (Layers.switch_ns ());
      metric "engine.dispatch_share" "ratio"
        (1.0 -. (c exits "engine.in_event_s" /. drive_s exits W.exit_figures));
      metric "engine.cancel_ratio" "ratio"
        (c exits "engine.cancels" /. c exits "engine.adds");
      metric "engine.peak_live" "count" (c exits "engine.peak_live");
      metric "vmcs.transform_entry_ns" "ns" (Layers.transform_entry_ns ());
      metric "vmcs.transform_exit_ns" "ns" (Layers.transform_exit_ns ());
      metric "vmcs.checks_ns" "ns" (Layers.checks_ns ());
      metric "vmcs.transforms_per_exit" "ratio"
        (c exits "vmcs.transform_spans" /. c exits "vmcs.exit_spans");
      metric "core.ring_roundtrip_ns" "ns" (Layers.ring_roundtrip_ns ());
      metric "core.of_config_us" "us" of_config_us;
      metric "core.of_config_kb" "KB" of_config_kb;
      metric "hypervisor.machine_create_us" "us" machine_us;
      metric "hypervisor.machine_create_kb" "KB" machine_kb;
      metric "mem.copy_us_16k" "us" (Layers.copy_us_16k ());
    ]
    @ List.map drive_ms (W.exit_figures @ W.bulk_figures)
    @ [
        metric "campaign.make_system_ms" "ms"
          (ms
             (Quantile.median
                (Spans.durations exits "campaign.make_system"
                @ Spans.durations bulk "campaign.make_system")));
        metric "fuzz.round_ms_p50" "ms"
          (ms (Quantile.median (Spans.durations fz "fuzz.round")));
        tail_metric "fuzz.round_ms_ptail" (Spans.durations fz "fuzz.round");
        metric "fuzz.construct_share" "ratio"
          (of_config_us *. 1e-6
          *. float_of_int (List.length Svt_fuzz.Fuzz.modes)
          *. c fz "fuzz.execs" /. (find "fuzz").base.run.wall_s);
        metric "fuzz.kept_ratio" "ratio" (c fz "fuzz.kept" /. c fz "fuzz.execs");
        metric "fuzz.cov_bits" "count" (c fz "fuzz.cov_bits");
        metric "fuzz.violations" "count" (c fz "fuzz.violations");
        metric "fuzz.events_per_exec" "count"
          (c fz "fuzz.events" /. c fz "fuzz.execs");
        metric "sched.quantum_us" "us" (Layers.quantum_us ());
        metric "cluster.epoch_ms_p50" "ms"
          (ms (Quantile.median (Spans.durations fleet "cluster.epoch")));
        tail_metric "cluster.epoch_ms_ptail"
          (Spans.durations fleet "cluster.epoch");
        metric "cluster.submit_ms" "ms"
          (ms (Quantile.median (Spans.durations fleet "cluster.submit")));
        metric "cluster.readmit_ratio" "ratio"
          (c fleet "cluster.readmissions" /. c fleet "cluster.evictions");
        metric "cluster.evictions" "count" (c fleet "cluster.evictions");
        metric "cluster.tenant_kb" "KB"
          (c fleet "cluster.live_bytes" /. c fleet "cluster.placed" /. 1024.0);
      ]
    @ List.map
        (fun t ->
          metric ("trace.overhead_ratio." ^ t.name) "ratio"
            (t.traced.run.norm_s /. t.base.run.norm_s))
        traces
  in
  (try Sys.mkdir args.out 0o755 with Sys_error _ -> ());
  let path = Filename.concat args.out (Printf.sprintf "spans-seed%d.tsv" seed) in
  Spans.write (List.map (fun t -> (t.name, t.tr)) traces) path;
  Printf.printf "spans written to %s; host time by span (count, total, self):\n"
    path;
  List.iter
    (fun t ->
      List.iter
        (fun (name, (n, total, self)) ->
          Printf.printf "  %-8s %-34s %5d %10.2f ms %10.2f ms\n" t.name name n
            (ms total) (ms self))
        (Spans.summary t.tr))
    traces;
  print_result tally metrics

(* ---- pinning ---- *)

let pin args (w : W.t) =
  let p = pass w ~seed:args.seed in
  List.iter
    (fun (o : W.op) ->
      match o.outcome with
      | Ok d ->
          print_endline
            (Pinned.line ~workload:w.name ~seed:args.seed ~op:o.label d)
      | Error why ->
          Printf.eprintf "%s seed %d %s: %s\n" w.name args.seed o.label why;
          exit 1)
    p.run.ops

let () =
  let args = parse Sys.argv in
  match W.find args.workload with
  | None -> usage ()
  | Some w ->
      if args.pin then pin args w
      else
        let pinned = Pinned.load args.expected in
        if args.trace then traced args pinned else end_to_end args pinned w
