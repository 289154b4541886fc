(* The design-space walk of paper §3: nested virtualization sits between
   two classical hardware designs — single-level virtualization (the
   baseline, where software reflects every nested trap) and full
   architectural nesting support (invasive hardware that delivers L2
   traps straight to L1). SVt is the proposed intermediate point.

       dune exec examples/design_space.exe
       dune exec examples/design_space.exe -- --jobs 4

   The six design points — including out-of-hypervisor delegation,
   where the hardware delivers a delegated subset of L2 exits straight
   to L1 and only residual exits reflect — form a tiny campaign: lib/campaign expands the
   spec, shards it over worker domains (when --jobs > 1) and hands back
   one uniform result per point, including the §3.1 case where the core
   has fewer hardware contexts than virtualization levels and must
   multiplex (expressed as a custom workload name, handled by an
   injected run function). *)

module Mode = Svt_core.Mode
module System = Svt_core.System
module Microbench = Svt_workloads.Microbench
module Spec = Svt_campaign.Spec
module Campaign = Svt_campaign.Campaign

let jobs =
  let rec find = function
    | "--jobs" :: n :: _ -> ( match int_of_string_opt n with
                              | Some n when n >= 1 -> n
                              | _ -> 1)
    | _ :: rest -> find rest
    | [] -> 1
  in
  find (Array.to_list Sys.argv)

(* One row of the walk: a label, a spec point (the workload name "cpuid"
   vs "cpuid-mux" distinguishes the §3.1 two-context configuration), and
   how to build/run it. *)
let rows =
  [
    ( "baseline (single-level hw, software reflection)",
      Spec.point Mode.Baseline );
    ("SW SVt on existing SMT (section 5)", Spec.point Mode.sw_svt_default);
    ( "HW SVt, 2 contexts (L1/L2 multiplexed, section 3.1)",
      Spec.point ~workload:"cpuid-mux" Mode.Hw_svt );
    ("HW SVt, 3 contexts (the proposal, section 4)", Spec.point Mode.Hw_svt);
    ("out-of-hypervisor delegation (exits straight to L1)", Spec.point Mode.Ooh);
    ("full architectural nesting support", Spec.point Mode.Hw_full_nesting);
  ]

let run (p : Spec.point) =
  let multiplex_contexts = p.Spec.workload = "cpuid-mux" in
  let sys =
    System.of_config
      (System.Config.make ~multiplex_contexts ~mode:p.Spec.mode
         ~level:System.L2_nested ())
  in
  [ ("per_op_us", (Microbench.measure_cpuid sys).Microbench.per_op_us) ]

let () =
  print_endline "== The design space of paper section 3 (nested cpuid) ==\n";
  let o = Campaign.execute ~jobs ~run (List.map snd rows) in
  let us_of point =
    match
      List.find_opt
        (fun (r : Svt_campaign.Runner.result) ->
          r.Svt_campaign.Runner.run_id = Spec.run_id point)
        o.Campaign.results
    with
    | Some { Svt_campaign.Runner.status = Svt_campaign.Runner.Run_ok; metrics; _ }
      -> List.assoc "per_op_us" metrics
    | _ -> failwith ("design_space: run failed: " ^ Spec.canonical_key point)
  in
  let base = us_of (snd (List.hd rows)) in
  List.iter
    (fun (label, point) ->
      let us = us_of point in
      Printf.printf "%-52s %6.2f us  (%.2fx)\n" label us (base /. us))
    rows;
  print_newline ();
  Printf.printf
    "SVt's claim, quantified: with trivial hardware (a stall/resume mux\n\
     and cross-context register access) it recovers most of the gap to\n\
     full nesting support, whose hardware must walk VMCS hierarchies and\n\
     deliver exits across privilege domains by itself.\n"
