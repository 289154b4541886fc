(* Soft-realtime work in a nested VM: the paper's video playback scenario
   (Figure 10) as an example of timer-accuracy-sensitive workloads.

       dune exec examples/video_playback.exe

   A frame scheduler decodes, arms the TSC-deadline timer for the next
   vsync and halts; every timer write and wake-up crosses the nested trap
   machinery, and at 120 FPS the budget is tight enough that trap costs
   decide whether frames drop. *)

module Mode = Svt_core.Mode
module System = Svt_core.System
module Video = Svt_workloads.Video

let () =
  print_endline "== 4K video playback in a nested VM (5 minutes) ==\n";
  Printf.printf "%8s  %18s  %18s\n" "" "baseline" "SW SVt";
  List.iter
    (fun fps ->
      let run mode =
        Video.run ~seconds:300 ~fps
          (System.of_config
             (System.Config.make ~mode ~level:System.L2_nested ()))
      in
      let b = run Mode.Baseline in
      let s = run Mode.sw_svt_default in
      Printf.printf "%5d fps  %7d dropped (%4.1f%% idle)  %7d dropped (%4.1f%% idle)\n"
        fps b.Video.dropped
        (100.0 *. (1.0 -. b.Video.idle_fraction))
        s.Video.dropped
        (100.0 *. (1.0 -. s.Video.idle_fraction)))
    [ 24; 60; 120 ];
  print_newline ();
  print_endline
    "Paper's Figure 10: 0/3/40 dropped frames at 24/60/120 FPS for the\n\
     baseline, and 0/0/26 with SVt — even though the guest is idle most\n\
     of the time, the per-frame timer and wake-up exits eat exactly the\n\
     margin that knife-edge frames need."
