(* Quickstart: boot a nested virtualization stack, run one guest program
   under each run mode, and print where a nested trap's time goes.

       dune exec examples/quickstart.exe

   This walks the public API end to end:
   1. build a [System] (host hypervisor + guest hypervisor + nested VM);
   2. run a guest program on the L2 vCPU through the [Guest] API;
   3. read the per-bucket breakdown (the paper's Table 1) and compare the
      three modes of the paper's evaluation. *)

module Time = Svt_engine.Time
module Mode = Svt_core.Mode
module System = Svt_core.System
module Guest = Svt_core.Guest
module Vcpu = Svt_hyp.Vcpu
module Breakdown = Svt_hyp.Breakdown

(* A tiny guest program: a few emulated instructions, a timer, a nap. *)
let guest_program vcpu =
  let regs = Guest.cpuid vcpu ~leaf:0 in
  assert (regs.Svt_arch.Cpuid_db.ebx = 0x756E6547L) (* "Genu"ineIntel *);
  Guest.wrmsr vcpu Svt_arch.Msr.Ia32_efer 0xD01L;
  assert (Guest.rdmsr vcpu Svt_arch.Msr.Ia32_efer = 0xD01L);
  Guest.compute vcpu (Time.of_us 3);
  Guest.arm_timer vcpu ~after:(Time.of_us 50);
  Guest.hlt vcpu (* sleeps until the TSC-deadline timer fires *)

let run_mode mode =
  let cfg = System.Config.make ~mode ~level:System.L2_nested () in
  let sys = System.of_config cfg in
  let vcpu = System.vcpu0 sys in
  Vcpu.spawn_program vcpu guest_program;
  System.run sys;
  (sys, vcpu)

let () =
  print_endline "== SVt quickstart: one guest program, three run modes ==\n";
  List.iter
    (fun mode ->
      let _sys, vcpu = run_mode mode in
      let bd = Vcpu.breakdown vcpu in
      Printf.printf "%-16s total trap-handling time: %s over %d exits\n"
        (Mode.name mode)
        (Time.to_string (Breakdown.total bd))
        (Breakdown.exits bd);
      List.iter
        (fun (name, t, pct) ->
          Printf.printf "    %-28s %10s  %5.1f%%\n" name (Time.to_string t) pct)
        (Breakdown.rows bd);
      print_newline ())
    [ Mode.Baseline; Mode.sw_svt_default; Mode.Hw_svt ];
  print_endline
    "The same guest work runs in every mode; only the trap machinery\n\
     changes. Compare the switch buckets (1 and 4) across modes: SW SVt\n\
     replaces the L0<->L1 world switch with command rings on the SMT\n\
     sibling, HW SVt turns every switch into a hardware-context stall."
