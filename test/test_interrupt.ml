(* Tests for the interrupt subsystem: LAPIC IRR/ISR discipline, priority,
   EOI, the TSC-deadline timer, and IPIs. *)

module Time = Svt_engine.Time
module Simulator = Svt_engine.Simulator
module Proc = Simulator.Proc
module Lapic = Svt_interrupt.Lapic
module Ipi = Svt_interrupt.Ipi

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let make () =
  let sim = Simulator.create () in
  (sim, Lapic.create sim ~id:0)

let test_lapic_raise_ack_eoi () =
  let _, l = make () in
  Lapic.raise_vector l 0x51;
  checkb "pending" true (Lapic.has_pending l);
  (match Lapic.ack l with
  | Some v ->
      checki "vector" 0x51 v;
      checkb "in service" true (Lapic.in_service l 0x51)
  | None -> Alcotest.fail "should ack");
  checkb "irr cleared" false (Lapic.has_pending l);
  Lapic.eoi l;
  checkb "isr cleared" false (Lapic.in_service l 0x51)

let test_lapic_priority_order () =
  let _, l = make () in
  Lapic.raise_vector l 0x30;
  Lapic.raise_vector l 0xE0;
  Lapic.raise_vector l 0x80;
  checkb "highest vector first" true (Lapic.ack l = Some 0xE0);
  checkb "then middle" true (Lapic.ack l = Some 0x80);
  checkb "then low" true (Lapic.ack l = Some 0x30);
  checkb "drained" true (Lapic.ack l = None)

let test_lapic_coalescing () =
  let _, l = make () in
  Lapic.raise_vector l 0x51;
  Lapic.raise_vector l 0x51;
  Lapic.raise_vector l 0x51;
  checki "spurious counted" 2 (Lapic.spurious_count l);
  ignore (Lapic.ack l);
  checkb "single delivery" true (Lapic.ack l = None);
  checki "delivered" 1 (Lapic.delivered_count l)

let test_lapic_on_pending_callback () =
  let _, l = make () in
  let seen = ref [] in
  Lapic.set_on_pending l (fun v -> seen := v :: !seen);
  Lapic.raise_vector l 0x40;
  Lapic.raise_vector l 0x40 (* coalesced: no second callback *);
  Lapic.raise_vector l 0x41;
  checkb "callbacks for fresh vectors" true (List.rev !seen = [ 0x40; 0x41 ])

let test_lapic_bad_vector () =
  let _, l = make () in
  Alcotest.check_raises "low vectors reserved"
    (Invalid_argument "Lapic: bad vector") (fun () -> Lapic.raise_vector l 3)

let test_lapic_deadline_fires () =
  let sim, l = make () in
  Lapic.set_timer_vector l 0xEF;
  let fired_at = ref Time.zero in
  Lapic.set_on_pending l (fun _ -> fired_at := Simulator.now sim);
  Lapic.arm_deadline l ~deadline:(Time.of_us 50);
  Simulator.run sim;
  checki "fires at deadline" (Time.of_us 50) !fired_at;
  checki "fire count" 1 (Lapic.timer_fire_count l);
  checkb "vector pending" true (Lapic.has_pending l)

let test_lapic_deadline_rearm_replaces () =
  let sim, l = make () in
  Lapic.arm_deadline l ~deadline:(Time.of_us 50);
  Lapic.arm_deadline l ~deadline:(Time.of_us 80);
  checkb "armed" true (Lapic.armed_deadline l = Some (Time.of_us 80));
  Simulator.run sim;
  checki "single fire" 1 (Lapic.timer_fire_count l);
  checki "at the replaced deadline" (Time.of_us 80) (Simulator.now sim)

let test_lapic_deadline_disarm () =
  let sim, l = make () in
  Lapic.arm_deadline l ~deadline:(Time.of_us 50);
  Lapic.arm_deadline l ~deadline:Time.zero;
  Simulator.run sim;
  checki "never fires" 0 (Lapic.timer_fire_count l);
  checkb "disarmed" true (Lapic.armed_deadline l = None)

let test_lapic_past_deadline_fires_now () =
  let sim, l = make () in
  Simulator.spawn sim (fun () ->
      Proc.delay (Time.of_us 100);
      (* deadline already in the past: must fire immediately, as the MSR does *)
      Lapic.arm_deadline l ~deadline:(Time.of_us 10));
  Simulator.run sim;
  checki "fired" 1 (Lapic.timer_fire_count l)

(* --- IPI --------------------------------------------------------------------- *)

let test_ipi_delivery_delayed_by_cost () =
  let sim = Simulator.create () in
  let l = Lapic.create sim ~id:2 in
  let ipi = Ipi.create sim ~cost:(Time.of_ns 700) in
  let arrived = ref Time.zero in
  Lapic.set_on_pending l (fun _ -> arrived := Simulator.now sim);
  Ipi.send ipi ~dest:l ~vector:0xF0;
  Simulator.run sim;
  checki "cost modeled" 700 !arrived;
  checki "sent count" 1 (Ipi.sent_count ipi)

let test_ipi_send_and_wait () =
  let sim = Simulator.create () in
  let l = Lapic.create sim ~id:2 in
  let ipi = Ipi.create sim ~cost:(Time.of_ns 700) in
  let acked = Simulator.Ivar.create sim in
  let finished = ref Time.zero in
  (* the receiver handles the vector and acknowledges after some work *)
  Lapic.set_on_pending l (fun _ ->
      ignore
        (Simulator.schedule sim ~after:(Time.of_us 2) (fun () ->
             Simulator.Ivar.fill acked ())));
  Simulator.spawn sim (fun () ->
      Ipi.send_and_wait ipi ~dest:l ~vector:0xF1 ~acked;
      finished := Proc.now ());
  Simulator.run sim;
  checki "waited for the ack" (Time.add (Time.of_ns 700) (Time.of_us 2))
    !finished

let () =
  Alcotest.run "svt_interrupt"
    [
      ( "lapic",
        [
          Alcotest.test_case "raise/ack/eoi" `Quick test_lapic_raise_ack_eoi;
          Alcotest.test_case "priority order" `Quick test_lapic_priority_order;
          Alcotest.test_case "coalescing" `Quick test_lapic_coalescing;
          Alcotest.test_case "pending callback" `Quick test_lapic_on_pending_callback;
          Alcotest.test_case "bad vector" `Quick test_lapic_bad_vector;
        ] );
      ( "tsc-deadline",
        [
          Alcotest.test_case "fires at deadline" `Quick test_lapic_deadline_fires;
          Alcotest.test_case "re-arm replaces" `Quick test_lapic_deadline_rearm_replaces;
          Alcotest.test_case "disarm" `Quick test_lapic_deadline_disarm;
          Alcotest.test_case "past deadline fires immediately" `Quick
            test_lapic_past_deadline_fires_now;
        ] );
      ( "ipi",
        [
          Alcotest.test_case "delivery cost" `Quick test_ipi_delivery_delayed_by_cost;
          Alcotest.test_case "send and wait" `Quick test_ipi_send_and_wait;
        ] );
    ]
