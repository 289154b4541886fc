(* Layer micro-drivers: each calls one layer's public interface in a
   tight loop, so a change in a per-layer number points at that layer.
   Every driver runs [reps] repeats of a fixed iteration count and
   reports the median repeat. *)

module Time = Svt_engine.Time
module Prng = Svt_engine.Prng
module Simulator = Svt_engine.Simulator
module Event_queue = Svt_engine.Event_queue
module Mode = Svt_core.Mode
module System = Svt_core.System
module Channel = Svt_core.Channel
module Machine = Svt_hyp.Machine
module Vmcs = Svt_vmcs.Vmcs
module Field = Svt_vmcs.Field
module Checks = Svt_vmcs.Checks
module Transform = Svt_vmcs.Transform
module Ept = Svt_mem.Ept
module Addr = Svt_mem.Addr
module Address_space = Svt_mem.Address_space
module Host = Svt_sched.Host

let reps = 9
let now = Unix.gettimeofday

(* Seconds per iteration, median over the repeats. *)
let per_iter ~iters f =
  Quantile.median
    (List.init reps (fun _ ->
         let t0 = now () in
         for _ = 1 to iters do
           f ()
         done;
         (now () -. t0) /. float_of_int iters))

(* Bytes allocated per call, from a separate pass so the counter reads
   stay out of the timed loop. *)
let bytes_per ~iters f =
  let a0 = Workloads.allocated () in
  for _ = 1 to iters do
    f ()
  done;
  (Workloads.allocated () -. a0) /. float_of_int iters

(* ---- engine ---- *)

(* A hold-model loop on a queue kept at [depth] live events: pop the
   earliest, add one a random span later. *)
let queue_op_ns ~depth =
  let q = Event_queue.create () in
  let rng = Prng.of_seed 1L in
  let later t = Time.add t (Time.of_ns (1 + Prng.int rng 1_000_000)) in
  for _ = 1 to depth do
    ignore (Event_queue.add q ~time:(later Time.zero) ignore)
  done;
  let step () =
    match Event_queue.pop q with
    | Some (t, _) -> ignore (Event_queue.add q ~time:(later t) ignore)
    | None -> assert false
  in
  1e9 *. per_iter ~iters:200_000 step

(* One process sleeping in a loop: every iteration is one effect switch
   out of the process and one event back into it. *)
let switch_ns () =
  let iters = 200_000 in
  Quantile.median
    (List.init reps (fun _ ->
         let sim = Simulator.create () in
         Simulator.spawn sim (fun () ->
             for _ = 1 to iters do
               Simulator.Proc.delay (Time.of_ns 1)
             done);
         let t0 = now () in
         Simulator.run sim;
         1e9 *. (now () -. t0) /. float_of_int (Simulator.events_processed sim)))

(* ---- vmcs ---- *)

let msr_bitmap_gpa = 0x3000L

let transform_setup () =
  let vmcs12 = Vmcs.create ~owner_level:1 ~subject_level:2 () in
  let vmcs02 = Vmcs.create ~owner_level:0 ~subject_level:2 () in
  let l1_ept = Ept.create () in
  Ept.map_range l1_ept ~gpa:(Addr.Gpa.of_int 0) ~hpa:(Addr.Hpa.of_int 0x40000000)
    ~len:(1 lsl 20) ~perm:Ept.rwx;
  Checks.init_minimal vmcs12;
  (vmcs12, vmcs02, l1_ept)

(* An entry re-dirties the init_minimal fields plus one pointer, as L1
   does between two L2 runs, then transforms them into vmcs02. *)
let transform_entry_ns () =
  let vmcs12, vmcs02, l1_ept = transform_setup () in
  1e9
  *. per_iter ~iters:10_000 (fun () ->
         Checks.init_minimal vmcs12;
         Vmcs.write vmcs12 Field.Msr_bitmap msr_bitmap_gpa;
         ignore
           (Transform.entry ~vmcs12 ~vmcs02 ~l1_ept ~l0_ept_pointer:0x7EF0000L))

let transform_exit_ns () =
  let vmcs12, vmcs02, l1_ept = transform_setup () in
  ignore (Transform.entry ~vmcs12 ~vmcs02 ~l1_ept ~l0_ept_pointer:0x7EF0000L);
  Vmcs.record_exit vmcs02 ~reason:Svt_arch.Exit_reason.Cpuid ~qualification:0L
    ~instruction_length:2;
  1e9 *. per_iter ~iters:10_000 (fun () -> ignore (Transform.exit ~vmcs02 ~vmcs12))

let checks_ns () =
  let vmcs = Vmcs.create ~owner_level:0 ~subject_level:2 () in
  Checks.init_minimal vmcs;
  1e9
  *. per_iter ~iters:50_000 (fun () ->
         match Checks.run vmcs with
         | Ok () -> ()
         | Error _ -> failwith "init_minimal VMCS failed its entry checks")

(* ---- core ---- *)

(* L0 posts a trap and the SVt-thread takes it, then the resume goes
   back: both rings, one command each way. *)
let ring_roundtrip_ns () =
  let iters = 4_000 in
  Quantile.median
    (List.init reps (fun _ ->
         let machine = Machine.create () in
         let vm =
           Svt_hyp.Vm.create ~machine ~name:"l1" ~level:1 ~ram_bytes:(1 lsl 20)
             ~cpuid:(Svt_arch.Cpuid_db.host ())
         in
         let ch =
           Channel.create ~machine ~aspace:(Svt_hyp.Vm.aspace vm) ~wait:Mode.Mwait
             ~placement:Mode.Smt_sibling ~core:(Machine.core machine 0) ()
         in
         let bd = Svt_hyp.Breakdown.create () in
         let regs = Array.init 16 Int64.of_int in
         let trip ring cmd =
           (match Channel.post ch ring bd cmd with
           | Ok () -> ()
           | Error `Backpressure -> failwith "ring backpressure");
           match Channel.try_recv ch ring bd with
           | Some _ -> ()
           | None -> failwith "posted command not received"
         in
         let sim = Machine.sim machine in
         Simulator.spawn sim (fun () ->
             for seq = 1 to iters do
               trip (Channel.to_svt ch)
                 (Channel.Vm_trap
                    { seq; reason = Svt_arch.Exit_reason.Cpuid; qual = 0L; regs });
               trip (Channel.from_svt ch) (Channel.Vm_resume { seq; regs })
             done);
         let t0 = now () in
         Simulator.run sim;
         1e9 *. (now () -. t0) /. float_of_int iters))

(* One construction per differential point of the fuzzer. *)
let of_config () =
  let build () =
    List.iter
      (fun (arch, mode) ->
        ignore
          (System.of_config
             (System.Config.make ~arch ~machine:Machine.paper_config ~mode
                ~level:System.L2_nested ())))
      Svt_fuzz.Fuzz.modes
  in
  let n = float_of_int (List.length Svt_fuzz.Fuzz.modes) in
  let us = 1e6 *. per_iter ~iters:8 build /. n in
  let kb = bytes_per ~iters:2 build /. n /. 1024.0 in
  (us, kb)

let machine_create () =
  let create () = ignore (Machine.create ()) in
  (1e6 *. per_iter ~iters:200 create, bytes_per ~iters:4 create /. 1024.0)

(* ---- mem ---- *)

let copy_us_16k () =
  let machine = Machine.create () in
  let vm =
    Svt_hyp.Vm.create ~machine ~name:"l1" ~level:1 ~ram_bytes:(1 lsl 20)
      ~cpuid:(Svt_arch.Cpuid_db.host ())
  in
  let aspace = Svt_hyp.Vm.aspace vm in
  let gpa = Address_space.alloc_guest_pages aspace 4 in
  let buf = Bytes.init 16384 (fun i -> Char.chr (i land 0xff)) in
  1e6
  *. per_iter ~iters:30 (fun () ->
         Address_space.write_bytes aspace gpa buf;
         if Address_space.read_bytes aspace gpa 16384 <> buf then
           failwith "guest memory copy corrupted")

(* ---- sched ---- *)

(* Eight SW SVt tenants on a 1x4x2 host, advanced one quantum at a time
   after a warm-up. *)
let quantum_us () =
  let topology =
    Svt_sched.Topology.create ~sockets:1 ~cores_per_socket:4 ~smt_per_core:2 ()
  in
  let host = Host.create ~topology () in
  for i = 0 to 7 do
    match
      Host.add_tenant host
        (Host.tenant_spec ~name:(Printf.sprintf "t%d" i) ~seed:i
           Mode.sw_svt_default)
    with
    | Ok () -> ()
    | Error _ -> failwith "tenant rejected"
  done;
  let step () =
    Host.run host ~horizon:(Time.add (Host.now host) (Host.quantum host))
  in
  for _ = 1 to 20 do
    step ()
  done;
  1e6 *. per_iter ~iters:1_000 step
