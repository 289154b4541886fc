(* Cross-cutting property tests on the protocol-critical data paths:
   channel command serialization, VMCS transform behaviour, the SMT-core
   state machine, virtqueue operation sequences, fabric ordering, guest
   memory copies, EPT updates and the engine's run-ahead delay. *)

module Time = Svt_engine.Time
module Simulator = Svt_engine.Simulator
module Proc = Simulator.Proc
module Mode = Svt_core.Mode
module Channel = Svt_core.Channel
module Breakdown = Svt_hyp.Breakdown
module Exit_reason = Svt_arch.Exit_reason
module Smt_core = Svt_arch.Smt_core
module Vmcs = Svt_vmcs.Vmcs
module Field = Svt_vmcs.Field

let make_channel () =
  let machine = Svt_hyp.Machine.create () in
  let vm =
    Svt_hyp.Vm.create ~machine ~name:"l1" ~level:1 ~ram_bytes:(1 lsl 20)
      ~cpuid:(Svt_arch.Cpuid_db.host ())
  in
  ( machine,
    Channel.create ~machine ~aspace:(Svt_hyp.Vm.aspace vm) ~wait:Mode.Mwait
      ~placement:Mode.Smt_sibling
      ~core:(Svt_hyp.Machine.core machine 0)
      () )

(* These properties never fill the ring, so a backpressure result is a
   property violation in its own right. *)
let post_ok ch dir bd cmd =
  match Channel.post ch dir bd cmd with
  | Ok () -> ()
  | Error `Backpressure -> failwith "unexpected ring backpressure"

let reasons =
  [| Exit_reason.Cpuid; Exit_reason.Msr_write; Exit_reason.Ept_misconfig;
     Exit_reason.Hlt; Exit_reason.External_interrupt; Exit_reason.Eoi_induced |]

(* Serializing a command through the shared-memory ring and reading it
   back yields the same command, for arbitrary payloads. *)
let prop_channel_roundtrip =
  QCheck.Test.make ~name:"channel commands survive shared memory" ~count:100
    QCheck.(pair (int_bound 5) (array_of_size (Gen.return 16) int64))
    (fun (ri, regs) ->
      let machine, ch = make_channel () in
      let bd = Breakdown.create () in
      let ok = ref false in
      let reason = reasons.(ri) in
      Simulator.spawn (Svt_hyp.Machine.sim machine) (fun () ->
          post_ok ch (Channel.to_svt ch) bd
            (Channel.Vm_trap { seq = 1; reason; qual = regs.(0); regs });
          match Channel.try_recv ch (Channel.to_svt ch) bd with
          | Some (Channel.Vm_trap r) ->
              ok :=
                r.reason = reason && r.qual = regs.(0) && r.regs = regs
          | _ -> ok := false);
      Simulator.run (Svt_hyp.Machine.sim machine);
      !ok)

(* Pipelining many commands through the ring preserves order and count
   (up to the ring capacity). *)
let prop_channel_order =
  QCheck.Test.make ~name:"channel preserves fifo order" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 15) (int_bound 1000))
    (fun quals ->
      let machine, ch = make_channel () in
      let bd = Breakdown.create () in
      let got = ref [] in
      Simulator.spawn (Svt_hyp.Machine.sim machine) (fun () ->
          List.iteri
            (fun i q ->
              post_ok ch (Channel.from_svt ch) bd
                (Channel.Vm_trap
                   { seq = i + 1; reason = Exit_reason.Cpuid;
                     qual = Int64.of_int q; regs = [||] }))
            quals;
          let rec drain () =
            match Channel.try_recv ch (Channel.from_svt ch) bd with
            | Some (Channel.Vm_trap { qual; _ }) ->
                got := Int64.to_int qual :: !got;
                drain ()
            | Some _ -> drain ()
            | None -> ()
          in
          drain ());
      Simulator.run (Svt_hyp.Machine.sim machine);
      List.rev !got = quals)

(* The SMT core never has two active contexts, whatever sequence of
   trap/resume/activate events it sees. *)
let prop_core_single_active =
  QCheck.Test.make ~name:"at most one active context" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 40) (int_bound 4))
    (fun ops ->
      let core = Smt_core.create ~id:0 ~n_contexts:3 () in
      Smt_core.load_svt_fields core ~visor:0 ~vm:1 ~nested:2;
      List.iter
        (fun op ->
          match op with
          | 0 -> Smt_core.vm_resume core
          | 1 -> Smt_core.vm_trap core
          | n -> Smt_core.activate core (n - 2))
        ops;
      let active =
        List.length
          (List.filter
             (fun i -> Smt_core.state core i = Smt_core.Active)
             [ 0; 1; 2 ])
      in
      active <= 1 && Smt_core.current core < 3)

(* The entry transform is incremental: applying it twice with no writes
   in between copies nothing the second time, and vmcs02 equals vmcs12 on
   every non-pointer, non-control field that was written. *)
let prop_transform_incremental =
  QCheck.Test.make ~name:"entry transform is incremental" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 10) (pair (int_bound 3) int64))
    (fun writes ->
      let vmcs12 = Vmcs.create ~owner_level:1 ~subject_level:2 () in
      let vmcs02 = Vmcs.create ~owner_level:0 ~subject_level:2 () in
      let l1_ept = Svt_mem.Ept.create () in
      let fields = [| Field.Guest_rip; Field.Guest_rsp; Field.Guest_cr3;
                      Field.Guest_rflags |] in
      List.iter (fun (fi, v) -> Vmcs.write vmcs12 fields.(fi) v) writes;
      let _ =
        Svt_vmcs.Transform.entry ~vmcs12 ~vmcs02 ~l1_ept ~l0_ept_pointer:0L
      in
      let second =
        Svt_vmcs.Transform.entry ~vmcs12 ~vmcs02 ~l1_ept ~l0_ept_pointer:0L
      in
      let copied_match =
        List.for_all
          (fun (fi, _) ->
            Vmcs.peek vmcs02 fields.(fi) = Vmcs.peek vmcs12 fields.(fi))
          writes
      in
      second.Svt_vmcs.Transform.fields_copied = 0 && copied_match)

(* Every virtqueue buffer posted is eventually collectable exactly once,
   and payloads survive the round trip, for arbitrary interleavings of
   post/serve operations. *)
let prop_virtqueue_conservation =
  QCheck.Test.make ~name:"virtqueue conserves buffers and payloads" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 60) bool)
    (fun ops ->
      let mem = Svt_mem.Phys_mem.create () in
      let alloc =
        Svt_mem.Frame_alloc.create ~base:(1 lsl 30) ~size_bytes:(1 lsl 24)
      in
      let aspace = Svt_mem.Address_space.create ~mem ~alloc ~ram_bytes:(1 lsl 18) in
      let q = Svt_virtio.Virtqueue.create ~aspace ~size:8 in
      let buf = Svt_mem.Address_space.alloc_guest_pages aspace 1 in
      let posted = ref 0 and served = ref 0 and collected = ref 0 in
      let ok = ref true in
      List.iteri
        (fun i post ->
          if post then (
            Svt_mem.Address_space.write_u32 aspace buf i;
            match
              Svt_virtio.Virtqueue.push_avail q ~addr:buf ~len:4
                ~device_writable:false
            with
            | Some _ -> incr posted
            | None -> () (* ring full is a legal outcome *))
          else
            match Svt_virtio.Virtqueue.pop_avail q with
            | Some (id, addr, len, _) ->
                if Svt_mem.Addr.Gpa.to_int addr <> Svt_mem.Addr.Gpa.to_int buf
                then ok := false;
                Svt_virtio.Virtqueue.push_used q ~id ~len;
                incr served;
                (match Svt_virtio.Virtqueue.pop_used q with
                | Some _ -> incr collected
                | None -> ok := false)
            | None -> ())
        ops;
      !ok && !served <= !posted && !collected = !served)

(* Fabric deliveries arrive in send order with non-decreasing times. *)
let prop_fabric_ordering =
  QCheck.Test.make ~name:"fabric preserves packet order" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 20) (int_range 1 2000))
    (fun sizes ->
      let sim = Simulator.create () in
      let f =
        Svt_virtio.Fabric.create sim ~cost:Svt_arch.Cost_model.paper_machine
          ~name_a:"a" ~name_b:"b"
      in
      let got = ref [] in
      Svt_virtio.Fabric.on_deliver (Svt_virtio.Fabric.endpoint_b f) (fun pkt ->
          got := Bytes.length pkt :: !got);
      List.iter
        (fun n ->
          Svt_virtio.Fabric.send f ~from:(Svt_virtio.Fabric.endpoint_a f)
            (Bytes.make n 'x'))
        sizes;
      Simulator.run sim;
      List.rev !got = sizes)

(* Guest cpuid views only ever remove feature bits, never invent them
   (except the architected hypervisor-present bit). *)
let prop_cpuid_view_monotone =
  QCheck.Test.make ~name:"guest cpuid views only mask features" ~count:50
    QCheck.bool
    (fun expose_vmx ->
      let host = Svt_arch.Cpuid_db.host () in
      let view = Svt_arch.Cpuid_db.guest_view host ~expose_vmx in
      let h = Svt_arch.Cpuid_db.query host ~leaf:1 ~subleaf:0 in
      let g = Svt_arch.Cpuid_db.query view ~leaf:1 ~subleaf:0 in
      let hv = Svt_arch.Cpuid_db.ecx_hypervisor_bit in
      let added =
        Int64.logand (Int64.logand g.Svt_arch.Cpuid_db.ecx (Int64.lognot h.Svt_arch.Cpuid_db.ecx))
          (Int64.lognot hv)
      in
      added = 0L && g.Svt_arch.Cpuid_db.edx = h.Svt_arch.Cpuid_db.edx)

(* Page-wise copies agree with a byte-wise reference model built from
   [read_u8]/[write_u8] loops: same contents, same resident pages, and
   across a size limit the same exception after the same partial copy. *)
module Phys_mem = Svt_mem.Phys_mem
module Hpa = Svt_mem.Addr.Hpa

let page = Svt_mem.Addr.page_size

let outcome f = match f () with v -> Ok v | exception e -> Error e

let ref_read m a len =
  Bytes.init len (fun i -> Char.chr (Phys_mem.read_u8 m (Hpa.add a i)))

let ref_write m a data =
  Bytes.iteri (fun i c -> Phys_mem.write_u8 m (Hpa.add a i) (Char.code c)) data

(* Byte [i] of both memories, or -1 where it lies beyond the limit. *)
let same_window m r ~from ~len =
  List.for_all
    (fun i ->
      let peek m = try Phys_mem.read_u8 m (Hpa.of_int i) with _ -> -1 in
      peek m = peek r)
    (List.init len (fun i -> from + i))

let prop_copy_matches_bytewise =
  QCheck.Test.make ~name:"page-wise copies match the byte-wise model"
    ~count:300
    QCheck.(
      quad (int_bound (4 * page)) (int_bound (3 * page))
        (option (int_range 1 (5 * page)))
        (pair bool (int_bound 255)))
    (fun (addr, len, limit, (is_write, fill)) ->
      let size_limit = Option.value limit ~default:0 in
      let m = Phys_mem.create ~size_limit () in
      let r = Phys_mem.create ~size_limit () in
      let a = Hpa.of_int addr in
      let agree =
        if is_write then begin
          let data = Bytes.init len (fun i -> Char.chr ((fill + i) land 0xFF)) in
          outcome (fun () -> Phys_mem.write_bytes m a data)
          = outcome (fun () -> ref_write r a data)
        end
        else
          outcome (fun () -> Phys_mem.read_bytes m a len)
          = outcome (fun () -> ref_read r a len)
      in
      agree
      && Phys_mem.resident_pages m = Phys_mem.resident_pages r
      && same_window m r ~from:(max 0 (addr - 8)) ~len:(len + 16))

(* The same round trip through an address space whose guest pages sit in
   non-adjacent frames (a random hole before each page). Scalars that
   straddle a guest page boundary read what the bytes say. *)
module Aspace = Svt_mem.Address_space
module Gpa = Svt_mem.Addr.Gpa

let aspace_with_holes holes =
  let mem = Phys_mem.create () in
  let alloc = Svt_mem.Frame_alloc.create ~base:(1 lsl 30) ~size_bytes:(1 lsl 24) in
  let a = Aspace.create ~mem ~alloc ~ram_bytes:page in
  let bases =
    List.map
      (fun hole ->
        for _ = 1 to hole do ignore (Svt_mem.Frame_alloc.alloc alloc) done;
        Aspace.alloc_guest_pages a 1)
      holes
  in
  (a, List.hd bases)

let prop_aspace_copy_noncontiguous =
  QCheck.Test.make ~name:"guest copies over non-contiguous frames" ~count:200
    QCheck.(
      quad (list_of_size (Gen.return 4) (int_bound 2)) (int_bound (3 * page))
        (int_bound (3 * page)) (int_bound 255))
    (fun (holes, off, len, fill) ->
      let len = min len ((4 * page) - off) in
      let a, base = aspace_with_holes holes in
      let at = Gpa.add base off in
      let data = Bytes.init len (fun i -> Char.chr ((fill + (7 * i)) land 0xFF)) in
      Aspace.write_bytes a at data;
      let byte i = Aspace.read_u8 a (Gpa.add at i) in
      let le w i =
        List.fold_left (fun v k -> v lor (byte (i + k) lsl (8 * k))) 0 (List.init w Fun.id)
      in
      let scalars_agree i =
        let g = Gpa.add at i in
        (i + 2 > len || Aspace.read_u16 a g = le 2 i)
        && (i + 4 > len || Aspace.read_u32 a g = le 4 i)
        && (i + 8 > len
           || Aspace.read_u64 a g
              = Int64.logor (Int64.of_int (le 4 i))
                  (Int64.shift_left (Int64.of_int (le 4 (i + 4))) 32))
      in
      let straddles = List.init 7 (fun k -> page - (off mod page) - 1 - k) in
      Aspace.read_bytes a at len = data
      && Bytes.init len (fun i -> Char.chr (byte i)) = data
      && List.for_all scalars_agree (List.filter (fun i -> i >= 0) (0 :: straddles)))

(* Random EPT updates agree with a reference table of pages. The pages
   straddle a 512-page leaf-table boundary (504..527) or sit just below
   2^47, where every level of the radix tree indexes a non-zero slot. *)
module Ept = Svt_mem.Ept

type ept_op =
  | Map of int * int * int (* page, frame, perm bits *)
  | Range of int * int * int * int (* first page, pages, frame, perm bits *)
  | Misconfig of int * int (* page, tag *)
  | Unmap of int

let high_page = (1 lsl 35) - 1
let low_pages = List.init 24 (fun i -> 504 + i)
let high_pages = List.init 9 (fun i -> high_page - 8 + i)
let group_end p = if p >= high_page - 8 then high_page else 527
let tags = [| "net"; "blk"; "console" |]

let perm_of b = { Ept.read = b land 1 <> 0; write = b land 2 <> 0; exec = b land 4 <> 0 }

let ept_op_gen =
  let open QCheck.Gen in
  let page = oneof [ oneofl low_pages; oneofl high_pages ] in
  let frame = map (fun f -> 0x40000 + f) (int_bound 4096) in
  frequency
    [
      (3, map3 (fun p f b -> Map (p, f, b)) page frame (int_bound 7));
      ( 2,
        map3
          (fun (p, n) f b -> Range (p, Stdlib.min n (group_end p - p + 1), f, b))
          (pair page (int_range 1 12)) frame (int_bound 7) );
      (2, map2 (fun p t -> Misconfig (p, t)) page (int_bound 2));
      (2, map (fun p -> Unmap p) page);
    ]

let show_ept_op = function
  | Map (p, f, b) -> Printf.sprintf "map %#x->%#x/%d" p f b
  | Range (p, n, f, b) -> Printf.sprintf "range %#x+%d->%#x/%d" p n f b
  | Misconfig (p, t) -> Printf.sprintf "misconfig %#x %s" p tags.(t)
  | Unmap p -> Printf.sprintf "unmap %#x" p

let gpa_of_page p = Svt_mem.Addr.Gpa.of_int (p * page)

(* Apply [op] to [e]; [per_page] spells ranges as one [map] per page. *)
let apply_ept_op ~per_page e = function
  | Map (p, f, b) ->
      Ept.map e ~gpa:(gpa_of_page p) ~hpa:(Hpa.of_int (f * page)) ~perm:(perm_of b)
  | Range (p, n, f, b) when per_page ->
      for i = 0 to n - 1 do
        Ept.map e ~gpa:(gpa_of_page (p + i)) ~hpa:(Hpa.of_int ((f + i) * page))
          ~perm:(perm_of b)
      done
  | Range (p, n, f, b) ->
      Ept.map_range e ~gpa:(gpa_of_page p) ~hpa:(Hpa.of_int (f * page))
        ~len:(n * page) ~perm:(perm_of b)
  | Misconfig (p, t) -> Ept.mark_misconfig e ~gpa:(gpa_of_page p) ~tag:tags.(t)
  | Unmap p -> Ept.unmap e ~gpa:(gpa_of_page p)

let apply_model model = function
  | Map (p, f, b) -> Hashtbl.replace model p (Ept.Page { hpa = Hpa.of_int (f * page); perm = perm_of b })
  | Range (p, n, f, b) ->
      for i = 0 to n - 1 do
        Hashtbl.replace model (p + i)
          (Ept.Page { hpa = Hpa.of_int ((f + i) * page); perm = perm_of b })
      done
  | Misconfig (p, t) -> Hashtbl.replace model p (Ept.Misconfig { tag = tags.(t) })
  | Unmap p -> Hashtbl.remove model p

let expected_translation model p off access =
  let gpa = Svt_mem.Addr.Gpa.of_int ((p * page) + off) in
  match Hashtbl.find_opt model p with
  | None -> Error (Ept.Violation { gpa; access })
  | Some (Ept.Misconfig { tag }) -> Error (Ept.Misconfiguration { gpa; tag })
  | Some (Ept.Page { hpa; perm }) ->
      let allowed =
        match access with Ept.Read -> perm.read | Write -> perm.write | Exec -> perm.exec
      in
      if allowed then Ok (Hpa.add hpa off) else Error (Ept.Violation { gpa; access })

let prop_ept_matches_model =
  QCheck.Test.make ~name:"ept updates match a page-table model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_ept_op ops))
       QCheck.Gen.(list_size (int_range 1 40) ept_op_gen))
    (fun ops ->
      let e = Ept.create () and by_page = Ept.create () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun op ->
          apply_ept_op ~per_page:false e op;
          apply_ept_op ~per_page:true by_page op;
          apply_model model op)
        ops;
      let present =
        Hashtbl.fold (fun _ v n -> match v with Ept.Page _ -> n + 1 | _ -> n) model 0
      in
      let page_agrees p =
        let gpa = gpa_of_page p in
        let want = Hashtbl.find_opt model p in
        Ept.lookup e gpa = want
        && Ept.lookup by_page gpa = want
        && List.for_all
             (fun access ->
               let off = 0x123 in
               let at = Svt_mem.Addr.Gpa.add gpa off in
               Ept.translate e ~gpa:at ~access = expected_translation model p off access
               && Ept.translate by_page ~gpa:at ~access
                  = expected_translation model p off access)
             [ Ept.Read; Ept.Write; Ept.Exec ]
      in
      Ept.mapped_pages e = present
      && Ept.mapped_pages by_page = present
      && List.for_all page_agrees (low_pages @ high_pages))

(* ---- engine run-ahead: Proc.delay against a queued reference ---------

   [Proc.delay] retires a wake-up in place when nothing else is due first
   and no bound of the run would stop before it. The reference below is
   the queued semantics built from public API: suspend, and resume from a
   callback scheduled [span] later. Random multi-process programs must
   give the same (time, process, step) trace, event count, clock, pending
   count and outcome (a [Budget_exhausted] payload included) under both,
   whatever bounds drive them. *)

type sim_op =
  | Delay of int
  | Yield
  | Wait of int
  | Wait_timeout of int * int
  | Broadcast of int
  | Read of int
  | Fill of int
  | Send of int
  | Recv of int
  | Park (* suspend until some party unparks this process *)
  | Unpark (* resume the oldest parked process synchronously *)
  | Timer of int (* a callback [n] later that unparks every parked process *)
  | Cancel (* cancel the latest timer *)
  | Spawn_child
  | Nested of int (* run a fresh simulator inside this process *)
  | Inner_run of int option (* run this simulator inside this process *)
  | Park_fail (* park, then raise once unparked *)

type drive = Plain | Until of int | Max_events of int
type fuel_plan = No_fuel | Event_fuel of int | Time_fuel of int

type sim_case = {
  procs : sim_op list list;
  fuel : fuel_plan;
  drives : drive list;
}

let show_sim_op = function
  | Delay n -> Printf.sprintf "delay %d" n
  | Yield -> "yield"
  | Wait i -> Printf.sprintf "wait s%d" i
  | Wait_timeout (i, n) -> Printf.sprintf "wait s%d timeout %d" i n
  | Broadcast i -> Printf.sprintf "broadcast s%d" i
  | Read i -> Printf.sprintf "read iv%d" i
  | Fill i -> Printf.sprintf "fill iv%d" i
  | Send i -> Printf.sprintf "send mb%d" i
  | Recv i -> Printf.sprintf "recv mb%d" i
  | Park -> "park"
  | Unpark -> "unpark"
  | Timer n -> Printf.sprintf "timer %d" n
  | Cancel -> "cancel"
  | Spawn_child -> "spawn"
  | Nested n -> Printf.sprintf "nested %d" n
  | Inner_run None -> "inner run"
  | Inner_run (Some n) -> Printf.sprintf "inner run ~until:+%d" n
  | Park_fail -> "park, then fail"

let show_sim_case c =
  let drive = function
    | Plain -> "run"
    | Until u -> Printf.sprintf "run ~until:%d" u
    | Max_events m -> Printf.sprintf "run ~max_events:%d" m
  in
  let fuel = function
    | No_fuel -> "no fuel"
    | Event_fuel m -> Printf.sprintf "fuel %d events" m
    | Time_fuel t -> Printf.sprintf "fuel until %d" t
  in
  Printf.sprintf "%s; %s\n%s" (fuel c.fuel)
    (String.concat ", " (List.map drive c.drives))
    (String.concat "\n"
       (List.mapi
          (fun i ops ->
            Printf.sprintf "p%d: %s" i
              (String.concat "; " (List.map show_sim_op ops)))
          c.procs))

let sim_case_gen =
  let open QCheck.Gen in
  let idx = int_bound 1 and span = int_bound 6 in
  let op =
    frequency
      [
        (12, map (fun n -> Delay n) span);
        (2, return Yield);
        (1, map (fun i -> Wait i) idx);
        (2, map2 (fun i n -> Wait_timeout (i, n)) idx span);
        (2, map (fun i -> Broadcast i) idx);
        (1, map (fun i -> Read i) idx);
        (1, map (fun i -> Fill i) idx);
        (1, map (fun i -> Send i) idx);
        (1, map (fun i -> Recv i) idx);
        (2, return Park);
        (1, return Unpark);
        (2, map (fun n -> Timer n) (int_bound 8));
        (1, return Cancel);
        (1, return Spawn_child);
        (1, map (fun n -> Nested n) (int_range 1 3));
        (2, map (fun n -> Inner_run n) (opt ~ratio:0.5 (int_bound 8)));
        (1, return Park_fail);
      ]
  in
  let drive =
    frequency
      [
        (2, return Plain);
        (3, map (fun u -> Until u) (int_bound 40));
        (2, map (fun m -> Max_events m) (int_range 1 40));
      ]
  in
  let fuel =
    frequency
      [
        (2, return No_fuel);
        (1, map (fun m -> Event_fuel m) (int_range 1 30));
        (1, map (fun t -> Time_fuel t) (int_bound 40));
      ]
  in
  map3
    (fun procs fuel drives -> { procs; fuel; drives })
    (list_size (int_range 1 4) (list_size (int_bound 12) op))
    fuel
    (list_size (int_range 1 3) drive)

(* Run a case with the given delay; return everything observable. *)
let run_sim_case ~delay c =
  let sim = Simulator.create () in
  let trace = ref [] in
  let record pid step = trace := (Proc.now (), pid, step) :: !trace in
  let signals = Array.init 2 (fun _ -> Simulator.Signal.create sim) in
  let ivars = Array.init 2 (fun _ -> Simulator.Ivar.create sim) in
  let boxes = Array.init 2 (fun _ -> Simulator.Mailbox.create sim) in
  let parked = Queue.create () in
  let timers = ref [] in
  let unpark () =
    if not (Queue.is_empty parked) then (Queue.pop parked) ()
  in
  let exec pid step = function
    | Delay n -> delay n
    | Yield -> Proc.yield ()
    | Wait i -> Simulator.Signal.wait signals.(i)
    | Wait_timeout (i, n) ->
        let r = Simulator.Signal.wait_timeout signals.(i) n in
        record pid (if r = `Timeout then 1000 + step else 2000 + step)
    | Broadcast i -> Simulator.Signal.broadcast signals.(i)
    | Read i -> record pid (Simulator.Ivar.read ivars.(i))
    | Fill i ->
        if not (Simulator.Ivar.is_filled ivars.(i)) then
          Simulator.Ivar.fill ivars.(i) (100 * pid + step)
    | Send i -> Simulator.Mailbox.send boxes.(i) (100 * pid + step)
    | Recv i -> record pid (Simulator.Mailbox.recv boxes.(i))
    | Park -> Proc.suspend (fun resume -> Queue.push resume parked)
    | Unpark ->
        unpark ();
        record pid (3000 + step)
    | Timer n ->
        let h =
          Simulator.schedule sim ~after:n (fun () ->
              let waiting = Queue.copy parked in
              Queue.clear parked;
              Queue.iter
                (fun resume ->
                  resume ();
                  trace := (Simulator.now sim, -1, step) :: !trace)
                waiting)
        in
        timers := h :: !timers
    | Cancel -> (
        match !timers with h :: _ -> Simulator.cancel sim h | [] -> ())
    | Spawn_child ->
        Proc.spawn (fun () ->
            delay 1;
            record (10 + pid) step;
            delay 2;
            record (10 + pid) (step + 1))
    | Nested n ->
        let inner = Simulator.create () in
        Simulator.spawn inner (fun () ->
            for i = 1 to n do
              delay i;
              record (20 + pid) i
            done);
        Simulator.run inner;
        record pid (4000 + Simulator.events_processed inner)
    | Inner_run n ->
        let until = Option.map (fun n -> Time.add (Proc.now ()) n) n in
        Simulator.run ?until sim
    | Park_fail ->
        Proc.suspend (fun resume -> Queue.push resume parked);
        failwith "planned"
  in
  List.iteri
    (fun pid ops ->
      Simulator.spawn sim (fun () ->
          List.iteri
            (fun step op ->
              exec pid step op;
              record pid step)
            ops))
    c.procs;
  (match c.fuel with
  | No_fuel -> ()
  | Event_fuel m -> Simulator.set_budget ~max_events:m sim
  | Time_fuel t -> Simulator.set_budget ~max_time:t sim);
  let outcome =
    match
      List.iter
        (function
          | Plain -> Simulator.run sim
          | Until u -> Simulator.run ~until:u sim
          | Max_events m -> Simulator.run ~max_events:m sim)
        c.drives
    with
    | () -> "ok"
    | exception e -> Printexc.to_string e
  in
  (* a process resumed outside any run may not run ahead *)
  unpark ();
  ( List.rev !trace, Simulator.events_processed sim, Simulator.now sim,
    Simulator.pending_events sim, outcome )

let queued_delay span =
  if span > 0 then
    Proc.suspend (fun k ->
        ignore (Simulator.schedule (Proc.sim ()) ~after:span (fun () -> k ())))

let prop_run_ahead_matches_queue =
  QCheck.Test.make ~count:3000
    ~name:"Proc.delay matches the queued delay under every bound"
    (QCheck.make ~print:show_sim_case sim_case_gen)
    (fun c ->
      run_sim_case ~delay:Proc.delay c = run_sim_case ~delay:queued_delay c)

let () =
  Alcotest.run "properties"
    [
      ( "protocol-data-paths",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_channel_roundtrip;
            prop_channel_order;
            prop_core_single_active;
            prop_transform_incremental;
            prop_virtqueue_conservation;
            prop_fabric_ordering;
            prop_cpuid_view_monotone;
          ] );
      ( "guest-memory-copies",
        List.map QCheck_alcotest.to_alcotest
          [ prop_copy_matches_bytewise; prop_aspace_copy_noncontiguous ] );
      ( "ept-updates",
        List.map QCheck_alcotest.to_alcotest [ prop_ept_matches_model ] );
      ( "engine-run-ahead",
        List.map QCheck_alcotest.to_alcotest [ prop_run_ahead_matches_queue ] );
    ]
