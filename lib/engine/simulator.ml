(* Discrete-event simulation core.

   Processes are ordinary OCaml functions executed under an effect handler
   (OCaml 5 one-shot continuations). A process interacts with virtual time
   only through the [Proc] operations below: [delay] advances its own clock
   to a target instant, and [suspend] parks the process until some other
   party calls the provided resume function. Only one process runs at a
   time and control transfers happen exclusively at these points, so
   simulations are deterministic.

   A delay wakes the process at [now + span] as an event of its own. When
   nothing else is due at or before that instant and no bound of the run
   would stop it first, that event is the next one the loop would process,
   so [delay] retires it in place: it advances the clock and the event
   count and returns, with no effect, continuation or queue entry (the
   run-ahead path). Virtual time, event order and the event count are
   the same as on the queue path; only the queue's own op counters
   differ. *)

(* Host-side dispatch hooks for the self-profiler: called around every
   event callback when installed. Observers must not touch virtual time
   or the queue — they exist to let a profiler segment host wall-clock
   and allocation between "inside an event" and "engine bookkeeping".
   The None state costs one match per event. *)
type observer = {
  on_event_start : unit -> unit;
  on_event_end : unit -> unit;
}

type t = {
  mutable now : Time.t;
  queue : Event_queue.t;
  mutable error : exn option;
  mutable events_processed : int;
  mutable spawned : int;
  (* set_budget fuel; [max_int] when unlimited *)
  mutable budget_events : int;
  mutable budget_time : Time.t;
  mutable observer : observer option;
  (* Bounds of the innermost active [run]: the last instant it processes
     and the event count at which it stops. Outside any run [run_until]
     precedes every instant, so no process runs ahead there. *)
  mutable run_until : Time.t;
  mutable run_events : int;
  (* Process activations of this simulator on the host stack, and the
     depth of the one that is the last act of the current event, if any
     (-1 otherwise). Only that activation may run ahead: code below it on
     the stack resumes at the event's instant when it returns. *)
  mutable depth : int;
  mutable tail_depth : int;
}

type sim = t

exception Deadlock of string

(* Deterministic fuel: exhaustion depends only on the event stream, never
   on the host clock, so the same run exhausts at the same instant on
   every machine. The payload records where the run stood when the fuel
   ran out (the campaign ledger keeps these counters). *)
type fuel = Fuel_events of int | Fuel_time of Time.t

exception Budget_exhausted of { events : int; now : Time.t; fuel : fuel }

let () =
  Printexc.register_printer (function
    | Budget_exhausted { events; now; fuel } ->
        Some
          (Printf.sprintf
             "Simulator.Budget_exhausted: %s (at %d events, t=%s)"
             (match fuel with
             | Fuel_events n -> Printf.sprintf "max_events=%d" n
             | Fuel_time t -> "max_time=" ^ Time.to_string t)
             events (Time.to_string now))
    | _ -> None)

(* [E_now] and [E_sim] have no handler: [Proc] performs them only outside
   any process, where they raise [Effect.Unhandled]. *)
type _ Effect.t +=
  | E_now : Time.t Effect.t
  | E_delay : Time.t -> unit Effect.t
  | E_suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | E_sim : t Effect.t

let create () =
  { now = Time.zero; queue = Event_queue.create (); error = None;
    events_processed = 0; spawned = 0; budget_events = max_int;
    budget_time = max_int; observer = None; run_until = min_int;
    run_events = 0; depth = 0; tail_depth = -1 }

(* The simulator whose process is running on this domain, or [no_sim].
   Set on entry to every process activation and restored on its exit;
   domains run disjoint simulators, each with its own slot. *)
let no_sim = create ()
let current = Domain.DLS.new_key (fun () -> no_sim)

let now t = t.now
let set_observer t ob = t.observer <- ob
let queue_stats t = Event_queue.stats t.queue

let set_budget ?max_events ?max_time t =
  (match max_events with
  | Some n when n < 1 -> invalid_arg "Simulator.set_budget: max_events < 1"
  | _ -> ());
  t.budget_events <- Option.value max_events ~default:max_int;
  t.budget_time <- Option.value max_time ~default:max_int

let budget t =
  let limit v = if v = max_int then None else Some v in
  (limit t.budget_events, limit t.budget_time)

let schedule t ~after run =
  if after < 0 then invalid_arg "Simulator.schedule: negative delay";
  Event_queue.add t.queue ~time:(Time.add t.now after) run

let schedule_at t ~time run =
  if Time.(time < t.now) then invalid_arg "Simulator.schedule_at: past time";
  Event_queue.add t.queue ~time run

let cancel t h = Event_queue.cancel t.queue h

(* Run [f a b] as a process activation of [t]. *)
let enter t f a b =
  let outer = Domain.DLS.get current in
  Domain.DLS.set current t;
  t.depth <- t.depth + 1;
  match f a b with
  | () ->
      t.depth <- t.depth - 1;
      Domain.DLS.set current outer
  | exception e ->
      t.depth <- t.depth - 1;
      Domain.DLS.set current outer;
      raise e

(* Mark the activation about to be entered as the last act of the
   current event. The mark lasts until [step] ends the event and restores
   the enclosing one; an activation that other code enters meanwhile
   sits deeper on the stack and does not match it. *)
let last_act t = t.tail_depth <- t.depth + 1

(* Resume a suspended process as an event of its own. *)
let wake t resume v =
  ignore (schedule t ~after:Time.zero (fun () -> last_act t; resume v))

let spawn t ?(name = "proc") f =
  t.spawned <- t.spawned + 1;
  let handler =
    {
      Effect.Deep.retc = (fun () -> ());
      exnc =
        (fun e ->
          if t.error = None then
            t.error <- Some (Failure (Printf.sprintf
              "process %S raised: %s" name (Printexc.to_string e))));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | E_delay span ->
              Some (fun (k : (a, _) Effect.Deep.continuation) ->
                  ignore (schedule t ~after:span (fun () ->
                      last_act t;
                      enter t Effect.Deep.continue k ())))
          | E_suspend register ->
              Some (fun (k : (a, _) Effect.Deep.continuation) ->
                  register (fun v -> enter t Effect.Deep.continue k v))
          | _ -> None);
    }
  in
  ignore (schedule t ~after:Time.zero (fun () ->
      last_act t;
      enter t (fun f h -> Effect.Deep.match_with f () h) f handler))

let default_max_events = 200_000_000

(* Fuel check, performed before an event is consumed: the queue still
   holds the event that would overrun, so a handler catching the
   exception sees a consistent (merely truncated) simulation. *)
let check_budget t =
  let pending = not (Event_queue.is_empty t.queue) in
  if pending && t.events_processed >= t.budget_events then
    raise
      (Budget_exhausted
         { events = t.events_processed; now = t.now;
           fuel = Fuel_events t.budget_events });
  if pending && Time.(t.budget_time < Event_queue.min_time t.queue) then
    raise
      (Budget_exhausted
         { events = t.events_processed; now = t.now;
           fuel = Fuel_time t.budget_time })

(* Close an event: restore the enclosing event's last-act mark (a run
   inside a process processes events within that process's event) and
   fire the observer's end hook. *)
let end_event t outer_tail =
  t.tail_depth <- outer_tail;
  match t.observer with Some ob -> ob.on_event_end () | None -> ()

(* Process one event; [false] if the queue was empty. A process that
   runs ahead retires further events inside this one. *)
let step t =
  check_budget t;
  match Event_queue.pop t.queue with
  | None -> false
  | Some (time, run) ->
      t.now <- time;
      t.events_processed <- t.events_processed + 1;
      let outer_tail = t.tail_depth in
      (match t.observer with Some ob -> ob.on_event_start () | None -> ());
      (* the end hook fires even when the callback raises, so the
         profiler's in-event segmentation cannot wedge open *)
      (match run () with
      | () -> end_event t outer_tail
      | exception e ->
          end_event t outer_tail;
          raise e);
      (match t.error with Some e -> raise e | None -> ());
      true

let run ?until ?(max_events = default_max_events) t =
  let before = t.events_processed in
  let outer_until = t.run_until and outer_events = t.run_events in
  t.run_until <- Option.value until ~default:max_int;
  t.run_events <-
    (if max_events > max_int - before then max_int else before + max_events);
  (match
     while
       (not (Event_queue.is_empty t.queue))
       && Time.(Event_queue.min_time t.queue <= t.run_until)
     do
       if t.events_processed >= t.run_events then
         raise
           (Budget_exhausted
              { events = t.events_processed; now = t.now;
                fuel = Fuel_events max_events });
       ignore (step t)
     done
   with
  | () ->
      t.run_until <- outer_until;
      t.run_events <- outer_events
  | exception e ->
      t.run_until <- outer_until;
      t.run_events <- outer_events;
      raise e);
  match until with
  | Some limit when Time.(t.now < limit) && Event_queue.is_empty t.queue ->
      t.now <- limit
  | _ -> ()

let events_processed t = t.events_processed
let processes_spawned t = t.spawned
let pending_events t = Event_queue.length t.queue

(* The instant of the earliest pending event. This is what lets an
   external scheduler share one clock across many simulators: a guest
   whose next event lies beyond the scheduling horizon is asleep and can
   have its slice skipped without running (or perturbing) it. *)
let next_event_time t = Event_queue.peek_time t.queue

module Proc = struct
  let now () =
    let t = Domain.DLS.get current in
    if t == no_sim then Effect.perform E_now else t.now

  let sim () =
    let t = Domain.DLS.get current in
    if t == no_sim then Effect.perform E_sim else t

  (* The run-ahead test. The wake event would be the next one processed
     only if this activation is the last act of its event, no process
     has failed, the run's [until] and both fuel kinds admit it, the run
     and the fuel have an event left, and every pending event is strictly
     later: one due at the same instant was queued first and runs first. *)
  let delay span =
    if span < 0 then invalid_arg "Proc.delay: negative span";
    if span > 0 then begin
      let t = Domain.DLS.get current in
      let wake = Time.add t.now span in
      if t.depth = t.tail_depth && Option.is_none t.error
         && Time.(wake <= t.run_until) && Time.(wake <= t.budget_time)
         && t.events_processed < t.run_events
         && t.events_processed < t.budget_events
         && Time.(wake < Event_queue.min_time t.queue)
      then begin
        t.now <- wake;
        t.events_processed <- t.events_processed + 1
      end
      else Effect.perform (E_delay span)
    end

  let yield () = Effect.perform (E_delay Time.zero)
  let suspend register = Effect.perform (E_suspend register)

  let spawn ?name f =
    let t = sim () in
    spawn t ?name f
end

module Ivar = struct
  type 'a state = Empty of ('a -> unit) list | Full of 'a
  type 'a ivar = { sim : t; mutable state : 'a state }
  type 'a t = 'a ivar

  let create sim = { sim; state = Empty [] }

  let create_here () =
    let sim = Proc.sim () in
    create sim

  let fill iv v =
    match iv.state with
    | Full _ -> invalid_arg "Ivar.fill: already filled"
    | Empty waiters ->
        iv.state <- Full v;
        (* Resume waiters at the current instant, in FIFO order. *)
        List.iter (fun resume -> wake iv.sim resume v) (List.rev waiters)

  let is_filled iv = match iv.state with Full _ -> true | Empty _ -> false
  let peek iv = match iv.state with Full v -> Some v | Empty _ -> None

  let read iv =
    match iv.state with
    | Full v -> v
    | Empty _ ->
        Proc.suspend (fun resume ->
            match iv.state with
            | Full v -> resume v
            | Empty waiters -> iv.state <- Empty (resume :: waiters))
end

module Signal = struct
  (* Broadcast condition variable with optional timeout on wait. *)
  type nonrec t = { sim : t; mutable waiters : (unit -> unit) list }

  let create sim = { sim; waiters = [] }

  let create_here () =
    let sim = Proc.sim () in
    create sim

  let broadcast s =
    let waiters = List.rev s.waiters in
    s.waiters <- [];
    List.iter (fun resume -> wake s.sim resume ()) waiters

  let has_waiters s = s.waiters <> []

  let wait s =
    Proc.suspend (fun resume -> s.waiters <- (fun () -> resume ()) :: s.waiters)

  (* Block until any of the given signals broadcasts. Waiter closures left
     registered on the other signals are guarded by a settled flag, so a
     later broadcast on those is a harmless no-op for this waiter. *)
  let wait_any signals =
    match signals with
    | [] -> invalid_arg "Signal.wait_any: no signals"
    | [ s ] -> wait s
    | _ ->
        Proc.suspend (fun resume ->
            let settled = ref false in
            let on_signal () =
              if not !settled then begin
                settled := true;
                resume ()
              end
            in
            List.iter (fun s -> s.waiters <- on_signal :: s.waiters) signals)

  let wait_timeout s span =
    Proc.suspend (fun resume ->
        let settled = ref false in
        let handle =
          schedule s.sim ~after:span (fun () ->
              if not !settled then begin
                settled := true;
                last_act s.sim;
                resume `Timeout
              end)
        in
        let on_signal () =
          if not !settled then begin
            settled := true;
            cancel s.sim handle;
            resume `Signaled
          end
        in
        s.waiters <- on_signal :: s.waiters)
end

module Mailbox = struct
  (* Unbounded FIFO channel between processes. *)
  type 'a mailbox = {
    sim : t;
    items : 'a Queue.t;
    mutable readers : ('a -> unit) list; (* at most one in practice *)
  }

  type 'a t = 'a mailbox

  let create sim = { sim; items = Queue.create (); readers = [] }

  let create_here () =
    let sim = Proc.sim () in
    create sim

  let send mb v =
    match mb.readers with
    | resume :: rest ->
        mb.readers <- rest;
        wake mb.sim resume v
    | [] -> Queue.push v mb.items

  let recv mb =
    if not (Queue.is_empty mb.items) then Queue.pop mb.items
    else Proc.suspend (fun resume -> mb.readers <- mb.readers @ [ resume ])

  let try_recv mb =
    if Queue.is_empty mb.items then None else Some (Queue.pop mb.items)

  let length mb = Queue.length mb.items
end
