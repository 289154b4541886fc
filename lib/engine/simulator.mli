(** Deterministic discrete-event simulator with effect-based processes.

    A simulation is a set of cooperative processes over a shared virtual
    clock. Processes are plain functions run with {!spawn}; inside a
    process, the operations in {!Proc} (and the synchronization primitives
    {!Ivar}, {!Signal}, {!Mailbox}) are the only ways to interact with
    virtual time. Exactly one process runs at any instant and control only
    transfers at those operations, so runs are fully deterministic. *)

type t

type sim = t
(** Alias for use inside the submodules below, whose own [t] shadows it. *)

exception Deadlock of string

(** Which fuel dimension ran out (with its configured limit). *)
type fuel = Fuel_events of int | Fuel_time of Time.t

exception Budget_exhausted of { events : int; now : Time.t; fuel : fuel }
(** Raised from {!run} when the simulation exceeds the budget set
    with {!set_budget} (or [run]'s [max_events]). Deterministic: depends
    only on the event stream, never on the host clock, so a runaway run
    is cut at the same virtual instant on every machine. The payload is
    the run's fuel counters at the point of exhaustion. *)

(** Host-side dispatch hooks, called around every event callback while
    installed. A delay retired in place by a process running ahead
    (see {!Proc.delay}) has no callback of its own: it counts in
    {!events_processed} and its host time falls inside the enclosing
    callback. Observers run on the host only: they must not schedule,
    cancel, or advance virtual time, so installing one can never change
    simulation results. Used by the self-profiler to segment host
    wall-clock and allocation between in-event work and engine
    bookkeeping. *)
type observer = {
  on_event_start : unit -> unit;
  on_event_end : unit -> unit;  (** fires even when the callback raises *)
}

val create : unit -> t
val now : t -> Time.t

val set_observer : t -> observer option -> unit
(** Install (or clear) the dispatch observer. The [None] state costs one
    match per event. *)

val queue_stats : t -> Event_queue.stats
(** Lifetime op counters of the event queue (adds / pops / cancels /
    peak live size). Deterministic: a pure function of the event
    stream. Delays retired in place by a process running ahead (see
    {!Proc.delay}) never touch the queue, so these count fewer
    operations than {!events_processed}. *)

val set_budget : ?max_events:int -> ?max_time:Time.t -> t -> unit
(** Install a run budget: processing more than [max_events] events, or
    reaching an event scheduled past [max_time], raises
    {!Budget_exhausted}. Omitted dimensions are unlimited; calling again
    replaces the budget. The check happens before an event is consumed,
    so the queue still holds the overrunning event. *)

val budget : t -> int option * Time.t option
(** The installed [(max_events, max_time)] budget. *)

val schedule : t -> after:Time.t -> (unit -> unit) -> Event_queue.handle
(** Run a callback [after] nanoseconds from now. Callbacks must not perform
    process effects; use {!spawn} for that. *)

val schedule_at : t -> time:Time.t -> (unit -> unit) -> Event_queue.handle
val cancel : t -> Event_queue.handle -> unit

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** Start a process at the current instant. An exception escaping a process
    aborts the whole run (re-raised from {!run}, tagged with [name]). *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Process events until the queue drains, [until] is passed, or
    [max_events] events have been processed by this call (which raises
    {!Budget_exhausted}, as a runaway guard). When [until] is given and
    the queue drains early, the clock still advances to [until]. *)

val events_processed : t -> int
val processes_spawned : t -> int
val pending_events : t -> int

val next_event_time : t -> Time.t option
(** The instant of the earliest pending event ([None] when the queue is
    empty). A host scheduler multiplexing several simulators over one
    shared clock uses this to tell a runnable guest (next event within
    the current quantum) from a sleeping one, whose slice can be skipped
    without running it. *)

(** Operations usable only inside a process spawned via {!spawn}. *)
module Proc : sig
  val now : unit -> Time.t
  val sim : unit -> sim
  (** The running process's clock and simulator. Outside any process,
      [now], [sim] and [delay] raise [Effect.Unhandled]. *)

  val delay : Time.t -> unit
  (** Advance this process's clock by a span, letting other events run.
      The wake-up is one event. When no other event is due at or before
      the wake instant and no bound of the run (its [until] or
      [max_events], the {!set_budget} fuel, a failed process) would stop
      before it, the process runs ahead: the clock and the event count
      advance in place with no queue traffic, which is indistinguishable
      from the queued path in virtual time, event counts and fuel cut
      points. *)

  val yield : unit -> unit
  (** Let already-queued events at the current instant run first. *)

  val suspend : (('a -> unit) -> unit) -> 'a
  (** [suspend register] parks the process; [register resume] must arrange
      for [resume v] to be called exactly once later, which makes [suspend]
      return [v]. *)

  val spawn : ?name:string -> (unit -> unit) -> unit
end

(** Write-once cell; readers block until it is filled. *)
module Ivar : sig
  type 'a t

  val create : sim -> 'a t

  val create_here : unit -> 'a t
  (** Like {!create} with the current process's simulator. *)

  val fill : 'a t -> 'a -> unit
  (** Fill the cell and wake all readers. Raises if already filled. *)

  val is_filled : 'a t -> bool
  val peek : 'a t -> 'a option

  val read : 'a t -> 'a
  (** Block (process-only) until filled. *)
end

(** Broadcast condition variable. *)
module Signal : sig
  type t

  val create : sim -> t
  val create_here : unit -> t

  val broadcast : t -> unit
  (** Wake every currently-blocked waiter. *)

  val has_waiters : t -> bool

  val wait : t -> unit
  (** Block (process-only) until the next {!broadcast}. *)

  val wait_any : t list -> unit
  (** Block until any of the signals broadcasts. *)

  val wait_timeout : t -> Time.t -> [ `Signaled | `Timeout ]
  (** Block until the next broadcast or until the span elapses. *)
end

(** Unbounded FIFO channel between processes. *)
module Mailbox : sig
  type 'a t

  val create : sim -> 'a t
  val create_here : unit -> 'a t

  val send : 'a t -> 'a -> unit

  val recv : 'a t -> 'a
  (** Block (process-only) until an item is available. *)

  val try_recv : 'a t -> 'a option
  val length : 'a t -> int
end
