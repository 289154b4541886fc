(** Self-profiler: attributes *host* wall-clock and allocation to
    span-kind×tag paths while the simulator runs.

    Install it like any other sink — subscribe {!sink} on a machine's
    probe and set {!observer} on its simulator — then bracket the region
    of interest with {!start}/{!stop}. Like every sink it never touches
    virtual time, so simulation results are byte-identical with or
    without it.

    Attribution is segment-based: the host time (and minor-heap
    allocation) between two consecutive transition points — a span
    close, or a dispatch hook — is charged exclusively to the span
    closing the segment; engine bookkeeping between events lands under
    [engine;queue], post-span event tails under [engine;dispatch], and
    everything outside the event loop under [engine;other]. Segment
    boundaries share single clock reads, so the exclusive totals
    telescope to exactly the measured wall time of the profiled region.

    Tree structure is recovered from virtual-time enclosure (spans close
    in post-order: children before parents), aggregated per
    span-kind×discriminating-tag label under a per-vCPU root. *)

type t

val create : ?clock:(unit -> float) -> ?words:(unit -> float) -> unit -> t
(** [clock] is the host clock in seconds (default [Unix.gettimeofday]);
    [words] a monotonic allocated-words counter (default
    [Gc.minor_words]). Both injectable so tests can drive deterministic
    fake clocks. *)

val sink : t -> Span.t -> unit
(** The span sink; pass to {!Probe.subscribe}. Ignores spans outside a
    {!start}/{!stop} bracket. *)

val observer : t -> Svt_engine.Simulator.observer
(** Dispatch hooks; pass to [Simulator.set_observer]. Segments engine
    bookkeeping from in-event work and counts events. *)

val start : t -> unit
(** Open the profiled region: resets the segment clock and records the
    allocation baseline (after a minor collection). *)

val stop : t -> unit
(** Close the region: charges the trailing segment, folds still-open
    pending spans into the tree, and fixes the allocation totals. No-op
    when not running. *)

(** {2 Summary} *)

val wall_s : t -> float
(** Measured wall time of the profiled region (start to last segment
    close). *)

val exclusive_total_s : t -> float
(** Sum of every node's exclusive time. Telescopes to {!wall_s} up to
    float rounding — the [--validate] invariant. *)

val spans : t -> int
val events : t -> int

val allocated_bytes : t -> float
(** Whole-region allocation (minor + major - promoted words, from
    [Gc.counters] deltas at start/stop, each after a minor collection so
    the count is exact), in bytes. *)

(** {2 Output} *)

type metric = Mtime | Malloc

val folded : ?metric:metric -> t -> string
(** Folded-stacks text ("frame;frame value" per line), loadable by
    flamegraph.pl, inferno, speedscope. Values are exclusive
    nanoseconds ([Mtime], default) or exclusive allocated bytes
    ([Malloc]); zero-valued paths are omitted. *)

val write_folded : ?metric:metric -> t -> string -> unit

type row = {
  path : string;
  calls : int;
  excl_ns : float;
  incl_ns : float;
  excl_bytes : float;
}

val rows : t -> row list
(** Flat per-path rows, sorted by exclusive time descending. *)

val pp_table : ?limit:int -> Format.formatter -> t -> unit

val to_json : ?extra:(string * float) list -> t -> string
(** Summary header (wall/excl totals, span/event counts, allocation,
    plus [extra] fields) and the full aggregate tree, as one JSON
    object. *)
