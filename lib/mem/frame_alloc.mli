(** Bump + free-list allocator of host physical frames. Hypervisors draw
    frames from here for guest RAM, VMCS pages, page tables and the
    shared SW SVt rings. *)

type t

val create : base:int -> size_bytes:int -> t
(** [base] must be page-aligned. *)

val alloc : t -> Addr.Hpa.t
(** Raises [Failure] when the pool is exhausted. *)

val alloc_n : t -> int -> Addr.Hpa.t list

val alloc_run : t -> int -> Addr.Hpa.t
(** [alloc_run t n] takes [n] consecutive fresh frames and returns the
    first. Freed frames are never reused here, so a run always continues
    from where the last fresh frame left off. Raises [Failure] (leaving
    [t] unchanged) when fewer than [n] fresh frames remain. *)

val free : t -> Addr.Hpa.t -> unit
val allocated : t -> int
val remaining : t -> int
