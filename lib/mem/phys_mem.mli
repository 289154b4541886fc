(** Sparse host physical memory with byte-level contents (pages
    materialize zero-filled on first touch). Real contents matter:
    virtqueue rings and the SW SVt command channels live here and are
    read and written by both guests and hypervisors.

    Copies are page-granular: a bulk copy costs one page lookup and one
    blit per page it touches. Scalar accessors touch only their own
    bytes, also when they cross a page. An access at or beyond
    [size_limit] raises [Invalid_argument]; a copy that crosses the limit
    first moves every byte below it. *)

type t

val create : ?size_limit:int -> unit -> t
(** [size_limit] in bytes; 0 (default) means unlimited. *)

val read_u8 : t -> Addr.Hpa.t -> int
val write_u8 : t -> Addr.Hpa.t -> int -> unit
val read_u64 : t -> Addr.Hpa.t -> int64
val write_u64 : t -> Addr.Hpa.t -> int64 -> unit
val read_u32 : t -> Addr.Hpa.t -> int
val write_u32 : t -> Addr.Hpa.t -> int -> unit
val read_u16 : t -> Addr.Hpa.t -> int
val write_u16 : t -> Addr.Hpa.t -> int -> unit

val read_into : t -> Addr.Hpa.t -> bytes -> pos:int -> len:int -> unit
(** [read_into t hpa buf ~pos ~len] copies [len] bytes at [hpa] into
    [buf] from [pos]. *)

val write_from : t -> Addr.Hpa.t -> bytes -> pos:int -> len:int -> unit
(** [write_from t hpa buf ~pos ~len] copies [len] bytes of [buf] from
    [pos] to [hpa]. *)

val read_bytes : t -> Addr.Hpa.t -> int -> bytes
val write_bytes : t -> Addr.Hpa.t -> bytes -> unit

val resident_pages : t -> int
