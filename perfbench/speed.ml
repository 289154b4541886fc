(* The host's current speed, read off a fixed reference loop.

   The benchmark shares physical cores with other machines' work, and a
   fixed loop runs anywhere between 1x and 2.5x its best time, changing
   from one tenth of a second to the next. Each timed call is bracketed
   by two readings of the reference loop, and its host time is rescaled
   to the nominal speed: the speed at which one reference loop takes
   [nominal_s]. A stretch in which the host runs everything 1.6x slower
   then reports the same normalised time as a quiet one.

   The loop uses only the standard library, never the simulator, so a
   change to the simulator moves the normalised times and leaves the
   reference alone. Other load slows different code by different
   amounts, so the loop has two halves that other load slows
   differently, and the mix follows the simulator's hot paths better
   than either alone (in runs of one seed, five to ten minutes apart:
   raw times spread 19-42%, times rescaled by the first half alone
   3-5%, by the second half alone 1.5-7.5%, by both 1.6-3%):
   - [churn], a Hashtbl lookup, a small allocation and a balanced-tree
     insert per step, like the event engine and the exit path;
   - [copy], bytes copied one at a time through a page table held in a
     Hashtbl, like guest memory. *)

module IntMap = Map.Make (Int)

let nominal_s = 5e-4
let table_size = 4096
let churn_steps = 1000

let table =
  let t = Hashtbl.create table_size in
  for k = 0 to table_size - 1 do
    Hashtbl.replace t k ((k * 2654435761) land 0xffff)
  done;
  t

let churn () =
  let acc = ref 0 and m = ref IntMap.empty and l = ref [] in
  for i = 1 to churn_steps do
    let k = (i * 7919) land (table_size - 1) in
    let v = Hashtbl.find table k in
    acc := !acc + v;
    l := (k, v) :: !l;
    m := IntMap.add v !acc !m
  done;
  ignore (Sys.opaque_identity (!acc, !l, !m))

let page_size = 4096
let n_pages = 64
let copy_bytes = 8192

let pages =
  let t = Hashtbl.create n_pages in
  for k = 0 to n_pages - 1 do
    Hashtbl.replace t k (Bytes.make page_size (Char.chr k))
  done;
  t

let copy () =
  let out = Bytes.create copy_bytes in
  for i = 0 to copy_bytes - 1 do
    let a = (i * 13) land ((n_pages * page_size) - 1) in
    let p = Hashtbl.find pages (a / page_size) in
    Bytes.set out i (Bytes.get p (a mod page_size))
  done;
  ignore (Sys.opaque_identity out)

let now = Unix.gettimeofday

(* One reading: the fastest of a few loops, so an interrupt that lands in
   one of them does not count as a slow host. *)
let reps = 3

let read () =
  let best = ref infinity in
  for _ = 1 to reps do
    let t = now () in
    churn ();
    copy ();
    best := Float.min !best (now () -. t)
  done;
  !best

(* [host_s] at the nominal speed, given the readings taken just before
   and just after it. *)
let normalise host_s before after =
  host_s *. nominal_s /. ((before +. after) /. 2.0)

(* [timed f] is [(f (), host_s, norm_s)]: the host time of [f ()] and the
   same time at the nominal speed. *)
let timed f =
  let before = read () in
  let t = now () in
  let r = f () in
  let host_s = now () -. t in
  (r, host_s, normalise host_s before (read ()))
