(* The traced run's recorder: host-time spans around the benchmark's calls
   into each library layer, plus counts taken at the same boundaries.
   Everything stays in memory until [write] at the end of the run. With
   [None] (the untraced run) every operation is a single match. *)

type span = {
  id : int;
  parent : int;  (** id of the enclosing span; -1 at top level *)
  run : string;  (** the workload op the span belongs to *)
  name : string;
  start : float;
  stop : float;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable stack : int list;  (** ids of the open spans, innermost first *)
  counts : (string, float) Hashtbl.t;
}

let create () =
  { spans = []; next_id = 0; stack = []; counts = Hashtbl.create 16 }

(* A new span id and the innermost open span, its parent. *)
let open_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  (id, match t.stack with p :: _ -> p | [] -> -1)

let span tr ~run name f =
  match tr with
  | None -> f ()
  | Some t ->
      let id, parent = open_id t in
      t.stack <- id :: t.stack;
      let start = Unix.gettimeofday () in
      let close () =
        let stop = Unix.gettimeofday () in
        t.stack <- List.tl t.stack;
        t.spans <- { id; parent; run; name; start; stop } :: t.spans
      in
      Fun.protect ~finally:close f

(* A span whose interval was observed rather than wrapped (a callback's
   timestamps). *)
let record tr ~run name ~start ~stop =
  match tr with
  | None -> ()
  | Some t ->
      let id, parent = open_id t in
      t.spans <- { id; parent; run; name; start; stop } :: t.spans

let count tr name v =
  match tr with
  | None -> ()
  | Some t ->
      let old = Option.value ~default:0.0 (Hashtbl.find_opt t.counts name) in
      Hashtbl.replace t.counts name (old +. v)

let high tr name v =
  match tr with
  | None -> ()
  | Some t ->
      let old = Option.value ~default:v (Hashtbl.find_opt t.counts name) in
      Hashtbl.replace t.counts name (Float.max old v)

let counted t name = Option.value ~default:0.0 (Hashtbl.find_opt t.counts name)

let spans t = List.rev t.spans

let durations t name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.stop -. s.start) else None)
    (spans t)

(* Self time: a span's duration minus the part its children cover
   (children never overlap, as spans nest on one thread). *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let old = Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (old +. (s.stop -. s.start)))
    t.spans;
  List.map
    (fun s ->
      let covered = Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      (s, s.stop -. s.start -. covered))
    (spans t)

(* Per span name, in first-seen order: count, total and self seconds. *)
let summary t =
  let order = ref [] and acc = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let n, total, self_total =
        match Hashtbl.find_opt acc s.name with
        | Some v -> v
        | None ->
            order := s.name :: !order;
            (0, 0.0, 0.0)
      in
      Hashtbl.replace acc s.name
        (n + 1, total +. (s.stop -. s.start), self_total +. self))
    (self_times t);
  List.rev_map (fun name -> (name, Hashtbl.find acc name)) !order

(* One line per span, for each named trace: workload, id, parent, run,
   name, start and stop in µs from the trace's first span, and self time
   in µs. *)
let write traces path =
  let oc = open_out path in
  output_string oc "workload\tid\tparent\trun\tname\tstart_us\tstop_us\tself_us\n";
  List.iter
    (fun (workload, t) ->
      let rows = self_times t in
      let t0 = List.fold_left (fun m (s, _) -> Float.min m s.start) infinity rows in
      let us x = (x -. t0) *. 1e6 in
      List.iter
        (fun (s, self) ->
          Printf.fprintf oc "%s\t%d\t%d\t%s\t%s\t%.3f\t%.3f\t%.3f\n" workload
            s.id s.parent s.run s.name (us s.start) (us s.stop) (self *. 1e6))
        rows)
    traces;
  close_out oc
