(* The simulated outputs every op must reproduce. The simulator is
   deterministic, so for a pinned seed each op's output digest must equal
   the value recorded in expected.txt; only host time may change. Lines
   read "<workload> <seed> <op> <digest>"; the seed "*" pins a workload
   whose simulated outputs are the same for every seed. *)

let digest fields =
  let b = Buffer.create 512 in
  List.iter
    (fun (k, v) ->
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b (Printf.sprintf "%h" v);
      Buffer.add_char b ';')
    fields;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 16

type t = (string * string, (string, string) Hashtbl.t) Hashtbl.t

let load path : t =
  let table = Hashtbl.create 64 in
  let ic = open_in path in
  (try
     while true do
       match String.split_on_char ' ' (String.trim (input_line ic)) with
       | [ workload; seed; op; d ] ->
           let key = (workload, seed) in
           let ops =
             match Hashtbl.find_opt table key with
             | Some ops -> ops
             | None ->
                 let ops = Hashtbl.create 32 in
                 Hashtbl.replace table key ops;
                 ops
           in
           Hashtbl.replace ops op d
       | [ "" ] -> ()
       | _ -> failwith (path ^ ": malformed line")
     done
   with End_of_file -> close_in ic);
  table

(* [Some ops] when the seed is pinned for the workload. *)
let find (t : t) ~workload ~seed =
  match Hashtbl.find_opt t (workload, string_of_int seed) with
  | Some ops -> Some ops
  | None -> Hashtbl.find_opt t (workload, "*")

let line ~workload ~seed ~op d = Printf.sprintf "%s %d %s %s" workload seed op d
