(* Order statistics over host-time samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest whole percentile that leaves at least ten samples above
   it, with its nearest-rank value; [None] below eleven samples. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 11 then None
  else
    let p = 100 * (n - 10) / n in
    let rank = max 1 ((p * n + 99) / 100) in
    Some (p, a.(rank - 1), n)
