(* Order statistics over samples. An empty sample reads as 0: a layer the
   workload never reaches reports no time. *)

let quantile p xs =
  match xs with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    a.(min (n - 1) (int_of_float (p *. float_of_int n)))

let median xs = quantile 0.5 xs

(* A distribution-free 95% confidence interval for the median: the order
   statistics that bracket it with that probability (normal
   approximation to the binomial). *)
let median_ci xs =
  match xs with
  | [] -> (0.0, 0.0)
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let k = max 0 (int_of_float ((float_of_int n -. (1.96 *. sqrt (float_of_int n))) /. 2.0)) in
    (a.(min (n - 1) k), a.(max 0 (n - 1 - k)))
let sum xs = List.fold_left ( +. ) 0.0 xs

(* Words this domain has allocated on the minor heap so far. The count is
   exact at any point, so a span's delta depends only on what the code
   allocated. Blocks over 256 words go straight to the major heap and are
   not counted: the major-heap statistics are only brought up to date at
   collections, so a delta over them would depend on when those ran. *)
let words () = Gc.minor_words ()
