(* Order statistics shared by [run], [compare] and the self-test. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* [p] in [0, 100] over an ascending array: the repository's one
   percentile implementation (linear interpolation between ranks). *)
let percentile sorted_a p = Tric_obs.Histogram.percentile_sorted sorted_a p

let median a = percentile (sorted a) 50.0

(* The best reading over a non-empty list of runs: [better] is
   [Float.max] or [Float.min]. *)
let best f better xs = List.fold_left (fun acc x -> better acc (f x)) (f (List.hd xs)) xs

(* The highest of the usual reporting percentiles that still has at least
   ten samples beyond it — the most a sample of [n] can support.  Each
   workload reports one fixed tail percentile (so the metric means the
   same thing on every run); a run whose sample cannot support it says
   so. *)
let supported_tail n =
  List.find_opt
    (fun p -> float_of_int n *. (100.0 -. p) /. 100.0 >= 10.0 -. 1e-9)
    [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* Quartiles exactly as Python's [statistics.quantiles(values, n=4)]
   computes them (the default "exclusive" method), so the spreads this
   tool reports match the ones computed from its output elsewhere. *)
let quartiles values =
  let d = sorted values in
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Stat.quartiles: no values"
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)
  end

(* -- Comparing two sets of runs of one (metric, workload) pair ------------- *)

type verdict =
  | Better
  | Worse
  | Unchanged
  | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* [base] are the parent's runs, [next] the change's, in the order they
   were made (runs alternate, so index i of each side forms a pair).
   - Worse: the change's median is worse than the parent's by more than
     [bound] (a share of the parent's median).
   - Unresolved: the parent's own quartile spread, as a share of its
     median, is wider than [bound], unless every run of the change reads
     better than every run of the parent.
   - Better: the medians differ by more than the parent's quartile spread
     and the change wins at least nine tenths of the pairs.
   - Unchanged otherwise. *)
let verdict ~lower_is_better ~bound ~base ~next =
  let b1, bm, b3 = quartiles base in
  let _, nm, _ = quartiles next in
  let gain x y = if lower_is_better then y -. x else x -. y in
  let scale = Float.abs bm in
  let rel v = if scale > 0.0 then v /. scale else v in
  let spread = rel (b3 -. b1) in
  let worst_next =
    Array.fold_left (fun acc v -> if gain v acc < 0.0 then v else acc) next.(0) next
  in
  let best_base =
    Array.fold_left (fun acc v -> if gain v acc > 0.0 then v else acc) base.(0) base
  in
  let all_better = gain worst_next best_base > 0.0 in
  let pairs = min (Array.length base) (Array.length next) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if gain next.(i) base.(i) > 0.0 then incr wins
  done;
  let improvement = rel (gain nm bm) in
  if spread > bound && not all_better then Unresolved
  else if -.improvement > bound then Worse
  else if improvement > spread && 10 * !wins >= 9 * pairs then Better
  else Unchanged
