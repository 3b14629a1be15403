(* What one workload run produces.  Metric names and units live in
   BENCHMARK.json; a workload only fills in values. *)

type t = {
  correct : bool;
  attempted : int;  (** operations tried: updates applied, or publishes sent *)
  failed : int;  (** of those, operations that failed (see README.md) *)
  e2e : (string * float) list;  (** end-to-end metrics, untraced passes *)
  layers : (string * float) list;  (** per-layer metrics, traced runs only *)
  notes : string list;  (** human-readable lines printed before the result *)
}

(* Sum of a metric over several telemetry snapshots (one per engine):
   counters and gauges by value, histograms by their sample sum. *)
let snap_sum snaps name =
  List.fold_left
    (fun acc snap ->
      match Tric_obs.Snapshot.find snap name with
      | Some { Tric_obs.Snapshot.data = Tric_obs.Snapshot.Counter n; _ } -> acc +. float_of_int n
      | Some { Tric_obs.Snapshot.data = Tric_obs.Snapshot.Gauge v; _ } -> acc +. v
      | Some { Tric_obs.Snapshot.data = Tric_obs.Snapshot.Hist h; _ } -> acc +. h.Tric_obs.Histogram.s_sum
      | None -> acc)
    0.0 snaps

(* Mean sample of a histogram over several snapshots; 0 when empty. *)
let snap_mean snaps name =
  let sum, count =
    List.fold_left
      (fun (s, c) snap ->
        match Tric_obs.Snapshot.find snap name with
        | Some { Tric_obs.Snapshot.data = Tric_obs.Snapshot.Hist h; _ } ->
          (s +. h.Tric_obs.Histogram.s_sum, c + h.Tric_obs.Histogram.s_count)
        | Some _ | None -> (s, c))
      (0.0, 0) snaps
  in
  if count > 0 then sum /. float_of_int count else 0.0

let ratio a b = if b > 0.0 then a /. b else 0.0
