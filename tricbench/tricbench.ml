(* tricbench — the repository benchmark (see README.md).

     tricbench run --workload W --seed S --seconds N --trace 0|1
                   [--record FILE] [--out DIR] [--bench FILE] [--smoke]
     tricbench compare BASE NEW [--bench FILE]
     tricbench selftest [--bench FILE]

   Workload names, metric names, units, directions and regression bounds
   are read from BENCHMARK.json; this program only measures. *)

module J = Tric_obs.Json
module W = Tric_workloads

(* -- BENCHMARK.json ----------------------------------------------------------- *)

type metric_def = { name : string; unit_ : string; lower : bool; bound : float }
type bench = { workloads : string list; e2e : metric_def list; layers : metric_def list }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_bench path =
  let fail msg = failwith (Printf.sprintf "%s: %s" path msg) in
  let doc = match J.parse (read_file path) with Ok d -> d | Error e -> fail e in
  let list k = match Option.bind (J.member k doc) J.as_list with Some l -> l | None -> fail ("no " ^ k) in
  let str k o = match Option.bind (J.member k o) J.as_string with Some s -> s | None -> fail ("no " ^ k) in
  let metric o =
    {
      name = str "name" o;
      unit_ = str "unit" o;
      lower = String.equal (str "better" o) "lower";
      bound = Option.value ~default:0.0 (Option.bind (J.member "bound" o) J.as_number);
    }
  in
  {
    workloads = List.map (str "name") (list "workloads");
    e2e = List.map metric (list "end_to_end");
    layers = List.map metric (list "per_layer");
  }

(* -- Workloads ------------------------------------------------------------------ *)

(* Sizes are chosen so one pass takes seconds on a 2-core machine; see
   README.md for why each workload exists. *)
let engine_shapes =
  let base =
    {
      Load_engine.source = W.Dataset.Snb;
      edges = 5_000;
      qdb = 1_000;
      churn = None;
      batch = 1;
      cache = true;
      shards = 1;
      window = false;
      tail = 99.0;
    }
  in
  [
    ("snb-grow", base);
    ( "snb-churn-batch",
      { base with edges = 4_000; qdb = 600; churn = Some 1_000; batch = 32; shards = 2; tail = 95.0 } );
    ("biogrid-plain", { base with source = W.Dataset.Biogrid; edges = 2_500; qdb = 400; cache = false });
    ("taxi-window", { base with source = W.Dataset.Taxi; edges = 3_000; qdb = 1_000; window = true });
  ]

let implemented = List.map fst engine_shapes @ [ "server-fanout" ]

let run_workload ~name ~smoke ~seconds ~trace ~seed ~trace_path ~out =
  match List.assoc_opt name engine_shapes with
  | Some shape -> Load_engine.run ~smoke ~seconds ~trace ~seed ~trace_path ~name shape
  | None -> Load_server.run ~smoke ~seconds ~trace ~seed ~trace_path ~out

(* -- Host metadata ---------------------------------------------------------------- *)

(* The checkout may not be a git repository; then the rev is "unknown". *)
let git_rev () =
  let read p = try Some (String.trim (read_file p)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let r = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" r) with
    | Some rev -> rev
    | None -> (
      let packed = Option.value ~default:"" (read ".git/packed-refs") in
      match
        List.find_opt
          (fun line -> String.ends_with ~suffix:(" " ^ r) line)
          (String.split_on_char '\n' packed)
      with
      | Some line -> List.hd (String.split_on_char ' ' line)
      | None -> "unknown"))
  | Some rev -> rev

let host () =
  [
    ("nproc", J.int (Domain.recommended_domain_count ()));
    ("ocaml", J.Str Sys.ocaml_version);
    ("git_rev", J.Str (git_rev ()));
    ("OCAMLRUNPARAM", J.Str (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")));
  ]

(* -- run ------------------------------------------------------------------------- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

(* Numbers are printed with all their digits. *)
let num v = Printf.sprintf "%.17g" v

(* Check [metrics] against the definitions: every one present, finite,
   and (end-to-end only) non-zero.  Returns the problems found. *)
let problems ~defs ~nonzero metrics =
  List.filter_map
    (fun d ->
      match List.assoc_opt d.name metrics with
      | None -> Some ("missing metric " ^ d.name)
      | Some v when not (Float.is_finite v) -> Some ("non-finite metric " ^ d.name)
      | Some v when nonzero && v = 0.0 -> Some ("zero metric " ^ d.name)
      | Some _ -> None)
    defs

let result_json ~defs (o : Outcome.t) ~correct metrics =
  let entries =
    List.map
      (fun d ->
        let v = Option.value ~default:0.0 (List.assoc_opt d.name metrics) in
        let v = if Float.is_finite v then v else 0.0 in
        Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" d.name (num v) d.unit_)
      defs
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct
    o.Outcome.attempted o.Outcome.failed (String.concat "," entries)

let run_cmd ~bench ~workload ~seed ~seconds ~trace ~smoke ~record ~out =
  if not (List.mem workload bench.workloads && List.mem workload implemented) then begin
    prerr_endline ("tricbench: unknown workload " ^ workload);
    exit 2
  end;
  mkdir_p out;
  let trace_path = Filename.concat out (Printf.sprintf "%s-seed%d.trace.json" workload seed) in
  Printf.printf "tricbench run workload=%s seed=%d seconds=%g trace=%b%s\n%!" workload seed
    seconds trace (if smoke then " smoke" else "");
  Printf.printf "host %s\n%!"
    (String.concat " "
       (List.map (fun (k, v) -> k ^ "=" ^ J.to_string v) (host ())));
  let o = run_workload ~name:workload ~smoke ~seconds ~trace ~seed ~trace_path ~out in
  let defs, metrics = if trace then (bench.layers, o.Outcome.layers) else (bench.e2e, o.Outcome.e2e) in
  let found = problems ~defs ~nonzero:(not trace) metrics in
  let correct = o.Outcome.correct && found = [] && o.Outcome.attempted > 0 in
  List.iter print_endline o.Outcome.notes;
  List.iter (fun p -> print_endline ("problem: " ^ p)) found;
  if trace then Printf.printf "trace: %s\n" trace_path;
  List.iter
    (fun d ->
      Printf.printf "metric %-40s %16.6g %s\n" d.name
        (Option.value ~default:0.0 (List.assoc_opt d.name metrics))
        d.unit_)
    defs;
  Printf.printf "correct=%b attempted=%d failed=%d failed_frac=%g\n" correct o.Outcome.attempted
    o.Outcome.failed
    (Outcome.ratio (float_of_int o.Outcome.failed) (float_of_int o.Outcome.attempted));
  let line = result_json ~defs o ~correct metrics in
  (match record with
  | None -> ()
  | Some path ->
    let rec_ =
      Printf.sprintf "{\"workload\":%S,\"seed\":%d,\"trace\":%b,\"host\":%s,\"result\":%s}\n"
        workload seed trace
        (J.to_string (J.Obj (host ())))
        line
    in
    Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 path (fun oc ->
        output_string oc rec_));
  print_endline line;
  exit (if correct then 0 else 1)

(* -- compare --------------------------------------------------------------------- *)

type record = {
  r_workload : string;
  r_attempted : float;
  r_failed : float;
  r_metrics : (string * float) list;
}

(* Untraced runs from a file [run --record] appended to, in file order. *)
let load_records path =
  String.split_on_char '\n' (read_file path)
  |> List.filter_map (fun line ->
         if String.trim line = "" then None
         else
           match J.parse line with
           | Error e -> failwith (Printf.sprintf "%s: %s" path e)
           | Ok doc -> (
             let get k o = J.member k o in
             match (get "workload" doc, get "trace" doc, get "result" doc) with
             | Some (J.Str w), Some (J.Bool false), Some res ->
               let num k = Option.value ~default:0.0 (Option.bind (get k res) J.as_number) in
               let metrics =
                 match get "metrics" res with
                 | Some (J.Obj kvs) ->
                   List.filter_map
                     (fun (k, v) -> Option.map (fun x -> (k, x)) (Option.bind (get "value" v) J.as_number))
                     kvs
                 | Some _ | None -> []
               in
               Some
                 {
                   r_workload = w;
                   r_attempted = num "attempted";
                   r_failed = num "failed";
                   r_metrics = metrics;
                 }
             | _ -> None))

(* Apply each end-to-end metric's bound to every (metric, workload) pair
   both sets ran.  Non-zero exit on a regression or a rise in the share
   of failed operations. *)
let compare_cmd ~bench base_path next_path =
  let base = load_records base_path and next = load_records next_path in
  let regressions = ref 0 in
  Printf.printf "%-16s %-18s %27s %27s  %s\n" "workload" "metric" "base median [q1, q3]"
    "new median [q1, q3]" "verdict";
  List.iter
    (fun w ->
      let pick rs = List.filter (fun r -> String.equal r.r_workload w) rs in
      let b = pick base and n = pick next in
      if b <> [] && n <> [] then begin
        List.iter
          (fun d ->
            let values rs =
              Array.of_list (List.filter_map (fun r -> List.assoc_opt d.name r.r_metrics) rs)
            in
            let bv = values b and nv = values n in
            if Array.length bv > 0 && Array.length nv > 0 then begin
              let v = Stat.verdict ~lower_is_better:d.lower ~bound:d.bound ~base:bv ~next:nv in
              if v = Stat.Worse then incr regressions;
              let q a =
                let q1, m, q3 = Stat.quartiles a in
                Printf.sprintf "%.5g [%.5g, %.5g]" m q1 q3
              in
              Printf.printf "%-16s %-18s %27s %27s  %s (bound %g)\n" w d.name (q bv) (q nv)
                (Stat.verdict_name v) d.bound
            end)
          bench.e2e;
        let frac rs =
          let a = List.fold_left (fun acc r -> acc +. r.r_attempted) 0.0 rs in
          Outcome.ratio (List.fold_left (fun acc r -> acc +. r.r_failed) 0.0 rs) a
        in
        let fb = frac b and fn = frac n in
        let rose = fn > fb in
        if rose then incr regressions;
        Printf.printf "%-16s %-18s %27g %27g  %s\n" w "failed_frac" fb fn
          (if rose then "worse" else "unchanged")
      end)
    bench.workloads;
  exit (if !regressions > 0 then 1 else 0)

(* -- selftest ------------------------------------------------------------------- *)

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let close_to a b = Float.abs (a -. b) < 1e-9

let selftest ~bench =
  (* The percentile rule: at least ten samples beyond the percentile. *)
  check "tail of 1000 samples is p99" (Stat.supported_tail 1000 = Some 99.0);
  check "tail of 450 samples is p95" (Stat.supported_tail 450 = Some 95.0);
  check "tail of 100 samples is p90" (Stat.supported_tail 100 = Some 90.0);
  check "tail of 10 samples is unsupported" (Stat.supported_tail 10 = None);
  check "tail of 10000 samples is p99.9" (Stat.supported_tail 10_000 = Some 99.9);
  (* Quartiles as Python's statistics.quantiles(n=4) gives them. *)
  let q1, m, q3 = Stat.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  check "quartiles of 1..10" (close_to q1 2.75 && close_to m 5.5 && close_to q3 8.25);
  let q1, m, q3 = Stat.quartiles [| 4.0; 1.0; 3.0; 2.0 |] in
  check "quartiles of 1..4" (close_to q1 1.25 && close_to m 2.5 && close_to q3 3.75);
  (* compare verdicts on synthetic runs (lower is better, bound 10 %). *)
  let base = [| 100.0; 101.0; 99.0; 100.5; 99.5; 100.2 |] in
  let shift k = Array.map (fun v -> v *. k) base in
  let v next = Stat.verdict ~lower_is_better:true ~bound:0.1 ~base ~next in
  check "same runs are unchanged" (v base = Stat.Unchanged);
  check "20% slower is worse" (v (shift 1.2) = Stat.Worse);
  check "5% slower is within the bound" (v (shift 1.05) = Stat.Unchanged);
  check "20% faster is better" (v (shift 0.8) = Stat.Better);
  let wide = [| 50.0; 150.0; 80.0; 120.0; 60.0; 140.0 |] in
  check "a wide parent spread is unresolved"
    (Stat.verdict ~lower_is_better:true ~bound:0.1 ~base:wide ~next:wide = Stat.Unresolved);
  check "unless every new run beats every parent run"
    (Stat.verdict ~lower_is_better:true ~bound:0.1 ~base:wide ~next:[| 10.0; 11.0 |] = Stat.Better);
  check "higher-is-better metrics flip"
    (Stat.verdict ~lower_is_better:false ~bound:0.1 ~base ~next:(shift 0.8) = Stat.Worse);
  (* Span self times: root [0,10] with children [1,4] and [5,6], and a
     grandchild [2,3] under the first child. *)
  let tr = Trace.create () in
  let root = Trace.record tr "root" ~rid:0 ~parent:(-1) ~start:0.0 ~stop:10.0 in
  let a = Trace.record tr "a" ~rid:0 ~parent:root ~start:1.0 ~stop:4.0 in
  ignore (Trace.record tr "b" ~rid:0 ~parent:root ~start:5.0 ~stop:6.0);
  ignore (Trace.record tr "g" ~rid:0 ~parent:a ~start:2.0 ~stop:3.0);
  let self = Trace.self_times tr in
  check "self times" (close_to self.(0) 6.0 && close_to self.(1) 2.0 && close_to self.(2) 1.0
                      && close_to self.(3) 1.0);
  check "well-nested self times sum to the root" (close_to (Trace.self_sum_error tr) 0.0);
  (* Overlapping siblings are covered once, so their selves overcount. *)
  let tr = Trace.create () in
  let root = Trace.record tr "root" ~rid:0 ~parent:(-1) ~start:0.0 ~stop:10.0 in
  ignore (Trace.record tr "a" ~rid:0 ~parent:root ~start:1.0 ~stop:4.0);
  ignore (Trace.record tr "b" ~rid:0 ~parent:root ~start:3.0 ~stop:6.0);
  check "overlap is counted once in the parent" (close_to (Trace.self_times tr).(0) 5.0);
  check "overlapping children are reported" (close_to (Trace.self_sum_error tr) 1.0);
  (* Every workload at toy size, untraced and traced: every named metric
     printed, nothing failed, outputs correct. *)
  let out = Filename.temp_dir "tricbench" "" in
  List.iter
    (fun w ->
      check ("workload implemented: " ^ w) (List.mem w implemented);
      List.iter
        (fun trace ->
          let trace_path = Filename.concat out "trace.json" in
          let o = run_workload ~name:w ~smoke:true ~seconds:0.2 ~trace ~seed:7 ~trace_path ~out in
          let defs, metrics = if trace then (bench.layers, o.Outcome.layers) else (bench.e2e, o.Outcome.e2e) in
          let what = Printf.sprintf "%s trace=%b" w trace in
          List.iter (fun p -> check (what ^ ": " ^ p) false) (problems ~defs ~nonzero:(not trace) metrics);
          check (what ^ ": correct") o.Outcome.correct;
          check (what ^ ": nothing failed") (o.Outcome.failed = 0 && o.Outcome.attempted > 0);
          if trace then begin
            check (what ^ ": span file written") (Sys.file_exists trace_path);
            check (what ^ ": self times sum to the root")
              (Option.value ~default:1.0 (List.assoc_opt "trace.self_sum_err_us" metrics) < 1.0)
          end;
          if not o.Outcome.correct then List.iter print_endline o.Outcome.notes)
        [ false; true ])
    bench.workloads;
  Array.iter (fun f -> Sys.remove (Filename.concat out f)) (Sys.readdir out);
  Sys.rmdir out;
  if !failures > 0 then begin
    Printf.printf "tricbench selftest: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "tricbench selftest: ok"

(* -- Command line ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: tricbench run --workload W --seed S --seconds N --trace 0|1 [--record FILE] \
     [--out DIR] [--bench FILE] [--smoke]\n\
    \       tricbench compare BASE NEW [--bench FILE]\n\
    \       tricbench selftest [--bench FILE]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc pos = function
    | "--smoke" :: rest -> opts (("smoke", "1") :: acc) pos rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) pos rest
    | k :: _ when String.starts_with ~prefix:"--" k -> usage ()
    | p :: rest -> opts acc (p :: pos) rest
    | [] -> (acc, List.rev pos)
  in
  let kv, pos = opts [] [] args in
  let get k = List.assoc_opt k kv in
  let need k conv =
    match Option.bind (get k) conv with
    | Some v -> v
    | None ->
      prerr_endline ("tricbench: missing or malformed --" ^ k);
      usage ()
  in
  let bench = load_bench (Option.value ~default:"BENCHMARK.json" (get "bench")) in
  match pos with
  | [ "run" ] ->
    run_cmd ~bench ~workload:(need "workload" Option.some)
      ~seed:(need "seed" int_of_string_opt)
      ~seconds:(need "seconds" float_of_string_opt)
      ~trace:(need "trace" (function "0" -> Some false | "1" -> Some true | _ -> None))
      ~smoke:(get "smoke" <> None) ~record:(get "record")
      ~out:(Option.value ~default:"tricbench/out" (get "out"))
  | [ "compare"; base; next ] -> compare_cmd ~bench base next
  | [ "selftest" ] -> selftest ~bench
  | _ -> usage ()
