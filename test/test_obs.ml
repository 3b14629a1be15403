(* Telemetry subsystem tests: histogram percentile semantics, registry
   get-or-create and deterministic merging, span ring behaviour (including
   the zero-allocation disabled mode), JSON round-trips, snapshot exports,
   and the cross-shard stable-metrics differential. *)

module O = Tric_obs
module E = Tric_engine

(* -- Histogram --------------------------------------------------------------- *)

(* Reference percentile: linear interpolation between the two bracketing
   ranks of an ascending array (0 on an empty one) — the Runner's
   historical latency statistic, which the exact mode must reproduce
   byte-for-byte.  Truncating the rank instead biases small samples low:
   with 9 latencies p95 landed on sorted.(7) instead of near the maximum. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = q *. float_of_int (n - 1) in
    let lo = min (n - 1) (max 0 (int_of_float (Float.floor rank))) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let test_hist_exact_percentiles () =
  let h = O.Histogram.create () in
  List.iter (O.Histogram.observe h) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check (float 1e-12)) "p0" 1.0 (O.Histogram.percentile h 0.0);
  Alcotest.(check (float 1e-12)) "p50" 2.5 (O.Histogram.percentile h 50.0);
  Alcotest.(check (float 1e-12)) "p95" 3.85 (O.Histogram.percentile h 95.0);
  Alcotest.(check (float 1e-12)) "p100" 4.0 (O.Histogram.percentile h 100.0);
  let empty = O.Histogram.create () in
  Alcotest.(check (float 1e-12)) "empty" 0.0 (O.Histogram.percentile empty 95.0);
  let single = O.Histogram.create () in
  O.Histogram.observe single 7.0;
  Alcotest.(check (float 1e-12)) "singleton" 7.0 (O.Histogram.percentile single 95.0);
  Alcotest.(check bool) "still exact" true (O.Histogram.is_exact h);
  Alcotest.(check int) "count" 4 (O.Histogram.count h);
  Alcotest.(check (float 1e-12)) "sum" 10.0 (O.Histogram.sum h);
  Alcotest.(check (float 1e-12)) "min" 1.0 (O.Histogram.min_value h);
  Alcotest.(check (float 1e-12)) "max" 4.0 (O.Histogram.max_value h);
  Alcotest.(check (float 1e-12)) "mean" 2.5 (O.Histogram.mean h)

let prop_hist_exact_matches_runner =
  QCheck2.Test.make ~count:200
    ~name:"exact-mode histogram percentile = Runner's historical rank interpolation"
    QCheck2.Gen.(
      pair (list_size (int_range 0 60) (float_bound_inclusive 100.0)) (float_bound_inclusive 1.0))
    (fun (xs, q) ->
      let h = O.Histogram.create ~lo:1e-3 () in
      List.iter (O.Histogram.observe h) xs;
      let sorted = Array.of_list (List.sort Float.compare xs) in
      let a = O.Histogram.percentile h (q *. 100.0) in
      let b = percentile sorted q in
      Float.abs (a -. b) <= 1e-9 *. (1.0 +. Float.abs b))

let test_hist_bucket_mode () =
  let h = O.Histogram.create ~buckets:32 ~lo:1e-3 ~growth:2.0 ~exact_cap:4 () in
  let st = Helpers.rng 11 in
  for _ = 1 to 500 do
    O.Histogram.observe h (Random.State.float st 10.0 +. 0.001)
  done;
  Alcotest.(check bool) "overflowed exact buffer" false (O.Histogram.is_exact h);
  Alcotest.(check int) "count" 500 (O.Histogram.count h);
  let prev = ref (O.Histogram.percentile h 0.0) in
  List.iter
    (fun q ->
      let v = O.Histogram.percentile h q in
      if v < !prev then Alcotest.failf "percentile not monotone at q=%.0f" q;
      if v < O.Histogram.min_value h -. 1e-12 || v > O.Histogram.max_value h +. 1e-12
      then Alcotest.failf "percentile %.0f outside observed range" q;
      prev := v)
    [ 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ]

let test_hist_merge () =
  let mk () = O.Histogram.create ~buckets:16 ~lo:0.5 ~growth:2.0 ~exact_cap:8 () in
  let a = mk () and b = mk () in
  List.iter (O.Histogram.observe a) [ 1.0; 2.0 ];
  List.iter (O.Histogram.observe b) [ 3.0; 4.0; 5.0 ];
  let ab = mk () and ba = mk () in
  O.Histogram.merge_into ~dst:ab a;
  O.Histogram.merge_into ~dst:ab b;
  O.Histogram.merge_into ~dst:ba b;
  O.Histogram.merge_into ~dst:ba a;
  Alcotest.(check int) "merged count" 5 (O.Histogram.count ab);
  Alcotest.(check (float 1e-12)) "merged sum" 15.0 (O.Histogram.sum ab);
  Alcotest.(check bool) "exactness preserved when both fit" true (O.Histogram.is_exact ab);
  (* Order-independence of every percentile (commutativity). *)
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "p%.0f order-independent" q)
        (O.Histogram.percentile ab q) (O.Histogram.percentile ba q))
    [ 0.0; 50.0; 95.0; 100.0 ];
  let other = O.Histogram.create ~buckets:8 ~lo:0.5 ~growth:2.0 () in
  Alcotest.check_raises "layout mismatch"
    (Invalid_argument "Histogram.merge_into: incompatible bucket layouts") (fun () ->
      O.Histogram.merge_into ~dst:other a)

(* -- Registry ---------------------------------------------------------------- *)

let test_registry_get_or_create () =
  let reg = O.Registry.create () in
  let c1 = O.Registry.counter reg "requests_total" in
  let c2 = O.Registry.counter reg "requests_total" in
  O.Registry.incr c1;
  O.Registry.add c2 2;
  Alcotest.(check int) "same cell" 3 (O.Registry.value c1);
  (match O.Registry.histogram reg "requests_total" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch not rejected");
  (match O.Registry.counter reg "1bad name" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "invalid name not rejected");
  let g = O.Registry.gauge reg "depth" in
  O.Registry.set g 4.5;
  Alcotest.(check (float 1e-12)) "gauge" 4.5 (O.Registry.gauge_value g);
  ignore (O.Registry.histogram reg "latency_seconds");
  let names = O.Registry.fold reg (fun acc name ~stable:_ _ -> name :: acc) [] in
  Alcotest.(check (list string)) "fold sorted"
    [ "depth"; "latency_seconds"; "requests_total" ]
    (List.rev names)

let test_registry_merge_commutative () =
  let mk seed =
    let reg = O.Registry.create () in
    let c = O.Registry.counter reg "ops_total" in
    O.Registry.add c (seed * 10);
    let h = O.Registry.histogram reg ~lo:1.0 ~growth:2.0 "fanout" in
    O.Histogram.observe_n h (float_of_int seed) (seed + 1);
    O.Registry.set (O.Registry.gauge reg "level") (float_of_int seed);
    reg
  in
  let a = mk 1 and b = mk 2 and c = mk 3 in
  let render regs =
    O.Json.to_string (O.Snapshot.to_json (O.Snapshot.of_registries regs))
  in
  Alcotest.(check string) "merge order-independent" (render [ a; b; c ])
    (render [ c; a; b ]);
  let merged = O.Snapshot.of_registries [ a; b; c ] in
  Alcotest.(check (option int)) "counters summed" (Some 60)
    (O.Snapshot.counter_value merged "ops_total")

(* -- Span recorder ----------------------------------------------------------- *)

let fake_clock () =
  let now = ref 0.0 in
  fun () ->
    now := !now +. 1.0;
    !now

let test_span_stages () =
  let t = O.Span.create ~capacity:4 ~clock:(fake_clock ()) () in
  let sp = O.Span.start t "add" in
  O.Span.stage t sp "scatter";
  O.Span.stage_dur t sp "shard0" 0.25;
  O.Span.stage t sp "join";
  match O.Span.spans t with
  | [ r ] ->
    Alcotest.(check string) "label" "add" r.O.Span.label;
    Alcotest.(check (list (pair string (float 1e-12))))
      "stages"
      [ ("scatter", 1.0); ("shard0", 0.25); ("join", 1.0) ]
      r.O.Span.stages;
    Alcotest.(check int) "nothing dropped" 0 r.O.Span.dropped
  | rs -> Alcotest.failf "expected one span, got %d" (List.length rs)

let test_span_wraparound () =
  let t = O.Span.create ~capacity:3 ~clock:(fake_clock ()) () in
  for i = 0 to 4 do
    let sp = O.Span.start t (Printf.sprintf "s%d" i) in
    O.Span.stage t sp "work"
  done;
  Alcotest.(check int) "total started" 5 (O.Span.total t);
  Alcotest.(check int) "dropped" 2 (O.Span.dropped t);
  let labels = List.map (fun r -> r.O.Span.label) (O.Span.spans t) in
  Alcotest.(check (list string)) "oldest-first window" [ "s2"; "s3"; "s4" ] labels;
  List.iter
    (fun (r : O.Span.recorded) ->
      Alcotest.(check int) "per-record dropped" 2 r.O.Span.dropped)
    (O.Span.spans t)

let test_span_stage_cap () =
  let t = O.Span.create ~capacity:2 ~max_stages:2 ~clock:(fake_clock ()) () in
  let sp = O.Span.start t "batch" in
  O.Span.stage t sp "a";
  O.Span.stage t sp "b";
  O.Span.stage t sp "c";
  match O.Span.spans t with
  | [ r ] ->
    Alcotest.(check (list string)) "stages beyond cap dropped" [ "a"; "b" ]
      (List.map fst r.O.Span.stages)
  | rs -> Alcotest.failf "expected one span, got %d" (List.length rs)

let test_span_disabled_zero_alloc () =
  let t = O.Span.create ~capacity:0 () in
  Alcotest.(check bool) "disabled" false (O.Span.enabled t);
  (* Warm up so any one-time allocation is out of the measured window. *)
  let sp0 = O.Span.start t "warm" in
  O.Span.stage t sp0 "w";
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    let sp = O.Span.start t "u" in
    O.Span.stage t sp "scatter";
    O.Span.stage_dur t sp "shard0" 1.0;
    O.Span.stage t sp "join"
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "disabled span path allocates nothing" 0.0 allocated;
  Alcotest.(check int) "nothing recorded" 0 (O.Span.total t);
  Alcotest.(check (list reject)) "no spans" [] (O.Span.spans t)

(* -- JSON -------------------------------------------------------------------- *)

let test_json_print_parse () =
  let open O.Json in
  Alcotest.(check string) "integral float" "3" (to_string (int 3));
  Alcotest.(check string) "fraction" "2.5" (to_string (Num 2.5));
  Alcotest.(check string) "escapes" "\"a\\\"b\\n\"" (to_string (Str "a\"b\n"));
  let doc =
    Obj
      [
        ("name", Str "x");
        ("vals", Arr [ int 1; Num 2.25; Bool true; Null ]);
        ("nested", Obj [ ("k", Str "über") ]);
      ]
  in
  (match parse (to_string doc) with
  | Ok doc' when doc' = doc -> ()
  | Ok _ -> Alcotest.fail "round-trip changed the document"
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e);
  (match parse (to_string ~pretty:true doc) with
  | Ok doc' when doc' = doc -> ()
  | Ok _ -> Alcotest.fail "pretty round-trip changed the document"
  | Error e -> Alcotest.failf "pretty round-trip failed: %s" e);
  (match parse "\"\\u0041\"" with
  | Ok (Str "A") -> ()
  | _ -> Alcotest.fail "unicode escape");
  List.iter
    (fun bad ->
      match parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed JSON %S" bad)
    [ "[1, 2,]"; "{\"a\": }"; "nul"; "{} trailing"; "\"unterminated"; "" ];
  match to_string (Num Float.nan) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nan not rejected"

(* -- Snapshot exports -------------------------------------------------------- *)

let sample_registry () =
  let reg = O.Registry.create () in
  O.Registry.add (O.Registry.counter reg "updates_total") 7;
  O.Registry.set (O.Registry.gauge reg ~stable:false "queue_depth") 2.0;
  let h = O.Registry.histogram reg ~lo:1.0 ~growth:2.0 "fanout" in
  List.iter (O.Histogram.observe h) [ 1.0; 3.0; 9.0 ];
  reg

let test_snapshot_exports () =
  let snap = O.Snapshot.of_registry (sample_registry ()) in
  let doc = O.Snapshot.envelope ~engine:"TEST" snap in
  (match O.Snapshot.validate doc with
  | Ok 3 -> ()
  | Ok n -> Alcotest.failf "expected 3 metrics, validator saw %d" n
  | Error e -> Alcotest.failf "self-produced envelope invalid: %s" e);
  (* The parse of the printed document validates identically. *)
  (match O.Json.parse (O.Json.to_string ~pretty:true doc) with
  | Ok doc' -> (
    match O.Snapshot.validate doc' with
    | Ok 3 -> ()
    | Ok n -> Alcotest.failf "reparsed envelope saw %d metrics" n
    | Error e -> Alcotest.failf "reparsed envelope invalid: %s" e)
  | Error e -> Alcotest.failf "printed envelope unparseable: %s" e);
  (match O.Snapshot.validate (O.Json.Obj [ ("schema", O.Json.Str "nope") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong schema accepted");
  (* The mem block round-trips and is schema-checked. *)
  let doc_mem =
    O.Snapshot.envelope ~engine:"TEST" ~mem:[| (128, 40, 3); (64, 10, 0) |] snap
  in
  (match O.Snapshot.validate doc_mem with
  | Ok 3 -> ()
  | Ok n -> Alcotest.failf "mem envelope saw %d metrics" n
  | Error e -> Alcotest.failf "mem envelope invalid: %s" e);
  (match O.Json.member "mem" doc_mem with
  | Some (O.Json.Arr (first :: _)) ->
    Alcotest.(check (option string)) "mem slot shape"
      (Some "128")
      (Option.map
         (fun j -> O.Json.to_string j)
         (O.Json.member "arena_rows" first))
  | _ -> Alcotest.fail "mem block missing from envelope");
  (match
     O.Snapshot.validate
       (O.Json.Obj
          [
            ("schema", O.Json.Str "tric-metrics-v1");
            ("engine", O.Json.Str "TEST");
            ("mem", O.Json.Arr [ O.Json.Obj [ ("shard", O.Json.Num 0.0) ] ]);
            ("metrics", O.Json.Arr []);
          ])
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed mem slot accepted");
  (* An engine without a packed store omits the block entirely. *)
  (match O.Json.member "mem" (O.Snapshot.envelope ~engine:"TEST" ~mem:[||] snap) with
  | None -> ()
  | Some _ -> Alcotest.fail "empty mem array should be omitted");
  let prom = O.Snapshot.to_prometheus snap in
  List.iter
    (fun needle ->
      if not (Helpers.contains prom needle) then
        Alcotest.failf "prometheus text missing %S:@.%s" needle prom)
    [
      "updates_total 7";
      "queue_depth 2";
      "fanout_bucket{le=\"1\"} 1";
      "fanout_bucket{le=\"+Inf\"} 3";
      "fanout_sum 13";
      "fanout_count 3";
    ];
  Alcotest.(check (option int)) "counter lookup" (Some 7)
    (O.Snapshot.counter_value snap "updates_total");
  let stable = O.Snapshot.stable_only snap in
  Alcotest.(check bool) "unstable gauge filtered" true
    (O.Snapshot.find stable "queue_depth" = None);
  Alcotest.(check bool) "stable counter kept" true
    (O.Snapshot.find stable "updates_total" <> None)

(* -- Engine integration ------------------------------------------------------ *)

let test_engine_metrics_smoke () =
  let engine = E.Engines.by_name ~shards:2 ~metrics:true "TRIC+" in
  Fun.protect
    ~finally:(fun () -> engine.E.Matcher.shutdown ())
    (fun () ->
      engine.E.Matcher.add_query (Helpers.pattern ~id:1 "?x -a-> ?y -b-> ?z");
      engine.E.Matcher.add_query (Helpers.pattern ~id:2 "?x -b-> ?y");
      let updates =
        Helpers.updates [ "u -a-> v"; "v -b-> w"; "w -a-> u"; "u -b-> v" ]
      in
      let matches =
        List.fold_left
          (fun acc u ->
            acc
            + E.Report.total_matches (engine.E.Matcher.handle_update u))
          0 updates
      in
      ignore (engine.E.Matcher.handle_batch (Helpers.updates [ "x -a-> y"; "u -a-> v" ]));
      let snap = engine.E.Matcher.metrics () in
      let counter name =
        match O.Snapshot.counter_value snap name with
        | Some v -> v
        | None -> Alcotest.failf "missing counter %s" name
      in
      Alcotest.(check int) "updates counted" 6 (counter "tric_updates_total");
      Alcotest.(check int) "additions counted" 6 (counter "tric_additions_total");
      Alcotest.(check int) "no removals" 0 (counter "tric_removals_total");
      Alcotest.(check int) "one batch" 1 (counter "tric_batches_total");
      if counter "tric_matches_total" < matches then
        Alcotest.fail "matches_total below reported embeddings";
      if counter "tric_view_inserts_total" <= 0 then
        Alcotest.fail "no view inserts recorded";
      let spans = engine.E.Matcher.spans () in
      Alcotest.(check int) "one span per dispatch" 5 (List.length spans);
      List.iter
        (fun (r : O.Span.recorded) ->
          if not (List.mem r.O.Span.label [ "add"; "remove"; "batch" ]) then
            Alcotest.failf "unexpected span label %s" r.O.Span.label)
        spans;
      (* The batch span walks the documented stage sequence. *)
      let batch = List.find (fun r -> r.O.Span.label = "batch") spans in
      let stage_names = List.map fst batch.O.Span.stages in
      List.iter
        (fun s ->
          if not (List.mem s stage_names) then
            Alcotest.failf "batch span missing stage %s (has %s)" s
              (String.concat "," stage_names))
        [ "fold"; "scatter"; "gather"; "join" ])

let test_engine_metrics_off_is_empty () =
  let engine = E.Engines.by_name ~shards:1 ~metrics:false "TRIC+" in
  engine.E.Matcher.add_query (Helpers.pattern ~id:1 "?x -a-> ?y");
  ignore (engine.E.Matcher.handle_update (Helpers.update "u -a-> v"));
  Alcotest.(check bool) "empty snapshot" true
    (engine.E.Matcher.metrics () = O.Snapshot.empty);
  Alcotest.(check (list reject)) "no spans" [] (engine.E.Matcher.spans ())

let test_invidx_metrics_smoke () =
  let engine = E.Engines.inv ~cache:true ~metrics:true () in
  engine.E.Matcher.add_query (Helpers.pattern ~id:1 "?x -a-> ?y");
  List.iter
    (fun u -> ignore (engine.E.Matcher.handle_update u))
    (Helpers.updates [ "u -a-> v"; "v -a-> w" ]);
  let snap = engine.E.Matcher.metrics () in
  Alcotest.(check (option int)) "inv updates" (Some 2)
    (O.Snapshot.counter_value snap "inv_updates_total");
  Alcotest.(check (option int)) "inv matches" (Some 2)
    (O.Snapshot.counter_value snap "inv_matches_total")

(* -- Cross-shard determinism (the acceptance differential) ------------------- *)

let prop_stable_metrics_shard_invariant =
  QCheck2.Test.make ~count:30
    ~name:"stable-metrics JSON identical at shards=1 and shards=4"
    (Test_properties.gen_case ~updates:80 ~churn:true ~timed:false ())
    (fun (qspecs, ops, _) ->
      let queries = Test_properties.queries_of qspecs in
      QCheck2.assume (queries <> []);
      let updates = Test_properties.updates_of ops in
      (* Half the stream per-update, the rest as one micro-batch, so both
         dispatch paths feed the compared counters. *)
      let split = List.length updates / 2 in
      let head = List.filteri (fun i _ -> i < split) updates in
      let tail = List.filteri (fun i _ -> i >= split) updates in
      let run shards =
        let t = Tric_core.Tric.create ~cache:true ~shards ~metrics:true () in
        Fun.protect
          ~finally:(fun () -> Tric_core.Tric.shutdown t)
          (fun () ->
            List.iter (Tric_core.Tric.add_query t) queries;
            List.iter (fun u -> ignore (Tric_core.Tric.handle_update t u)) head;
            if tail <> [] then ignore (Tric_core.Tric.handle_batch t tail);
            O.Json.to_string
              (O.Snapshot.to_json (O.Snapshot.stable_only (Tric_core.Tric.metrics t))))
      in
      String.equal (run 1) (run 4))

let suite =
  [
    Alcotest.test_case "histogram exact percentiles" `Quick test_hist_exact_percentiles;
    Alcotest.test_case "histogram bucket mode" `Quick test_hist_bucket_mode;
    Alcotest.test_case "histogram merge" `Quick test_hist_merge;
    Alcotest.test_case "registry get-or-create" `Quick test_registry_get_or_create;
    Alcotest.test_case "registry merge commutative" `Quick test_registry_merge_commutative;
    Alcotest.test_case "span stages" `Quick test_span_stages;
    Alcotest.test_case "span ring wraparound" `Quick test_span_wraparound;
    Alcotest.test_case "span stage cap" `Quick test_span_stage_cap;
    Alcotest.test_case "span disabled = zero allocation" `Quick test_span_disabled_zero_alloc;
    Alcotest.test_case "json print/parse" `Quick test_json_print_parse;
    Alcotest.test_case "snapshot exports" `Quick test_snapshot_exports;
    Alcotest.test_case "engine metrics smoke" `Quick test_engine_metrics_smoke;
    Alcotest.test_case "metrics off = empty" `Quick test_engine_metrics_off_is_empty;
    Alcotest.test_case "invidx metrics smoke" `Quick test_invidx_metrics_smoke;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_hist_exact_matches_runner; prop_stable_metrics_shard_invariant ]
