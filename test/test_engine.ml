(* Engine-layer tests: report algebra, the engines registry, the stream
   runner (budget, checkpoints, statistics), deletion behaviour across
   engines, and mid-stream query registration. *)

open Tric_graph
module E = Tric_engine

let emb pairs =
  List.fold_left
    (fun e (vid, v) -> Option.get (Tric_rel.Embedding.bind e vid (Label.intern v)))
    (Tric_rel.Embedding.empty 3) pairs

let test_report_algebra () =
  let c = [ (2, [ emb [ (0, "b") ] ]); (1, [ emb [ (0, "a") ]; emb [ (0, "a") ] ]) ] in
  let r = E.Report.of_matches c in
  let n = E.Report.normalise r in
  Alcotest.(check (list int)) "sorted ids" [ 1; 2 ] (E.Report.satisfied_ids n);
  Alcotest.(check int) "dedup inside query" 2 (E.Report.total_matches n);
  Alcotest.(check int) "matches_of known" 1 (List.length (E.Report.matches_of n 2));
  Alcotest.(check int) "matches_of unknown" 0 (List.length (E.Report.matches_of n 9));
  Alcotest.(check bool) "equal mod order" true
    (E.Report.equal r { n with E.Report.matches = List.rev n.E.Report.matches });
  Alcotest.(check bool) "inequal" false
    (E.Report.equal r (E.Report.of_matches [ (1, [ emb [ (0, "zzz") ] ]) ]));
  (* Retractions are part of report equality: the same matches with a
     retraction channel is a different answer. *)
  let with_retraction = { n with E.Report.retractions = [ (1, [ emb [ (0, "a") ] ]) ] } in
  Alcotest.(check bool) "retractions distinguish" false (E.Report.equal r with_retraction);
  Alcotest.(check int) "total_retractions" 1 (E.Report.total_retractions with_retraction);
  Alcotest.(check (list int)) "satisfied_ids ignores retraction-only" [ 1; 2 ]
    (E.Report.satisfied_ids with_retraction)

let test_report_merge_algebra () =
  let ra =
    E.Report.of_pair ([ (1, [ emb [ (0, "a") ] ]) ], [ (2, [ emb [ (1, "x") ] ]) ])
  in
  let rb =
    E.Report.of_pair ([ (1, [ emb [ (0, "b") ] ]); (3, [ emb [ (0, "c") ] ]) ], [])
  in
  let rc =
    E.Report.of_pair
      ([ (1, [ emb [ (0, "a") ] ]) ], [ (2, [ emb [ (1, "x") ]; emb [ (1, "y") ] ]) ])
  in
  let m_left = E.Report.merge [ E.Report.merge [ ra; rb ]; rc ] in
  let m_right = E.Report.merge [ ra; E.Report.merge [ rb; rc ] ] in
  let m_flat = E.Report.merge [ ra; rb; rc ] in
  Alcotest.(check bool) "merge associative (left vs right)" true
    (E.Report.equal m_left m_right);
  Alcotest.(check bool) "merge associative (nested vs flat)" true
    (E.Report.equal m_left m_flat);
  Alcotest.(check bool) "empty is a merge identity" true
    (E.Report.equal (E.Report.merge [ ra; E.Report.empty ]) ra);
  Alcotest.(check bool) "merge with self dedups" true
    (E.Report.equal (E.Report.merge [ ra; ra ]) ra);
  (* normalise is idempotent, structurally: rendering a normalised report
     a second time through normalise changes nothing *)
  let render r = Format.asprintf "%a" E.Report.pp r in
  let n = E.Report.normalise m_flat in
  Alcotest.(check string) "normalise idempotent" (render n)
    (render (E.Report.normalise n));
  (* dedup is per channel: duplicates collapse within matches and within
     retractions, but the same embedding may legitimately sit in both *)
  let e = emb [ (0, "a") ] in
  let dup = E.Report.of_pair ([ (1, [ e; e ]) ], [ (1, [ e; e ]) ]) in
  let dn = E.Report.normalise dup in
  Alcotest.(check int) "matches deduped" 1 (E.Report.total_matches dn);
  Alcotest.(check int) "retractions deduped" 1 (E.Report.total_retractions dn);
  Alcotest.(check int) "embedding kept on both channels" 1
    (List.length (E.Report.retractions_of dn 1))

let test_registry () =
  List.iter
    (fun name ->
      let e = E.Engines.by_name name in
      Alcotest.(check string) ("registry name " ^ name) name e.E.Matcher.name)
    E.Engines.paper_names;
  Alcotest.check_raises "unknown engine"
    (Invalid_argument "Engines.by_name: unknown engine \"nope\"") (fun () ->
      ignore (E.Engines.by_name "nope"));
  (* Every engine handle reports a positive memory footprint and query
     count consistency. *)
  List.iter
    (fun name ->
      let e = E.Engines.by_name name in
      e.E.Matcher.add_query (Helpers.pattern ~id:1 "?x -a-> ?y");
      Alcotest.(check int) (name ^ " query count") 1 (e.E.Matcher.num_queries ());
      Alcotest.(check bool) (name ^ " memory > 0") true (e.E.Matcher.memory_words () > 0);
      Alcotest.(check bool) (name ^ " remove") true (e.E.Matcher.remove_query 1);
      Alcotest.(check bool) (name ^ " remove again") false (e.E.Matcher.remove_query 1))
    ("ISO" :: E.Engines.paper_names)

let test_runner_basics () =
  let queries = [ Helpers.pattern ~id:1 "?x -a-> ?y -b-> ?z" ] in
  let stream =
    Stream.of_updates (Helpers.updates [ "u -a-> v"; "v -b-> w"; "u -a-> v"; "x -b-> y" ])
  in
  let r = E.Runner.run ~engine:(E.Engines.tric ()) ~queries ~stream () in
  Alcotest.(check int) "all processed" 4 r.E.Runner.updates_processed;
  Alcotest.(check bool) "no timeout" false r.E.Runner.timed_out;
  Alcotest.(check int) "one match" 1 r.E.Runner.matches;
  Alcotest.(check int) "one satisfied query" 1 r.E.Runner.satisfied_queries;
  Alcotest.(check bool) "memory measured" true (r.E.Runner.memory_words > 0);
  Alcotest.(check bool) "p50 <= p95 <= max" true
    (r.E.Runner.p50_ms <= r.E.Runner.p95_ms && r.E.Runner.p95_ms <= r.E.Runner.max_ms)

let test_runner_checkpoints () =
  let queries = [ Helpers.pattern ~id:1 "?x -a-> ?y" ] in
  let stream =
    Stream.of_edges (List.init 10 (fun i -> Edge.of_strings "a" (string_of_int i) "t"))
  in
  let r =
    E.Runner.run ~checkpoints:[ 3; 7; 10 ] ~engine:(E.Engines.tric ()) ~queries ~stream ()
  in
  Alcotest.(check (list int)) "checkpoints reached" [ 3; 7; 10 ]
    (List.map fst r.E.Runner.checkpoints);
  let segs = E.Runner.segment_means_ms r in
  Alcotest.(check int) "segments" 3 (List.length segs);
  List.iter (fun (_, m) -> Alcotest.(check bool) "segment mean >= 0" true (m >= 0.0)) segs;
  (* Cumulative times are monotone. *)
  let times = List.map snd r.E.Runner.checkpoints in
  Alcotest.(check bool) "monotone" true (List.sort compare times = times)

let test_runner_budget () =
  (* A deliberately slow engine: the budget must truncate the run. *)
  let slow =
    E.Matcher.make ~name:"SLOW"
      ~add_query:(fun _ -> ())
      ~remove_query:(fun _ -> false)
      ~num_queries:(fun () -> 0)
      ~handle_update:(fun _ ->
        ignore (Unix.select [] [] [] 0.02);
        E.Report.empty)
      ~current_matches:(fun _ -> [])
      ~memory_words:(fun () -> 1)
      ()
  in
  let stream =
    Stream.of_edges (List.init 100 (fun i -> Edge.of_strings "a" (string_of_int i) "t"))
  in
  let r = E.Runner.run ~budget_s:0.1 ~engine:slow ~queries:[] ~stream () in
  Alcotest.(check bool) "timed out" true r.E.Runner.timed_out;
  Alcotest.(check bool) "truncated" true (r.E.Runner.updates_processed < 100)

(* Interleaved additions and removals of live edges, checked against the
   oracle after every update. *)
let deletion name =
  Test_properties.check_seeded ~churn:25 ~seed:4242 ~queries:5 ~updates:150 [ name ]

let test_engine_stats () =
  (* Every engine exposes non-trivial counters after some activity. *)
  List.iter
    (fun name ->
      let e = E.Engines.by_name name in
      e.E.Matcher.add_query (Helpers.pattern ~id:1 "?x -a-> ?y -b-> ?z");
      ignore (e.E.Matcher.handle_update (Helpers.update "u -a-> v"));
      ignore (e.E.Matcher.handle_update (Helpers.update "v -b-> w"));
      let stats = e.E.Matcher.stats () in
      Alcotest.(check bool) (name ^ " has counters") true (stats <> []);
      Alcotest.(check bool)
        (name ^ " counters non-negative")
        true
        (List.for_all (fun (_, v) -> v >= 0) stats))
    E.Engines.paper_names;
  (* TRIC's census is precise: one trie (shared chain), two nodes, one
     query. *)
  let t = Tric_core.Tric.create () in
  Tric_core.Tric.add_query t (Helpers.pattern ~id:1 "?x -a-> ?y -b-> ?z");
  let s = Tric_core.Tric.stats t in
  Alcotest.(check int) "one trie" 1 s.Tric_core.Tric.tries;
  Alcotest.(check int) "two nodes" 2 s.Tric_core.Tric.trie_nodes;
  Alcotest.(check int) "two base views" 2 s.Tric_core.Tric.base_views

let test_runner_empty_stream () =
  let r =
    E.Runner.run
      ~engine:(E.Engines.tric ())
      ~queries:[ Helpers.pattern ~id:1 "?x -a-> ?y" ]
      ~stream:Stream.empty ()
  in
  Alcotest.(check int) "zero processed" 0 r.E.Runner.updates_processed;
  Alcotest.(check bool) "no timeout" false r.E.Runner.timed_out;
  Alcotest.(check (float 1e-9)) "zero mean" 0.0 r.E.Runner.mean_ms;
  (* measure_memory:false skips the heap walk. *)
  let r =
    E.Runner.run ~measure_memory:false
      ~engine:(E.Engines.tric ())
      ~queries:[] ~stream:Stream.empty ()
  in
  Alcotest.(check int) "memory skipped" 0 r.E.Runner.memory_words

let test_runner_duplicate_checkpoints () =
  (* Duplicate checkpoints (growth figures at high scale collapse several
     onto the same update count) must all be drained by the one update
     that satisfies them, not stranded as spurious timeouts. *)
  let queries = [ Helpers.pattern ~id:1 "?x -a-> ?y" ] in
  let stream =
    Stream.of_edges (List.init 10 (fun i -> Edge.of_strings "a" (string_of_int i) "t"))
  in
  let r =
    E.Runner.run
      ~checkpoints:[ 3; 3; 7; 10; 10 ]
      ~engine:(E.Engines.tric ()) ~queries ~stream ()
  in
  Alcotest.(check (list int)) "all five drained" [ 3; 3; 7; 10; 10 ]
    (List.map fst r.E.Runner.checkpoints)

let test_runner_batched () =
  (* Batched replay: same matches as per-update, batch-straddled
     checkpoints recorded at the batch boundary that crossed them, and the
     call count reflects ceil(total / batch_size). *)
  let queries = [ Helpers.pattern ~id:1 "?x -a-> ?y -b-> ?z" ] in
  let edges =
    List.concat_map
      (fun i ->
        let v = string_of_int i in
        [ Edge.of_strings "a" ("s" ^ v) ("m" ^ v); Edge.of_strings "b" ("m" ^ v) ("t" ^ v) ])
      (List.init 10 Fun.id)
  in
  let stream = Stream.of_edges edges in
  let seq = E.Runner.run ~engine:(E.Engines.tric ()) ~queries ~stream () in
  let bat =
    E.Runner.run ~batch_size:7 ~checkpoints:[ 5; 20 ]
      ~engine:(E.Engines.tric ~cache:true ())
      ~queries ~stream ()
  in
  Alcotest.(check int) "all processed" 20 bat.E.Runner.updates_processed;
  Alcotest.(check int) "ceil(20/7) calls" 3 bat.E.Runner.batches;
  Alcotest.(check int) "same matches as sequential" seq.E.Runner.matches
    bat.E.Runner.matches;
  Alcotest.(check (list int)) "checkpoints at batch boundaries" [ 7; 20 ]
    (List.map fst bat.E.Runner.checkpoints);
  Alcotest.(check bool) "throughput positive" true (bat.E.Runner.throughput_ups > 0.0);
  Alcotest.check_raises "batch_size 0 rejected"
    (Invalid_argument "Runner.run: batch_size must be >= 1") (fun () ->
      ignore
        (E.Runner.run ~batch_size:0 ~engine:(E.Engines.tric ()) ~queries ~stream ()))

let test_midstream_query_addition () =
  (* A query registered mid-stream must see state retained for earlier
     queries with overlapping structure, and must match later updates. *)
  let t = Tric_core.Tric.create () in
  Tric_core.Tric.add_query t (Helpers.pattern ~id:1 "?x -a-> ?y");
  ignore (Tric_core.Tric.handle_update t (Helpers.update "u -a-> v"));
  (* Same structure: seeds from the shared base view. *)
  Tric_core.Tric.add_query t (Helpers.pattern ~id:2 "?x -a-> ?y -b-> ?z");
  Alcotest.(check int) "no match yet" 0 (List.length (Tric_core.Tric.current_matches t 2));
  let r, _ = Tric_core.Tric.handle_update t (Helpers.update "v -b-> w") in
  Alcotest.(check (list int)) "late query fires" [ 2 ] (List.map fst r);
  Alcotest.(check int) "late query state" 1 (List.length (Tric_core.Tric.current_matches t 2))

let suite =
  [
    Alcotest.test_case "report algebra" `Quick test_report_algebra;
    Alcotest.test_case "report merge algebra" `Quick test_report_merge_algebra;
    Alcotest.test_case "engines registry" `Quick test_registry;
    Alcotest.test_case "runner basics" `Quick test_runner_basics;
    Alcotest.test_case "runner checkpoints" `Quick test_runner_checkpoints;
    Alcotest.test_case "runner budget" `Quick test_runner_budget;
    Alcotest.test_case "runner duplicate checkpoints" `Quick
      test_runner_duplicate_checkpoints;
    Alcotest.test_case "runner batched replay" `Quick test_runner_batched;
    Alcotest.test_case "deletion differential (TRIC)" `Quick (deletion "TRIC");
    Alcotest.test_case "deletion differential (TRIC+)" `Quick (deletion "TRIC+");
    Alcotest.test_case "deletion differential (INV)" `Quick (deletion "INV");
    Alcotest.test_case "deletion differential (INC+)" `Quick (deletion "INC+");
    Alcotest.test_case "deletion differential (GraphDB)" `Quick (deletion "GraphDB");
    Alcotest.test_case "mid-stream query addition" `Quick test_midstream_query_addition;
    Alcotest.test_case "engine stats" `Quick test_engine_stats;
    Alcotest.test_case "runner empty stream" `Quick test_runner_empty_stream;
  ]
