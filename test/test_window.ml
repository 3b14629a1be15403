(* Window subsystem tests: eviction retractions riding the triggering
   report (the silent-loss regression), event-time expiry under a
   watermark, lateness handling, tumbling resets, per-spec groups, the
   window-coherence audit class, and the registry wiring. *)

open Tric_query
module E = Tric_engine

let wpattern ~id s = Parse.pattern ~id s

(* Regression: [Window.evict_oldest] used to discard the inner engine's
   expiry report, so a match destroyed by the sliding edge of the window
   vanished without a retraction.  The eviction's retractions must ride
   the report of the update that caused it. *)
let test_evict_retraction_reported () =
  let w = Helpers.count_window 2 (fun () -> E.Engines.tric ~cache:true ()) in
  E.Window.add_query w (Helpers.pattern ~id:1 "?x -a-> ?y -b-> ?z");
  ignore (E.Window.handle_update w (Helpers.update "u -a-> v"));
  let r = E.Window.handle_update w (Helpers.update "v -b-> t") in
  Alcotest.(check int) "match formed" 1 (E.Report.total_matches r);
  (* The third edge evicts u-a->v and destroys the chain. *)
  let r = E.Window.handle_update w (Helpers.update "zzz -c-> zzz2") in
  Alcotest.(check int) "no new match" 0 (E.Report.total_matches r);
  Alcotest.(check int) "destroyed match retracted" 1 (E.Report.total_retractions r);
  Alcotest.(check (list int)) "retraction names the query" [ 1 ]
    (List.map fst r.E.Report.retractions);
  Alcotest.(check int) "engine state empty" 0
    (List.length (E.Window.current_matches w 1))

(* Regression: a sliding count window took the stale queue cell of an
   edge that was removed and re-added for the live one, evicting the
   re-added edge instead of the oldest and never retracting the oldest's
   match.  The shrunk counterexample: [?x0 -a-> ?x0] in 6 EVENTS with
   a=(v4,v2) added, removed and re-added around the self-loop that
   matches; the window must overflow on the self-loop, not on a=(v4,v2). *)
let test_readded_edge_not_evicted_early () =
  let queries = [ Helpers.pattern ~id:1 "?x0 -a-> ?x0" ] in
  let stream =
    Helpers.updates
      [
        "v4 -a-> v2"; "- v4 -a-> v2"; "v1 -a-> v1"; "v4 -a-> v2"; "v1 -a-> v2"; "v1 -a-> v3";
        "v2 -a-> v3"; "v3 -a-> v4"; "v2 -a-> v1";
      ]
  in
  let spec = Wspec.Count { shape = Wspec.Sliding; size = 6 } in
  Test_properties.(
    run
      ~engines:[ engine "TRIC"; engine "TRIC+"; engine ~batched:true "TRIC+" ]
      ~window:(Default spec) ~drain:false ~batch:1 queries stream);
  let w = Helpers.count_window 6 (fun () -> E.Engines.tric ~cache:true ()) in
  E.Window.add_query w (List.hd queries);
  let reports = List.map (E.Window.handle_update w) stream in
  Alcotest.(check int) "the overflow retracts the self-loop's match" 1
    (E.Report.total_retractions (List.nth reports 8));
  Alcotest.(check int) "no match left" 0 (List.length (E.Window.current_matches w 1));
  Alcotest.(check int) "window full" 6 (E.Window.live_edges w)

let test_time_window_expiry () =
  let w = E.Window.make (fun () -> E.Engines.tric ~cache:true ()) in
  E.Window.add_query w (wpattern ~id:1 "?x -a-> ?y -b-> ?z WITHIN 10s");
  ignore (E.Window.handle_update w (Helpers.update "u -a-> v @100"));
  let r = E.Window.handle_update w (Helpers.update "v -b-> t @105") in
  Alcotest.(check int) "chain within span" 1 (E.Report.total_matches r);
  Alcotest.(check (option int)) "watermark tracks max ts" (Some 105)
    (E.Window.watermark w);
  (* At watermark 112 the @100 edge (deadline 110) expires; the expiry
     retraction rides the unrelated triggering update's report. *)
  let r = E.Window.handle_update w (Helpers.update "q -c-> q2 @112") in
  Alcotest.(check int) "no new match" 0 (E.Report.total_matches r);
  Alcotest.(check int) "expired chain retracted" 1 (E.Report.total_retractions r);
  Alcotest.(check int) "expired edge left the window" 2 (E.Window.live_edges w);
  Alcotest.(check int) "expiry counted" 1 (E.Window.expired_edges w);
  Alcotest.(check int) "one expiry batch" 1 (E.Window.expiry_batches w);
  Alcotest.(check int) "match gone" 0 (List.length (E.Window.current_matches w 1));
  (* A duplicate addition refreshes the deadline: v-b->t re-added at 114
     now lives to 124 and survives the watermark reaching 120. *)
  ignore (E.Window.handle_update w (Helpers.update "v -b-> t @114"));
  ignore (E.Window.handle_update w (Helpers.update "q2 -c-> q3 @120"));
  Alcotest.(check int) "refreshed edge survives" 1 (E.Window.expired_edges w)

let test_late_updates () =
  let w = E.Window.make ~slack:2 (fun () -> E.Engines.tric ()) in
  E.Window.add_query w (wpattern ~id:1 "?x -a-> ?y WITHIN 100s");
  ignore (E.Window.handle_update w (Helpers.update "u -a-> v @50"));
  (* Watermark = 50 - slack = 48: an addition behind it is dropped whole. *)
  let r = E.Window.handle_update w (Helpers.update "w1 -a-> w2 @47") in
  Alcotest.(check bool) "late addition reports nothing" true (E.Report.is_empty r);
  Alcotest.(check int) "late addition counted" 1 (E.Window.late_dropped w);
  Alcotest.(check int) "late addition not retained" 1 (E.Window.live_edges w);
  (* Event time equal to the watermark is on time. *)
  let r = E.Window.handle_update w (Helpers.update "x1 -a-> x2 @48") in
  Alcotest.(check int) "at-watermark addition applies" 1 (E.Report.total_matches r);
  (* A late REMOVAL still applies — dropping it would desynchronize the
     window from the stream's ground truth. *)
  let r = E.Window.handle_update w (Helpers.update "- u -a-> v @40") in
  Alcotest.(check int) "late removal retracts" 1 (E.Report.total_retractions r);
  Alcotest.(check int) "late removal frees the slot" 1 (E.Window.live_edges w)

let test_count_tumbling_flush () =
  let w = E.Window.make (fun () -> E.Engines.tric ()) in
  E.Window.add_query w (wpattern ~id:1 "?x -a-> ?y WITHIN 3 EVENTS TUMBLING");
  List.iter
    (fun s -> ignore (E.Window.handle_update w (Helpers.update s)))
    [ "a1 -a-> b1"; "a2 -a-> b2"; "a3 -a-> b3" ];
  Alcotest.(check int) "full bucket" 3 (E.Window.live_edges w);
  (* The fourth addition starts a new bucket: everything flushes first. *)
  let r = E.Window.handle_update w (Helpers.update "a4 -a-> b4") in
  Alcotest.(check int) "new bucket's match" 1 (E.Report.total_matches r);
  Alcotest.(check int) "old bucket retracted" 3 (E.Report.total_retractions r);
  Alcotest.(check int) "only the new edge lives" 1 (E.Window.live_edges w);
  Alcotest.(check int) "one match left" 1
    (List.length (E.Window.current_matches w 1))

let test_spec_groups_isolated () =
  let w = E.Window.make (fun () -> E.Engines.tric ()) in
  E.Window.add_query w (wpattern ~id:1 "?x -a-> ?y WITHIN 2 EVENTS");
  (* No WITHIN and no default: unbounded group of its own. *)
  E.Window.add_query w (wpattern ~id:2 "?x -a-> ?y");
  Alcotest.(check int) "two groups" 2 (List.length (E.Window.engines w));
  Alcotest.(check int) "two queries" 2 (E.Window.num_queries w);
  (match E.Window.spec_of w 1 with
  | Some (Some (Wspec.Count { shape = Wspec.Sliding; size = 2 })) -> ()
  | _ -> Alcotest.fail "query 1 should sit in the 2-EVENTS group");
  Alcotest.(check bool) "query 2 unwindowed" true (E.Window.spec_of w 2 = Some None);
  Alcotest.(check bool) "unknown id" true (E.Window.spec_of w 9 = None);
  List.iter
    (fun s -> ignore (E.Window.handle_update w (Helpers.update s)))
    [ "s1 -a-> t1"; "s2 -a-> t2"; "s3 -a-> t3" ];
  (* The count group evicted s1; the unbounded group kept everything. *)
  Alcotest.(check int) "windowed result scoped" 2
    (List.length (E.Window.current_matches w 1));
  Alcotest.(check int) "unbounded result complete" 3
    (List.length (E.Window.current_matches w 2));
  Alcotest.(check int) "live edges sum over groups" 5 (E.Window.live_edges w);
  E.Window.shutdown w

(* Seeded violation: with expiry suppressed, retained edges outlive their
   deadlines and capacities — the window-coherence class must flag it. *)
let test_audit_flags_suppressed_expiry () =
  let scenario mk_query updates =
    let w = E.Window.make (fun () -> E.Engines.tric ~cache:true ()) in
    E.Window.add_query w mk_query;
    (match updates with
    | first :: rest ->
      ignore (E.Window.handle_update w (Helpers.update first));
      Alcotest.(check bool) "clean before corruption" true
        (Tric_audit.Audit.is_clean (E.Window.audit w None));
      E.Window.Corrupt.suppress_expiry w;
      List.iter (fun s -> ignore (E.Window.handle_update w (Helpers.update s))) rest
    | [] -> assert false);
    let findings = E.Window.audit w None in
    let classes =
      List.sort_uniq String.compare
        (List.map
           (fun f -> f.Tric_audit.Audit.invariant)
           (Tric_audit.Audit.errors findings))
    in
    Alcotest.(check bool) "window-coherence flagged" true
      (List.mem "window-coherence" classes)
  in
  (* Time window: an edge sits past its deadline at the watermark. *)
  scenario
    (wpattern ~id:1 "?x -a-> ?y WITHIN 10s")
    [ "u -a-> v @100"; "u2 -a-> v2 @200" ];
  (* Count window: more distinct retained edges than the capacity. *)
  scenario
    (wpattern ~id:1 "?x -a-> ?y WITHIN 1 EVENTS")
    [ "c1 -a-> d1"; "c2 -a-> d2" ]

(* The registry exposure: [windowed_spec] over a [by_name] factory wraps
   the engine in a spec-aware window, presented as a Matcher.t with
   queries, stats, retractions and the audit all passed through. *)
let test_registry_window () =
  let spec = Wspec.Count { shape = Wspec.Sliding; size = 3 } in
  let e = E.Engines.windowed_spec ~default:spec (fun () -> E.Engines.by_name "TRIC+") in
  Alcotest.(check string) "windowed name" "TRIC+/win[3 EVENTS]" e.E.Matcher.name;
  e.E.Matcher.add_query (Helpers.pattern ~id:1 "?x -a-> ?y");
  Alcotest.(check int) "queries visible" 1 (e.E.Matcher.num_queries ());
  List.iter
    (fun s -> ignore (e.E.Matcher.handle_update (Helpers.update s)))
    [ "e1 -a-> t1"; "e2 -a-> t2"; "e3 -a-> t3" ];
  let r = e.E.Matcher.handle_update (Helpers.update "e4 -a-> t4") in
  Alcotest.(check int) "eviction retraction through matcher" 1
    (E.Report.total_retractions r);
  Alcotest.(check int) "only window retained" 3
    (List.length (e.E.Matcher.current_matches 1));
  Alcotest.(check bool) "stats passthrough" true (e.E.Matcher.stats () <> []);
  Alcotest.(check bool) "windowed matcher audits clean" true
    (Tric_audit.Audit.is_clean (e.E.Matcher.audit None));
  e.E.Matcher.shutdown ()

(* The batched entry point: retention and watermark advance update by
   update, engine work lands as one net-op batch per group. *)
let test_window_batch () =
  let w = E.Window.make (fun () -> E.Engines.tric ~cache:true ()) in
  E.Window.add_query w (wpattern ~id:1 "?x -a-> ?y WITHIN 10s");
  let r =
    E.Window.handle_batch w
      (Helpers.updates [ "u1 -a-> v1 @100"; "u2 -a-> v2 @105"; "u3 -a-> v3 @120" ])
  in
  (* u1 (deadline 110) and u2 (deadline 115) expire when the in-batch
     watermark hits 120: their transient matches fold away inside the
     single net-op batch, leaving only u3's. *)
  Alcotest.(check int) "surviving matches" 1 (E.Report.total_matches r);
  Alcotest.(check int) "one live" 1 (E.Window.live_edges w);
  Alcotest.(check int) "expired inside the batch" 2 (E.Window.expired_edges w);
  Alcotest.(check int) "current scoped" 1 (List.length (E.Window.current_matches w 1))

(* A query's own WITHIN clause is honoured by replay and audit without
   --window: four chained edges through a 2-event window report four
   matches and retract the two that slide out. *)
let test_cli_honours_within () =
  let file = Filename.temp_file "tric_within" ".ds" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_text file (fun oc ->
          output_string oc "N\twithin\nQ\t1\tq\t?x -a-> ?y WITHIN 2 EVENTS\n";
          List.iter
            (fun (s, d) -> Printf.fprintf oc "U\t%s -a-> %s\n" s d)
            [ ("v1", "v2"); ("v2", "v3"); ("v3", "v4"); ("v4", "v5") ]);
      List.iter
        (fun args ->
          let out = Helpers.run_cli (args @ [ file; "--engine"; "TRIC" ]) in
          Alcotest.(check bool)
            (String.concat " " args ^ " retracts the expired matches")
            true (Helpers.contains out "matches 4 -2"))
        [ [ "replay" ]; [ "audit"; "--every"; "1" ] ])

(* Without a default no group exists until a query registers; the handle
   still reports the factory engine's shard count and name. *)
let test_clause_only_handle () =
  let e = E.Engines.windowed_spec (fun () -> E.Engines.tric ~shards:2 ()) in
  Alcotest.(check int) "shards" 2 e.E.Matcher.shards;
  Alcotest.(check string) "name" "TRIC/win" e.E.Matcher.name;
  e.E.Matcher.shutdown ()

let suite =
  [
    Alcotest.test_case "eviction retraction reported" `Quick
      test_evict_retraction_reported;
    Alcotest.test_case "re-added edge not evicted early" `Quick
      test_readded_edge_not_evicted_early;
    Alcotest.test_case "time window expiry at watermark" `Quick test_time_window_expiry;
    Alcotest.test_case "late additions dropped, late removals applied" `Quick
      test_late_updates;
    Alcotest.test_case "count tumbling flush" `Quick test_count_tumbling_flush;
    Alcotest.test_case "per-spec groups isolated" `Quick test_spec_groups_isolated;
    Alcotest.test_case "audit flags suppressed expiry" `Quick
      test_audit_flags_suppressed_expiry;
    Alcotest.test_case "registry --window wiring" `Quick
      test_registry_window;
    Alcotest.test_case "windowed handle_batch" `Quick test_window_batch;
    Alcotest.test_case "replay and audit honour WITHIN" `Quick test_cli_honours_within;
    Alcotest.test_case "clause-only handle: shards and name" `Quick test_clause_only_handle;
  ]
