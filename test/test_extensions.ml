(* Tests for the extension features: sliding windows,
   property-graph constraints (§4.3), the Cypher→pattern bridge, and
   dataset persistence. *)

open Tric_graph
module E = Tric_engine

(* -- Window ------------------------------------------------------------------ *)

let test_window_expiry () =
  let w = Helpers.count_window 2 (fun () -> E.Engines.tric ()) in
  E.Window.add_query w (Helpers.pattern ~id:1 "?x -a-> ?y -b-> ?z");
  let r = E.Window.handle_update w (Helpers.update "u -a-> v") in
  Alcotest.(check int) "no match" 0 (E.Report.total_matches r);
  let r = E.Window.handle_update w (Helpers.update "v -b-> t") in
  Alcotest.(check int) "chain within window" 1 (E.Report.total_matches r);
  Alcotest.(check int) "two live" 2 (E.Window.live_edges w);
  (* Third edge evicts the first (u-a->v); the chain is then gone. *)
  ignore (E.Window.handle_update w (Helpers.update "zzz -c-> zzz2"));
  Alcotest.(check int) "still two live" 2 (E.Window.live_edges w);
  Alcotest.(check int) "chain expired" 0
    (List.length ((E.Window.engine w).E.Matcher.current_matches 1));
  (* Re-adding the expired edge evicts its old chain partner (the window
     holds only 2 edges), so no match yet... *)
  let r = E.Window.handle_update w (Helpers.update "u -a-> v") in
  Alcotest.(check int) "partner was evicted" 0 (E.Report.total_matches r);
  (* ...until the partner returns too (evicting the unrelated edge). *)
  let r = E.Window.handle_update w (Helpers.update "v -b-> t") in
  Alcotest.(check int) "re-match once both inside window" 1 (E.Report.total_matches r)

let test_window_refresh () =
  let w = Helpers.count_window 2 (fun () -> E.Engines.tric ~cache:true ()) in
  E.Window.add_query w (Helpers.pattern ~id:1 "?x -a-> ?y");
  ignore (E.Window.handle_update w (Helpers.update "e1 -a-> t"));
  ignore (E.Window.handle_update w (Helpers.update "e2 -a-> t"));
  (* Refresh e1: it becomes the newest, so the next insertion must evict
     e2, not e1. *)
  ignore (E.Window.handle_update w (Helpers.update "e1 -a-> t"));
  ignore (E.Window.handle_update w (Helpers.update "e3 -a-> t"));
  let matches = (E.Window.engine w).E.Matcher.current_matches 1 in
  let srcs =
    List.filter_map (fun e -> Option.map Label.to_string (Tric_rel.Embedding.get e 0)) matches
    |> List.sort compare
  in
  Alcotest.(check (list string)) "e1 refreshed, e2 evicted" [ "e1"; "e3" ] srcs;
  (* Explicit removal frees a slot. *)
  ignore (E.Window.handle_update w (Helpers.update "- e1 -a-> t"));
  Alcotest.(check int) "one live after explicit remove" 1 (E.Window.live_edges w)

(* -- Props (§4.3 property graphs) -------------------------------------------- *)

let test_props_filtering () =
  let p = E.Props.create (E.Engines.tric ~cache:true ()) in
  (* "A person flagged as a bot posting to a monitored forum." *)
  let pat = Helpers.pattern ~id:1 "?who -posted-> ?what" in
  E.Props.add_query p ~constraints:[ { E.Props.vid = 0; key = "kind"; value = "bot" } ] pat;
  (* Structure arrives first; the constraint is not yet satisfied. *)
  let r = E.Props.handle_update p (Helpers.update "eve -posted-> spam1") in
  Alcotest.(check int) "blocked by constraint" 0 (E.Report.total_matches r);
  (* Wrong property value: still blocked. *)
  let r = E.Props.set_prop p (Label.intern "eve") "kind" "human" in
  Alcotest.(check int) "wrong value" 0 (E.Report.total_matches r);
  (* The unlocking assertion fires the retained structural match. *)
  let r = E.Props.set_prop p (Label.intern "eve") "kind" "bot" in
  Alcotest.(check int) "unlocked" 1 (E.Report.total_matches r);
  (* Re-asserting must not re-fire. *)
  let r = E.Props.set_prop p (Label.intern "eve") "kind" "bot" in
  Alcotest.(check int) "no duplicate firing" 0 (E.Report.total_matches r);
  (* Property-first order: structure completes later and fires directly. *)
  ignore (E.Props.set_prop p (Label.intern "mallory") "kind" "bot");
  let r = E.Props.handle_update p (Helpers.update "mallory -posted-> spam2") in
  Alcotest.(check int) "property-first order" 1 (E.Report.total_matches r);
  Alcotest.(check int) "current matches filtered" 2
    (List.length (E.Props.current_matches p 1));
  Alcotest.(check (option string)) "get_prop" (Some "bot")
    (E.Props.get_prop p (Label.intern "eve") "kind")

let test_props_unconstrained_passthrough () =
  let p = E.Props.create (E.Engines.tric ()) in
  E.Props.add_query p (Helpers.pattern ~id:5 "?x -a-> ?y");
  let r = E.Props.handle_update p (Helpers.update "u -a-> v") in
  Alcotest.(check int) "passthrough" 1 (E.Report.total_matches r);
  Alcotest.check_raises "bad vid"
    (Invalid_argument "Props.add_query: constraint on unknown vertex id") (fun () ->
      E.Props.add_query p
        ~constraints:[ { E.Props.vid = 9; key = "k"; value = "v" } ]
        (Helpers.pattern ~id:6 "?x -b-> ?y"))

(* -- Cypher bridge ------------------------------------------------------------ *)

let test_pattern_of_cypher () =
  let module C = Tric_graphdb.Continuous in
  let pat =
    C.pattern_of_cypher ~id:7
      "MATCH (f)-[:hasMod]->(p)-[:posted]->(x {name: 'pst1'}), (c {name: 'com1'})-[:reply]->(x) RETURN f"
  in
  Alcotest.(check int) "edges" 3 (Tric_query.Pattern.num_edges pat);
  (* Run it through TRIC. *)
  let t = Tric_core.Tric.create () in
  Tric_core.Tric.add_query t pat;
  ignore (Tric_core.Tric.handle_update t (Helpers.update "f1 -hasMod-> p1"));
  ignore (Tric_core.Tric.handle_update t (Helpers.update "p1 -posted-> pst1"));
  let r, _ = Tric_core.Tric.handle_update t (Helpers.update "com1 -reply-> pst1") in
  Alcotest.(check int) "cypher-authored query matches" 1
    (List.fold_left (fun n (_, l) -> n + List.length l) 0 r);
  (* Left arrow direction. *)
  let pat2 = C.pattern_of_cypher ~id:8 "MATCH (a)<-[:likes]-(b) RETURN a" in
  let e = (Tric_query.Pattern.edges pat2).(0) in
  Alcotest.(check string) "reversed edge" "b"
    (Format.asprintf "%a" Tric_query.Term.pp (Tric_query.Pattern.term pat2 e.Tric_query.Pattern.src)
    |> fun s -> String.sub s 1 (String.length s - 1));
  Alcotest.check_raises "WHERE rejected"
    (Tric_graphdb.Cypher.Parse_error "pattern_of_cypher: WHERE clauses are not supported")
    (fun () ->
      ignore (C.pattern_of_cypher ~id:9 "MATCH (a)-[:x]->(b) WHERE a.k = 1 RETURN a"))

(* -- Dataset persistence ------------------------------------------------------ *)

let test_dataset_roundtrip () =
  let module W = Tric_workloads in
  let d =
    W.Dataset.make W.Dataset.Taxi
      { W.Dataset.edges = 500; qdb = 20; avg_len = 4; selectivity = 0.3; overlap = 0.3; seed = 13 }
  in
  let path = Filename.temp_file "tric_dataset" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      W.Dataset.save d path;
      let d' = W.Dataset.load path in
      Alcotest.(check string) "name" d.W.Dataset.name d'.W.Dataset.name;
      Alcotest.(check int) "stream length" (Stream.length d.W.Dataset.stream)
        (Stream.length d'.W.Dataset.stream);
      Alcotest.(check bool) "updates identical" true
        (List.for_all2 Update.equal
           (Stream.to_list d.W.Dataset.stream)
           (Stream.to_list d'.W.Dataset.stream));
      Alcotest.(check int) "query count" (List.length d.W.Dataset.queries)
        (List.length d'.W.Dataset.queries);
      (* Loaded queries behave identically: replay both through TRIC+. *)
      let run queries =
        let e = E.Engines.tric ~cache:true () in
        let r = E.Runner.run ~engine:e ~queries ~stream:d.W.Dataset.stream () in
        (r.E.Runner.matches, r.E.Runner.satisfied_queries)
      in
      let m, s = run d.W.Dataset.queries and m', s' = run d'.W.Dataset.queries in
      Alcotest.(check int) "same matches" m m';
      Alcotest.(check int) "same satisfied" s s')

let test_pattern_to_string_roundtrip () =
  let st = Helpers.rng 99 in
  for i = 1 to 50 do
    let p =
      Helpers.random_pattern st ~id:i ~elabels:Helpers.elabels ~vconsts:Helpers.vconsts
        ~size:(1 + Random.State.int st 4)
    in
    let text = Tric_query.Parse.pattern_to_string p in
    let p' = Tric_query.Parse.pattern ~id:i text in
    Alcotest.(check int) "same edge count" (Tric_query.Pattern.num_edges p)
      (Tric_query.Pattern.num_edges p');
    Alcotest.(check string) "stable render" text (Tric_query.Parse.pattern_to_string p')
  done

let suite =
  [
    Alcotest.test_case "window expiry" `Quick test_window_expiry;
    Alcotest.test_case "window refresh" `Quick test_window_refresh;
    Alcotest.test_case "props constraint phase" `Quick test_props_filtering;
    Alcotest.test_case "props passthrough/validation" `Quick test_props_unconstrained_passthrough;
    Alcotest.test_case "cypher bridge" `Quick test_pattern_of_cypher;
    Alcotest.test_case "dataset save/load" `Quick test_dataset_roundtrip;
    Alcotest.test_case "pattern_to_string round-trip" `Quick test_pattern_to_string_roundtrip;
  ]
