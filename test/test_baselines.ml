(* INV / INV+ / INC / INC+ baseline tests: hand-built scenarios plus
   randomized differential testing against the naive oracle (which also
   implies agreement with TRIC, tested in test_tric.ml). *)

open Tric_baselines
module Engine = Tric_engine

let engine ~mode ~cache () = Engine.Matcher.of_invidx (Invidx.create ~cache ~mode ())

let all_variants =
  [
    ("INV", fun () -> engine ~mode:Invidx.Full ~cache:false ());
    ("INV+", fun () -> engine ~mode:Invidx.Full ~cache:true ());
    ("INC", fun () -> engine ~mode:Invidx.Seeded ~cache:false ());
    ("INC+", fun () -> engine ~mode:Invidx.Seeded ~cache:true ());
  ]

let test_names () =
  List.iter
    (fun (expected, mk) ->
      Alcotest.(check string) "engine name" expected (mk ()).Engine.Matcher.name)
    all_variants

let test_simple_chain mk () =
  let e = mk () in
  e.Engine.Matcher.add_query (Helpers.pattern ~id:1 "?x -a-> ?y -b-> ?z");
  let r = e.Engine.Matcher.handle_update (Helpers.update "v1 -a-> v2") in
  Alcotest.(check int) "half chain: nothing" 0 (Engine.Report.total_matches r);
  let r = e.Engine.Matcher.handle_update (Helpers.update "v2 -b-> v3") in
  Alcotest.(check int) "chain closes" 1 (Engine.Report.total_matches r);
  (* Second 'a' edge into same hinge: one more match through the existing b
     edge. *)
  let r = e.Engine.Matcher.handle_update (Helpers.update "v9 -a-> v2") in
  Alcotest.(check int) "new prefix re-matches" 1 (Engine.Report.total_matches r)

let test_duplicate mk () =
  let e = mk () in
  e.Engine.Matcher.add_query (Helpers.pattern ~id:1 "?x -a-> ?y");
  ignore (e.Engine.Matcher.handle_update (Helpers.update "v1 -a-> v2"));
  let r = e.Engine.Matcher.handle_update (Helpers.update "v1 -a-> v2") in
  Alcotest.(check int) "duplicate silent" 0 (Engine.Report.total_matches r)

let test_multi_path_query mk () =
  (* Star query: two paths out of a shared center variable. *)
  let e = mk () in
  e.Engine.Matcher.add_query (Helpers.pattern ~id:1 "?c -a-> ?x; ?c -b-> ?y");
  ignore (e.Engine.Matcher.handle_update (Helpers.update "v1 -a-> v2"));
  let r = e.Engine.Matcher.handle_update (Helpers.update "v1 -b-> v3") in
  Alcotest.(check int) "star completes" 1 (Engine.Report.total_matches r);
  (* b edge from a different center: no match (centers must coincide). *)
  let r = e.Engine.Matcher.handle_update (Helpers.update "v7 -b-> v3") in
  Alcotest.(check int) "disjoint center" 0 (Engine.Report.total_matches r)

let test_fig11_indexes () =
  (* Fig. 11: sourceInd/targetInd index the constant endpoints of query
     edges, mapping each vertex to the keys it anchors. *)
  let inv = Invidx.create ~mode:Invidx.Full () in
  Invidx.add_query inv (Helpers.pattern ~id:1 "com1 -hasCreator-> ?p -posted-> pst1");
  Invidx.add_query inv (Helpers.pattern ~id:2 "?f -hasMod-> ?p -posted-> pst1");
  let s = Invidx.stats inv in
  Alcotest.(check int) "one constant source (com1)" 1 s.Invidx.source_index_keys;
  Alcotest.(check int) "one constant target (pst1)" 1 s.Invidx.target_index_keys;
  let com1 = Tric_graph.Label.intern "com1" and pst1 = Tric_graph.Label.intern "pst1" in
  (match Invidx.keys_with_source inv com1 with
  | [ k ] ->
    Alcotest.(check string) "key label" "hasCreator"
      (Tric_graph.Label.to_string k.Tric_query.Ekey.label)
  | l -> Alcotest.failf "expected 1 key for com1, got %d" (List.length l));
  (* posted=(?var,pst1) is shared by both queries: indexed once. *)
  Alcotest.(check int) "shared key indexed once" 1
    (List.length (Invidx.keys_with_target inv pst1));
  Alcotest.(check int) "nothing for unknown vertex" 0
    (List.length (Invidx.keys_with_source inv (Tric_graph.Label.intern "nobody")))

let suite =
  Alcotest.test_case "engine names" `Quick test_names
  :: Alcotest.test_case "fig11 source/target indexes" `Quick test_fig11_indexes
  :: List.concat_map
       (fun (name, mk) ->
         [
           Alcotest.test_case (name ^ " simple chain") `Quick (test_simple_chain mk);
           Alcotest.test_case (name ^ " duplicate update") `Quick (test_duplicate mk);
           Alcotest.test_case (name ^ " multi-path star") `Quick (test_multi_path_query mk);
           Alcotest.test_case (name ^ " differential vs oracle") `Quick
             (Test_properties.check_seeded ~seed:42 ~queries:8 ~updates:100 [ name ]);
           Alcotest.test_case (name ^ " differential vs oracle II") `Quick
             (Test_properties.check_seeded ~seed:777 ~queries:8 ~updates:100 [ name ]);
         ])
       all_variants
