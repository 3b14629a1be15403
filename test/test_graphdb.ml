(* Embedded graph database tests: store operations, Cypher parsing,
   planning, execution, transactions, and differential testing of the
   continuous wrapper against the naive oracle. *)

open Tric_graphdb
module Engine = Tric_engine

let test_store_basics () =
  let s = Store.create () in
  let a = Store.create_node s ~labels:[ "V" ] ~props:[ ("name", Value.String "a") ] () in
  let b = Store.create_node s ~labels:[ "V" ] ~props:[ ("name", Value.String "b") ] () in
  let r = Store.create_rel s ~rtype:"knows" a b in
  Alcotest.(check int) "two nodes" 2 (Store.num_nodes s);
  Alcotest.(check int) "one rel" 1 (Store.num_rels s);
  Alcotest.(check bool) "has_rel" true (Store.has_rel s ~rtype:"knows" a b);
  Alcotest.(check bool) "no reverse rel" false (Store.has_rel s ~rtype:"knows" b a);
  Alcotest.(check int) "rels of type" 1 (Store.count_rels_of_type s "knows");
  Alcotest.(check bool) "delete" true (Store.delete_rel s r);
  Alcotest.(check int) "rel gone" 0 (Store.num_rels s);
  Alcotest.(check int) "type count decremented" 0 (Store.count_rels_of_type s "knows")

let test_store_index () =
  let s = Store.create () in
  Store.create_index s ~label:"V" ~property:"name";
  let a = Store.create_node s ~labels:[ "V" ] ~props:[ ("name", Value.String "a") ] () in
  let hits = Store.index_lookup s ~label:"V" ~property:"name" (Value.String "a") in
  Alcotest.(check (list int)) "index hit" [ a ] hits;
  (* Index maintained on set_prop. *)
  Store.set_prop s a "name" (Value.String "z");
  Alcotest.(check (list int)) "old key empty" []
    (Store.index_lookup s ~label:"V" ~property:"name" (Value.String "a"));
  Alcotest.(check (list int)) "new key hit" [ a ]
    (Store.index_lookup s ~label:"V" ~property:"name" (Value.String "z"));
  (* Backfill: index created after nodes exist. *)
  let s2 = Store.create () in
  let b = Store.create_node s2 ~labels:[ "W" ] ~props:[ ("k", Value.Int 7) ] () in
  Store.create_index s2 ~label:"W" ~property:"k";
  Alcotest.(check (list int)) "backfilled" [ b ]
    (Store.index_lookup s2 ~label:"W" ~property:"k" (Value.Int 7))

let test_cypher_parse () =
  let q =
    Cypher.parse
      "MATCH (f:V)-[:hasMod]->(p:V), (p)-[:posted]->(x:V {name: 'pst1'}) WHERE f.age = 42 RETURN f, p, x.name"
  in
  Alcotest.(check int) "two chains" 2 (List.length q.Cypher.chains);
  Alcotest.(check int) "one condition" 1 (List.length q.Cypher.conditions);
  Alcotest.(check int) "three returns" 3 (List.length q.Cypher.returns);
  (* Left arrows. *)
  let q = Cypher.parse "MATCH (a:V)<-[:likes]-(b:V) RETURN a, b" in
  (match q.Cypher.chains with
  | [ (_, [ (rel, _) ]) ] ->
    Alcotest.(check bool) "in direction" true (rel.Cypher.direction = Cypher.In)
  | _ -> Alcotest.fail "unexpected chain shape");
  (* Errors. *)
  Alcotest.check_raises "missing RETURN"
    (Cypher.Parse_error "expected RETURN")
    (fun () -> ignore (Cypher.parse "MATCH (a:V)"));
  (match Cypher.parse "MATCH (a {name: 'x'}) RETURN a" with
  | { Cypher.chains = [ ({ nprops = [ ("name", Value.String "x") ]; _ }, []) ]; _ } -> ()
  | _ -> Alcotest.fail "prop map parse")

let test_query_end_to_end () =
  let db = Db.create () in
  List.iter
    (fun (l, s, d) -> ignore (Db.add_stream_edge db (Tric_graph.Edge.of_strings l s d)))
    [
      ("hasMod", "f1", "p1");
      ("hasMod", "f2", "p1");
      ("posted", "p1", "pst1");
      ("posted", "p2", "pst1");
    ];
  let rows =
    Db.query db "MATCH (f:V)-[:hasMod]->(p:V)-[:posted]->(x:V {name: 'pst1'}) RETURN f.name"
  in
  let names =
    List.map
      (function
        | [ Executor.Prop_value (Value.String s) ] -> s
        | _ -> Alcotest.fail "unexpected row shape")
      rows
    |> List.sort compare
  in
  Alcotest.(check (list string)) "moderators found" [ "f1"; "f2" ] names;
  (* Plan cache. *)
  let misses0 = Db.plan_cache_misses db in
  ignore (Db.query db "MATCH (f:V)-[:hasMod]->(p:V)-[:posted]->(x:V {name: 'pst1'}) RETURN f.name");
  Alcotest.(check int) "plan cached" misses0 (Db.plan_cache_misses db)

let test_planner_seed_choice () =
  let db = Db.create () in
  ignore (Db.add_stream_edge db (Tric_graph.Edge.of_strings "a" "x" "y"));
  let plan = Db.plan_of db "MATCH (n:V {name: 'x'})-[:a]->(m:V) RETURN n, m" in
  (match plan.Plan.steps with
  | Plan.Seed_index { label = "V"; key = "name"; _ } :: _ -> ()
  | _ -> Alcotest.failf "expected index seed, got %a" Plan.pp plan);
  (* Unconstrained pattern seeds on the relationship scan or a node seed,
     but must still produce correct results (checked elsewhere). *)
  let plan2 = Db.plan_of db "MATCH (n:V)-[:a]->(m:V) RETURN n, m" in
  Alcotest.(check bool) "has steps" true (plan2.Plan.steps <> [])

let test_txn_batching () =
  let db = Db.create ~max_writes_per_txn:10 () in
  let txn = Db.txn_begin db in
  let refs =
    List.init 20 (fun i ->
        Db.txn_create_node txn ~labels:[ "V" ]
          ~props:[ ("name", Value.String (Printf.sprintf "n%d" i)) ]
          ())
  in
  (match refs with
  | first :: second :: _ -> Db.txn_create_rel txn ~rtype:"t" first second
  | _ -> assert false);
  let created = Db.txn_commit txn in
  Alcotest.(check int) "20 nodes created" 20 (List.length created);
  Alcotest.(check int) "21 writes in 3 chunks of <=10" 3 (Db.commits db);
  Alcotest.(check int) "nodes in store" 20 (Store.num_nodes (Db.store db));
  Alcotest.(check int) "rel in store" 1 (Store.num_rels (Db.store db));
  Alcotest.check_raises "double commit"
    (Invalid_argument "Db.txn_commit: already committed")
    (fun () -> ignore (Db.txn_commit txn))

let test_varlength_paths () =
  let db = Db.create () in
  (* Chain n0 -> n1 -> n2 -> n3 plus a shortcut n0 -> n2. *)
  List.iter
    (fun (s, d) -> ignore (Db.add_stream_edge db (Tric_graph.Edge.of_strings "knows" s d)))
    [ ("n0", "n1"); ("n1", "n2"); ("n2", "n3"); ("n0", "n2") ];
  let names rows =
    List.map
      (function
        | [ Executor.Prop_value (Value.String s) ] -> s
        | _ -> Alcotest.fail "unexpected row shape")
      rows
    |> List.sort compare
  in
  let q range =
    names
      (Db.query db
         (Printf.sprintf
            "MATCH (a:V {name: 'n0'})-[:knows%s]->(b:V) RETURN b.name" range))
  in
  Alcotest.(check (list string)) "exactly 2 hops" [ "n2"; "n3" ] (q "*2..2");
  Alcotest.(check (list string)) "1..2 hops" [ "n1"; "n2"; "n3" ] (q "*1..2");
  Alcotest.(check (list string)) "unbounded" [ "n1"; "n2"; "n3" ] (q "*");
  Alcotest.(check (list string)) "0..1 includes self" [ "n0"; "n1"; "n2" ] (q "*0..1");
  (* Single-hop shorthand *1 equals a plain relationship. *)
  Alcotest.(check (list string)) "*1 = plain" (q "") (q "*1");
  (* Reverse direction. *)
  let back =
    names
      (Db.query db "MATCH (a:V {name: 'n3'})<-[:knows*1..3]-(b:V) RETURN b.name")
  in
  Alcotest.(check (list string)) "reverse range" [ "n0"; "n1"; "n2" ] back;
  (* Parse errors. *)
  Alcotest.check_raises "bad range" (Cypher.Parse_error "invalid hop range *3..1")
    (fun () -> ignore (Cypher.parse "MATCH (a)-[:x*3..1]->(b) RETURN a"))

let test_where_conditions () =
  let db = Db.create () in
  let s = Db.store db in
  let mk name age =
    Store.create_node s ~labels:[ "P" ]
      ~props:[ ("name", Value.String name); ("age", Value.Int age) ]
      ()
  in
  let alice = mk "alice" 42 and bob = mk "bob" 17 and carol = mk "carol" 42 in
  ignore (Store.create_rel s ~rtype:"knows" alice bob);
  ignore (Store.create_rel s ~rtype:"knows" alice carol);
  let names q =
    Db.query db q
    |> List.map (function
         | [ Executor.Prop_value (Value.String n) ] -> n
         | _ -> Alcotest.fail "row shape")
    |> List.sort compare
  in
  Alcotest.(check (list string)) "prop = literal" [ "carol" ]
    (names "MATCH (a:P)-[:knows]->(b:P) WHERE b.age = 42 RETURN b.name");
  Alcotest.(check (list string)) "prop <> literal" [ "bob" ]
    (names "MATCH (a:P)-[:knows]->(b:P) WHERE b.age <> 42 RETURN b.name");
  Alcotest.(check (list string)) "prop = prop" [ "carol" ]
    (names "MATCH (a:P)-[:knows]->(b:P) WHERE a.age = b.age RETURN b.name");
  Alcotest.(check (list string)) "conjunction" []
    (names
       "MATCH (a:P)-[:knows]->(b:P) WHERE a.age = b.age AND b.age <> 42 RETURN b.name");
  (* Missing property never satisfies a condition. *)
  let dave = Store.create_node s ~labels:[ "P" ] ~props:[ ("name", Value.String "dave") ] () in
  ignore (Store.create_rel s ~rtype:"knows" alice dave);
  Alcotest.(check (list string)) "missing prop filtered" [ "carol" ]
    (names "MATCH (a:P)-[:knows]->(b:P) WHERE b.age = 42 RETURN b.name")

let test_value_semantics () =
  Alcotest.(check bool) "int eq" true (Value.equal (Value.Int 3) (Value.Int 3));
  Alcotest.(check bool) "cross-type neq" false (Value.equal (Value.Int 3) (Value.Float 3.0));
  Alcotest.(check bool) "null eq null" true (Value.equal Value.Null Value.Null);
  Alcotest.(check string) "to_string" "\"x\"" (Value.to_string (Value.String "x"));
  Alcotest.(check string) "bool" "true" (Value.to_string (Value.Bool true))

let test_continuous_basics () =
  let c = Continuous.create () in
  let e = Engine.Matcher.of_graphdb c in
  e.Engine.Matcher.add_query (Helpers.pattern ~id:1 "?x -a-> ?y -b-> ?z");
  let r = e.Engine.Matcher.handle_update (Helpers.update "v1 -a-> v2") in
  Alcotest.(check int) "nothing yet" 0 (Engine.Report.total_matches r);
  let r = e.Engine.Matcher.handle_update (Helpers.update "v2 -b-> v3") in
  Alcotest.(check int) "chain completes" 1 (Engine.Report.total_matches r);
  Alcotest.(check string) "cypher text"
    "MATCH (v0:V)-[:a]->(v1:V), (v1)-[:b]->(v2:V) RETURN v0, v1, v2"
    (Continuous.cypher_of c 1)

let suite =
  [
    Alcotest.test_case "store basics" `Quick test_store_basics;
    Alcotest.test_case "store property index" `Quick test_store_index;
    Alcotest.test_case "cypher parsing" `Quick test_cypher_parse;
    Alcotest.test_case "query end-to-end" `Quick test_query_end_to_end;
    Alcotest.test_case "planner seed choice" `Quick test_planner_seed_choice;
    Alcotest.test_case "transaction batching" `Quick test_txn_batching;
    Alcotest.test_case "variable-length paths" `Quick test_varlength_paths;
    Alcotest.test_case "WHERE conditions" `Quick test_where_conditions;
    Alcotest.test_case "value semantics" `Quick test_value_semantics;
    Alcotest.test_case "continuous wrapper basics" `Quick test_continuous_basics;
    Alcotest.test_case "continuous differential vs oracle" `Quick
      (Test_properties.check_seeded ~seed:42 ~queries:6 ~updates:80 [ "GraphDB" ]);
    Alcotest.test_case "continuous differential vs oracle II" `Quick
      (Test_properties.check_seeded ~seed:99 ~queries:6 ~updates:80 [ "GraphDB" ]);
  ]
