(* Mutation tests for the invariant-audit sanitizer: a clean engine must
   report zero findings, and each corruption hook — every one breaks a
   different invariant class — must be detected as exactly that class.
   This is what makes the audit layer trustworthy: a checker that cannot
   see planted corruption proves nothing when it reports clean. *)

open Tric_graph
open Tric_core
module Audit = Tric_audit.Audit
module Rel = Tric_rel.Relation

let queries () =
  [
    Helpers.pattern ~name:"chain" ~id:1 "?x -a-> ?y; ?y -b-> ?z";
    Helpers.pattern ~name:"edge" ~id:2 "?x -a-> ?y";
    Helpers.pattern ~name:"anchored" ~id:3 "v1 -a-> ?y; ?y -c-> ?z";
  ]

(* A small mixed add/remove/re-add replay touching every query. *)
let script =
  [
    "v1 -a-> v2";
    "v2 -b-> v3";
    "v2 -c-> v4";
    "v5 -a-> v2";
    "- v1 -a-> v2";
    "v1 -a-> v2";
    "v4 -a-> v5";
    "- v5 -a-> v2";
  ]

let build ?(cache = true) ?(shards = 1) () =
  let t = Tric.create ~cache ~shards () in
  List.iter (Tric.add_query t) (queries ());
  let live = Edge.Tbl.create 64 in
  List.iter
    (fun u ->
      ignore (Tric.handle_update t u);
      match u.Update.op with
      | Update.Add e -> Edge.Tbl.replace live e ()
      | Update.Remove e -> Edge.Tbl.remove live e)
    (Helpers.updates script);
  (t, Edge.Tbl.fold (fun e () acc -> e :: acc) live [])

let error_classes findings =
  List.sort_uniq String.compare
    (List.map (fun f -> f.Audit.invariant) (Audit.errors findings))

let check_classes msg expected findings =
  Alcotest.(check (list string)) msg expected (error_classes findings)

let test_clean_zero_findings () =
  List.iter
    (fun cache ->
      let t, edges = build ~cache () in
      let findings = Audit.check ~edges t in
      Alcotest.(check int)
        (Printf.sprintf "cache=%b: zero findings on clean state" cache)
        0 (List.length findings))
    [ false; true ]

let test_dropped_registration_detected () =
  let t, edges = build () in
  Alcotest.(check bool) "registration dropped" true (Tric.Corrupt.drop_registration t);
  check_classes "only registration trips" [ "registration" ] (Audit.check ~edges t)

let test_phantom_view_tuple_detected () =
  let t, edges = build () in
  Alcotest.(check bool) "tuple planted" true (Tric.Corrupt.phantom_view_tuple t);
  check_classes "only view-coherence trips" [ "view-coherence" ] (Audit.check ~edges t)

let test_desynced_engine_stats_detected () =
  let t, edges = build () in
  Tric.Corrupt.desync_stats t;
  check_classes "only stats trips" [ "stats" ] (Audit.check ~edges t)

let test_desynced_relation_counters_detected () =
  let t, edges = build () in
  (match Trie.fold_base (fun _ r acc -> match acc with Some _ -> acc | None -> Some r)
           (Tric.forest t) None
   with
  | Some r -> Rel.Corrupt.desync_counters r
  | None -> Alcotest.fail "no base view");
  check_classes "only stats trips" [ "stats" ] (Audit.check ~edges t)

let test_dropped_index_bucket_detected () =
  let t, edges = build ~cache:true () in
  (* Find any view with a live maintained index and drop one bucket. *)
  let dropped =
    Trie.fold_nodes
      (fun n acc -> acc || Rel.Corrupt.drop_index_bucket (Trie.node_view n))
      (Tric.forest t) false
  in
  let dropped =
    dropped
    || Trie.fold_base
         (fun _ r acc -> acc || Rel.Corrupt.drop_index_bucket r)
         (Tric.forest t) false
  in
  Alcotest.(check bool) "an index bucket was dropped" true dropped;
  check_classes "only index-coherence trips" [ "index-coherence" ]
    (Audit.check ~edges t)

let test_phantom_base_tuple_detected () =
  let t, edges = build () in
  (match Trie.fold_base (fun _ r acc -> match acc with Some _ -> acc | None -> Some r)
           (Tric.forest t) None
   with
  | Some r -> Rel.Corrupt.phantom_tuple r (Tric_rel.Tuple.of_edge (Helpers.edge "zz -zz-> zz"))
  | None -> Alcotest.fail "no base view");
  let classes = error_classes (Audit.check ~edges t) in
  Alcotest.(check bool)
    "base-coherence trips" true
    (List.exists (String.equal "base-coherence") classes)

let test_arena_corruption_detected () =
  (* Packed-arena mutations through a live engine.  A leaked row (live in
     the arena, absent from the relation's dedup set and counters) is
     walked by every content diff, so collateral classes may trip too —
     what matters is that arena-integrity names the root cause.  A
     dangling row id planted in a dedup slot corrupts only the slot
     table, so it must surface as exactly arena-integrity. *)
  let t, edges = build ~cache:true () in
  (match Trie.fold_base (fun _ r acc -> match acc with Some _ -> acc | None -> Some r)
           (Tric.forest t) None
   with
  | Some r -> Alcotest.(check bool) "leak applies" true (Rel.Corrupt.leak_arena_row r)
  | None -> Alcotest.fail "no base view");
  let classes = error_classes (Audit.check ~edges t) in
  Alcotest.(check bool)
    "arena-integrity trips on a leaked row" true
    (List.exists (String.equal "arena-integrity") classes);
  let t, edges = build ~cache:true () in
  let dangled =
    Trie.fold_nodes
      (fun n acc -> acc || Rel.Corrupt.dangle_bucket_row (Trie.node_view n))
      (Tric.forest t) false
  in
  Alcotest.(check bool) "a dedup slot was dangled" true dangled;
  check_classes "only arena-integrity trips" [ "arena-integrity" ]
    (Audit.check ~edges t)

let test_removed_query_warns_only () =
  let t, edges = build () in
  Alcotest.(check bool) "query removed" true (Tric.remove_query t 3);
  let findings = Audit.check ~edges t in
  Alcotest.(check bool) "no errors after remove_query" true (Audit.is_clean findings);
  (* Deregistration prunes branches that held only query 3's registrations
     (and rebuilds the dispatch masks), so no orphan structure survives to
     warn about: the audit is not merely error-free but silent. *)
  Alcotest.(check int) "no hygiene warnings after remove_query" 0 (List.length findings)

let test_sharded_clean_and_misroute_detected () =
  (* A sharded engine audits clean, and a trie re-indexed onto the wrong
     shard trips the routing-coherence invariant.  The misrouted subtree
     also shows up as collateral damage in other classes (its
     registrations and base views now live on a shard the router never
     consults), so this asserts membership, not an exact class list. *)
  let t, edges = build ~shards:2 () in
  Fun.protect
    ~finally:(fun () -> Tric.shutdown t)
    (fun () ->
      Alcotest.(check int)
        "zero findings on clean sharded state" 0
        (List.length (Audit.check ~edges t));
      Alcotest.(check bool)
        "a path was misrouted" true
        (Tric.Corrupt.misroute_path t);
      let classes = error_classes (Audit.check ~edges t) in
      Alcotest.(check bool)
        "routing-coherence trips" true
        (List.exists (String.equal "routing-coherence") classes))

let test_route_bitmap_mutations_detected () =
  (* The dispatch bitmaps are certified against the forests in both
     directions: a cleared bit (router would skip a shard that holds the
     key's nodes — lost updates) and a planted bit (router would dispatch
     to a shard without them — dead work) must each trip exactly the
     routing-coherence class.  Unlike [misroute_path], these mutations
     leave the forests themselves intact, so no collateral classes. *)
  List.iter
    (fun (name, corrupt) ->
      let t, edges = build ~shards:2 () in
      Fun.protect
        ~finally:(fun () -> Tric.shutdown t)
        (fun () ->
          Alcotest.(check bool) (name ^ " applied") true (corrupt t);
          check_classes
            (name ^ ": only routing-coherence trips")
            [ "routing-coherence" ] (Audit.check ~edges t)))
    [
      ("drop_route_bit", Tric.Corrupt.drop_route_bit);
      ("phantom_route_bit", Tric.Corrupt.phantom_route_bit);
    ]

let build_invidx () =
  let i = Tric_baselines.Invidx.create ~cache:true ~mode:Tric_baselines.Invidx.Full () in
  List.iter (Tric_baselines.Invidx.add_query i) (queries ());
  let live = Edge.Tbl.create 64 in
  List.iter
    (fun u ->
      ignore (Tric_baselines.Invidx.handle_update i u);
      match u.Update.op with
      | Update.Add e -> Edge.Tbl.replace live e ()
      | Update.Remove e -> Edge.Tbl.remove live e)
    (Helpers.updates script);
  (i, Edge.Tbl.fold (fun e () acc -> e :: acc) live [])

let test_invidx_clean_and_mutated () =
  let i, edges = build_invidx () in
  Alcotest.(check int)
    "zero findings on clean INV+" 0
    (List.length (Audit.check_invidx ~edges i));
  (match Tric_baselines.Invidx.fold_base
           (fun _ r acc -> match acc with Some _ -> acc | None -> Some r)
           i None
   with
  | Some r -> Rel.Corrupt.phantom_tuple r (Tric_rel.Tuple.of_edge (Helpers.edge "zz -zz-> zz"))
  | None -> Alcotest.fail "no base view");
  let classes =
    List.sort_uniq String.compare
      (List.map (fun f -> f.Audit.invariant) (Audit.check_invidx ~edges i))
  in
  Alcotest.(check bool)
    "base-coherence trips on INV+" true
    (List.exists (String.equal "base-coherence") classes)

let test_invidx_seen_set_divergence () =
  let i, edges = build_invidx () in
  (* A ground-truth edge the engine never saw must surface: the audit's
     edge-set comparison is what anchors everything else to reality. *)
  let edges = Helpers.edge "v9 -a-> v9" :: edges in
  let findings = Audit.check_invidx ~edges i in
  Alcotest.(check bool)
    "missing live edge detected" true
    (List.exists (fun f -> String.equal f.Audit.invariant "base-coherence") findings)

let suite =
  [
    Alcotest.test_case "clean state reports zero findings" `Quick test_clean_zero_findings;
    Alcotest.test_case "dropped registration detected" `Quick test_dropped_registration_detected;
    Alcotest.test_case "phantom view tuple detected" `Quick test_phantom_view_tuple_detected;
    Alcotest.test_case "desynced engine stats detected" `Quick test_desynced_engine_stats_detected;
    Alcotest.test_case "desynced relation counters detected" `Quick test_desynced_relation_counters_detected;
    Alcotest.test_case "dropped index bucket detected" `Quick test_dropped_index_bucket_detected;
    Alcotest.test_case "phantom base tuple detected" `Quick test_phantom_base_tuple_detected;
    Alcotest.test_case "arena corruption detected" `Quick test_arena_corruption_detected;
    Alcotest.test_case "removed query leaves warnings only" `Quick test_removed_query_warns_only;
    Alcotest.test_case "sharded clean; misrouted path detected" `Quick
      test_sharded_clean_and_misroute_detected;
    Alcotest.test_case "dispatch-bitmap mutations detected" `Quick
      test_route_bitmap_mutations_detected;
    Alcotest.test_case "INV+ clean and mutated" `Quick test_invidx_clean_and_mutated;
    Alcotest.test_case "INV+ seen-set divergence detected" `Quick test_invidx_seen_set_divergence;
  ]
