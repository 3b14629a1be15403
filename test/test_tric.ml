(* TRIC / TRIC+ engine tests: the paper's running examples, hand-built
   scenarios, deletions, and randomized differential testing against the
   naive oracle. *)

open Tric_query
open Tric_core
module Engine = Tric_engine

let fig4_queries () =
  (* The four query graph patterns of the paper's Fig. 4. *)
  [
    Helpers.pattern ~name:"Q1" ~id:1
      "?f1 -hasMod-> ?p1 -posted-> pst1; ?p1 -posted-> pst2; ?com1 -reply-> pst2";
    Helpers.pattern ~name:"Q2" ~id:2 "?f1 -hasMod-> ?p1";
    Helpers.pattern ~name:"Q3" ~id:3
      "com1 -hasCreator-> ?p1 -posted-> pst1 -containedIn-> ?c";
    Helpers.pattern ~name:"Q4" ~id:4 "?f1 -hasMod-> ?p1 -posted-> pst1 -containedIn-> ?c";
  ]

let test_fig4_covering_paths () =
  let t = Tric.create () in
  List.iter (Tric.add_query t) (fig4_queries ());
  let path_strings qid =
    List.map
      (fun p -> Format.asprintf "%a" (Path.pp (List.nth (fig4_queries ()) (qid - 1))) p)
      (Tric.covering_paths t qid)
  in
  Alcotest.(check (list string))
    "Q1 covering paths"
    [
      "{?f1 -hasMod-> ?p1 -posted-> pst1}";
      "{?f1 -hasMod-> ?p1 -posted-> pst2}";
      "{?com1 -reply-> pst2}";
    ]
    (path_strings 1);
  Alcotest.(check (list string)) "Q2 covering paths" [ "{?f1 -hasMod-> ?p1}" ] (path_strings 2);
  Alcotest.(check (list string))
    "Q3 covering paths"
    [ "{com1 -hasCreator-> ?p1 -posted-> pst1 -containedIn-> ?c}" ]
    (path_strings 3);
  Alcotest.(check (list string))
    "Q4 covering paths"
    [ "{?f1 -hasMod-> ?p1 -posted-> pst1 -containedIn-> ?c}" ]
    (path_strings 4)

let test_fig6_trie_sharing () =
  (* Fig. 6: P1,P2 of Q1, P1 of Q2 and P1 of Q4 share the trie rooted at
     hasMod=(?var,?var); there are 3 tries in total (hasMod, reply,
     hasCreator roots). *)
  let t = Tric.create () in
  List.iter (Tric.add_query t) (fig4_queries ());
  let f = Tric.forest t in
  Alcotest.(check int) "three tries" 3 (Trie.num_tries f);
  (* Shared nodes: hasMod root is one node used by Q1/Q2/Q4. *)
  let root_keys =
    List.map (fun n -> Format.asprintf "%a" Ekey.pp (Trie.node_key n)) (Trie.roots f)
    |> List.sort compare
  in
  Alcotest.(check (list string))
    "root keys"
    [
      "hasCreator=(com1,?var)"; "hasMod=(?var,?var)"; "reply=(?var,pst2)";
    ]
    root_keys;
  (* Node count: hasMod trie = root + posted-pst1 + posted-pst2 +
     containedIn = 4; reply trie = 1; hasCreator trie = 3 (hasCreator,
     posted-pst1, containedIn). *)
  Alcotest.(check int) "node count" 8 (Trie.num_nodes f)

let run_updates engine updates =
  List.map (fun u -> engine.Engine.Matcher.handle_update u) updates

let test_fig9_answering () =
  (* The update scenario of Examples 4.6/4.7: views primed with hasMod
     edges, then posted=(p2,pst1) arrives. *)
  let t = Tric.create () in
  List.iter (Tric.add_query t) (fig4_queries ());
  let e = Engine.Matcher.of_tric t in
  let priming =
    Helpers.updates [ "f1 -hasMod-> p1"; "f2 -hasMod-> p1"; "f2 -hasMod-> p2" ]
  in
  let reports = run_updates e priming in
  (* Each hasMod update satisfies Q2 (single-edge query). *)
  List.iter
    (fun r ->
      Alcotest.(check (list int)) "hasMod satisfies Q2 only" [ 2 ]
        (Engine.Report.satisfied_ids r))
    reports;
  (* posted=(p2,pst1): extends the hasMod chain but Q1/Q3/Q4 need more. *)
  let r = e.Engine.Matcher.handle_update (Helpers.update "p2 -posted-> pst1") in
  Alcotest.(check (list int)) "no query satisfied yet" [] (Engine.Report.satisfied_ids r);
  (* Complete Q1 for moderator f2 (who moderates both p1 and p2):
     posted=(p1,pst2) gives f2 chains to pst1 (via p2) and pst2 (via p1),
     and reply completes it. *)
  let r = e.Engine.Matcher.handle_update (Helpers.update "p1 -posted-> pst2") in
  Alcotest.(check (list int)) "still nothing" [] (Engine.Report.satisfied_ids r);
  let r = e.Engine.Matcher.handle_update (Helpers.update "com9 -reply-> pst2") in
  Alcotest.(check (list int))
    "reply alone not enough (no p posted both pst1 and pst2)" []
    (Engine.Report.satisfied_ids r);
  (* p1-posted->pst1 makes p1 the poster of both pst1 and pst2; its
     moderators f1 and f2 each complete Q1 (with ?com1 = com9). *)
  let r = e.Engine.Matcher.handle_update (Helpers.update "p1 -posted-> pst1") in
  Alcotest.(check (list int)) "Q1 satisfied" [ 1 ] (Engine.Report.satisfied_ids r);
  Alcotest.(check int) "two embeddings (f1 and f2)" 2 (Engine.Report.total_matches r)

let test_duplicate_update_no_new_matches () =
  let t = Tric.create () in
  Tric.add_query t (Helpers.pattern ~id:7 "?x -a-> ?y");
  let e = Engine.Matcher.of_tric t in
  let r1 = e.Engine.Matcher.handle_update (Helpers.update "v1 -a-> v2") in
  Alcotest.(check int) "first time matches" 1 (Engine.Report.total_matches r1);
  let r2 = e.Engine.Matcher.handle_update (Helpers.update "v1 -a-> v2") in
  Alcotest.(check int) "duplicate is silent" 0 (Engine.Report.total_matches r2)

let test_cycle_query () =
  let t = Tric.create () in
  Tric.add_query t (Helpers.pattern ~id:9 "?x -a-> ?y; ?y -a-> ?z; ?z -a-> ?x");
  let e = Engine.Matcher.of_tric t in
  let r = run_updates e (Helpers.updates [ "v1 -a-> v2"; "v2 -a-> v3" ]) in
  List.iter
    (fun r -> Alcotest.(check int) "no match yet" 0 (Engine.Report.total_matches r))
    r;
  let r = e.Engine.Matcher.handle_update (Helpers.update "v3 -a-> v1") in
  (* The closing edge creates 3 rotations?  No: variables are distinct per
     binding; rotations bind different (x,y,z) triples, so 3 embeddings. *)
  Alcotest.(check int) "cycle closes with 3 rotations" 3 (Engine.Report.total_matches r);
  (* A self-loop matches the cycle homomorphically (x=y=z). *)
  let r = e.Engine.Matcher.handle_update (Helpers.update "v9 -a-> v9") in
  Alcotest.(check int) "self-loop homomorphism" 1 (Engine.Report.total_matches r)

let test_deletion () =
  let t = Tric.create () in
  Tric.add_query t (Helpers.pattern ~id:11 "?x -a-> ?y -b-> ?z");
  let e = Engine.Matcher.of_tric t in
  ignore (run_updates e (Helpers.updates [ "v1 -a-> v2"; "v2 -b-> v3" ]));
  Alcotest.(check int) "match present" 1 (List.length (e.Engine.Matcher.current_matches 11));
  ignore (e.Engine.Matcher.handle_update (Helpers.update "- v1 -a-> v2"));
  Alcotest.(check int) "match retracted" 0 (List.length (e.Engine.Matcher.current_matches 11));
  (* Re-adding restores it and is reported as new. *)
  let r = e.Engine.Matcher.handle_update (Helpers.update "v1 -a-> v2") in
  Alcotest.(check int) "re-add re-matches" 1 (Engine.Report.total_matches r)

let test_noop_removal_keeps_caches () =
  (* Removing an absent edge must not invalidate any query's embedding
     cache (the old code bumped a global epoch on every Remove). *)
  let t = Tric.create () in
  Tric.add_query t (Helpers.pattern ~id:1 "?x -a-> ?y -b-> ?z");
  Tric.add_query t (Helpers.pattern ~id:2 "?x -c-> ?y");
  let e = Engine.Matcher.of_tric t in
  ignore (run_updates e (Helpers.updates [ "v1 -a-> v2"; "v2 -b-> v3"; "v1 -c-> v2" ]));
  ignore (e.Engine.Matcher.handle_update (Helpers.update "- v8 -a-> v9"));
  ignore (e.Engine.Matcher.handle_update (Helpers.update "- v1 -zz-> v2"));
  let s = Tric.stats t in
  Alcotest.(check int) "removals counted" 2 s.Tric.removals;
  Alcotest.(check int) "both were no-ops" 2 s.Tric.noop_removals;
  Alcotest.(check int) "nothing evicted" 0 s.Tric.tuples_removed;
  Alcotest.(check int) "no cache invalidated (2 queries x 2 removals)" 4
    s.Tric.invalidations_avoided;
  Alcotest.(check int) "matches intact" 1 (List.length (e.Engine.Matcher.current_matches 1))

let test_removal_per_query_isolation () =
  (* A removal affecting only Q1's views must leave Q2's cache untouched
     and must find its doomed tuples via indexed lookups. *)
  let t = Tric.create () in
  Tric.add_query t (Helpers.pattern ~id:1 "?x -a-> ?y -b-> ?z");
  Tric.add_query t (Helpers.pattern ~id:2 "?x -c-> ?y");
  let e = Engine.Matcher.of_tric t in
  ignore
    (run_updates e
       (Helpers.updates [ "v1 -a-> v2"; "v2 -b-> v3"; "v2 -b-> v4"; "v1 -c-> v2" ]));
  Alcotest.(check int) "Q1 has two matches" 2 (List.length (e.Engine.Matcher.current_matches 1));
  ignore (e.Engine.Matcher.handle_update (Helpers.update "- v1 -a-> v2"));
  let s = Tric.stats t in
  Alcotest.(check bool) "tuples evicted" true (s.Tric.tuples_removed > 0);
  Alcotest.(check int) "Q2's cache survived" 1 s.Tric.invalidations_avoided;
  Alcotest.(check bool) "indexed lookups served the removal" true (s.Tric.delta_probes > 0);
  Alcotest.(check int) "Q1 retracted" 0 (List.length (e.Engine.Matcher.current_matches 1));
  Alcotest.(check int) "Q2 intact" 1 (List.length (e.Engine.Matcher.current_matches 2));
  (* Partial re-add: only the removed edge returns; both chains reappear. *)
  let r = e.Engine.Matcher.handle_update (Helpers.update "v1 -a-> v2") in
  Alcotest.(check int) "re-add restores both chains" 2 (Engine.Report.total_matches r)

let test_reregistration_idempotent () =
  (* Re-adding a query id after removal re-walks the same trie path; the
     registration must not duplicate, or every delta would double-count and
     deletion deltas would desynchronise the cache. *)
  let t = Tric.create () in
  let q () = Helpers.pattern ~id:5 "?x -a-> ?y -b-> ?z" in
  Tric.add_query t (q ());
  Alcotest.(check bool) "removed" true (Tric.remove_query t 5);
  Tric.add_query t (q ());
  let regs =
    Tric_core.Trie.fold_nodes
      (fun n acc -> acc @ Tric_core.Trie.registrations n)
      (Tric.forest t) []
  in
  Alcotest.(check int) "single registration per path" 1 (List.length regs);
  let e = Engine.Matcher.of_tric t in
  let r = run_updates e (Helpers.updates [ "v1 -a-> v2"; "v2 -b-> v3" ]) in
  Alcotest.(check int) "reported once" 1 (Engine.Report.total_matches (List.nth r 1));
  ignore (e.Engine.Matcher.handle_update (Helpers.update "- v2 -b-> v3"));
  Alcotest.(check int) "clean retraction" 0 (List.length (e.Engine.Matcher.current_matches 5));
  (* Stale registrations must not survive id reuse with another pattern. *)
  Alcotest.(check bool) "removed again" true (Tric.remove_query t 5);
  Tric.add_query t (Helpers.pattern ~id:5 "?x -c-> ?y");
  let r = e.Engine.Matcher.handle_update (Helpers.update "v7 -c-> v8") in
  Alcotest.(check int) "new pattern matches" 1 (Engine.Report.total_matches r);
  let r = e.Engine.Matcher.handle_update (Helpers.update "v1 -a-> v2") in
  Alcotest.(check int) "old pattern's edges report nothing" 0 (Engine.Report.total_matches r)

let test_batch_cancellation () =
  (* An add/remove pair of the same edge inside one window folds to
     nothing: no state, no report, no base-view residue. *)
  let t = Tric.create () in
  Tric.add_query t (Helpers.pattern ~id:1 "?x -a-> ?y");
  let e = Tric_graph.Edge.of_strings "a" "u" "v" in
  let matches, retractions =
    Tric.handle_batch t [ Tric_graph.Update.add e; Tric_graph.Update.remove e ]
  in
  Alcotest.(check int) "no report" 0 (List.length matches);
  Alcotest.(check int) "no retractions" 0 (List.length retractions);
  Alcotest.(check int) "no state" 0 (List.length (Tric.current_matches t 1));
  Alcotest.(check int) "no view tuples" 0 (Tric.stats t).Tric.view_tuples;
  (* The add folds away against the later remove; the surviving net
     removal is a no-op because the edge was never live. *)
  Alcotest.(check int) "add folded" 1 (Tric.stats t).Tric.batch_cancelled;
  Alcotest.(check int) "net removal was a no-op" 1 (Tric.stats t).Tric.noop_removals

let test_batch_dedup_and_readd () =
  (* Duplicates collapse; add-remove-add nets to a single addition and
     fires the query. *)
  let t = Tric.create ~cache:true () in
  Tric.add_query t (Helpers.pattern ~id:1 "?x -a-> ?y -b-> ?z");
  let ea = Tric_graph.Edge.of_strings "a" "u" "v" in
  let eb = Tric_graph.Edge.of_strings "b" "v" "w" in
  let r =
    Tric.handle_batch t
      [
        Tric_graph.Update.add ea;
        Tric_graph.Update.add ea;
        Tric_graph.Update.remove ea;
        Tric_graph.Update.add ea;
        Tric_graph.Update.add eb;
      ]
  in
  let r = Engine.Report.of_pair r in
  Alcotest.(check (list int)) "query fires once" [ 1 ] (Engine.Report.satisfied_ids r);
  Alcotest.(check int) "one embedding" 1 (List.length (Engine.Report.matches_of r 1));
  Alcotest.(check int) "state matches" 1 (List.length (Tric.current_matches t 1));
  Alcotest.(check int) "three folded away" 3 (Tric.stats t).Tric.batch_cancelled

let test_batch_net_removal () =
  (* A window whose net effect on a live edge is removal destroys the
     match that edge supported. *)
  let t = Tric.create () in
  Tric.add_query t (Helpers.pattern ~id:1 "?x -a-> ?y -b-> ?z");
  ignore (Tric.handle_batch t (Helpers.updates [ "u -a-> v"; "v -b-> w" ]));
  Alcotest.(check int) "match present" 1 (List.length (Tric.current_matches t 1));
  let r =
    Tric.handle_batch t
      [
        Tric_graph.Update.remove (Tric_graph.Edge.of_strings "b" "v" "w");
        Tric_graph.Update.add (Tric_graph.Edge.of_strings "b" "v" "w2");
      ]
  in
  let matches, retractions = r in
  Alcotest.(check (list int)) "new completion reported" [ 1 ] (List.map fst matches);
  Alcotest.(check (list int)) "destroyed match retracted" [ 1 ] (List.map fst retractions);
  Alcotest.(check int) "old match gone, new present" 1
    (List.length (Tric.current_matches t 1))

(* -- The retraction path, on TRIC and TRIC+ at 1 and 2 shards ---------------

   Retractions join the dead deltas against the pre-update views, rebuilt
   from the live views: plus the dead rows, less the rows the batch
   added.  Each case pins one way that rebuild could go wrong. *)

let on_each_engine f =
  List.iter
    (fun (cache, shards) ->
      let t = Tric.create ~cache ~shards () in
      Fun.protect
        ~finally:(fun () -> Tric.shutdown t)
        (fun () -> f (Printf.sprintf "%s@%d" (Tric.name t) shards) t))
    [ (false, 1); (false, 2); (true, 1); (true, 2) ]

let sorted embs = List.sort Tric_rel.Embedding.compare embs

let check_embs what expected got =
  Alcotest.(check bool) what true
    (List.equal Tric_rel.Embedding.equal (sorted expected) (sorted got))

let retracted qid (_, retractions) =
  Option.value ~default:[] (List.assoc_opt qid retractions)

let two_sources = "?x -a-> ?y; ?z -b-> ?y"

let test_batch_no_phantom_retraction () =
  (* dead(u-a->v) joins new(w-b->v) into a match that was never live: it
     must not be retracted; only the live match through w0 is. *)
  on_each_engine (fun name t ->
      Tric.add_query t (Helpers.pattern ~id:1 two_sources);
      ignore (Tric.handle_batch t (Helpers.updates [ "u -a-> v"; "w0 -b-> v" ]));
      let live = Tric.current_matches t 1 in
      Alcotest.(check int) (name ^ ": one live match") 1 (List.length live);
      let r = Tric.handle_batch t (Helpers.updates [ "- u -a-> v"; "w -b-> v" ]) in
      Alcotest.(check (list int)) (name ^ ": no new match") [] (List.map fst (fst r));
      check_embs (name ^ ": only the live match retracted") live (retracted 1 r);
      Alcotest.(check int) (name ^ ": nothing left") 0
        (List.length (Tric.current_matches t 1)))

let test_batch_retracts_once () =
  (* Both edges of one match die in one batch: each path's dead delta
     finds the match, and it is retracted exactly once. *)
  on_each_engine (fun name t ->
      Tric.add_query t (Helpers.pattern ~id:1 two_sources);
      ignore (Tric.handle_batch t (Helpers.updates [ "u -a-> v"; "w0 -b-> v"; "w1 -b-> v" ]));
      let live = Tric.current_matches t 1 in
      Alcotest.(check int) (name ^ ": two live matches") 2 (List.length live);
      let r = Tric.handle_batch t (Helpers.updates [ "- u -a-> v"; "- w0 -b-> v" ]) in
      Alcotest.(check int) (name ^ ": one retraction list") 1 (List.length (snd r));
      check_embs (name ^ ": each match retracted once") live (retracted 1 r))

let test_shared_terminal_retractions () =
  (* Both covering paths of [?x -a-> ?y; ?x -a-> ?z] end at the same
     terminal node, so each path's view is the other's too. *)
  let q = "?x -a-> ?y; ?x -a-> ?z" in
  on_each_engine (fun name t ->
      Tric.add_query t (Helpers.pattern ~id:1 q);
      (match Tric.query_views t with
      | [ (_, qv) ] ->
        Alcotest.(check int) (name ^ ": two paths") 2 (Array.length qv.Tric.qv_terminals);
        Alcotest.(check int) (name ^ ": one terminal")
          (Trie.node_id qv.Tric.qv_terminals.(0))
          (Trie.node_id qv.Tric.qv_terminals.(1))
      | _ -> Alcotest.fail "one query expected");
      let count r = List.length (Option.value ~default:[] (List.assoc_opt 1 r)) in
      let m, _ = Tric.handle_update t (Helpers.update "u -a-> v") in
      Alcotest.(check int) (name ^ ": v,v") 1 (count m);
      let m, _ = Tric.handle_update t (Helpers.update "u -a-> w") in
      Alcotest.(check int) (name ^ ": w,w v,w w,v") 3 (count m);
      let live = Tric.current_matches t 1 in
      let _, r = Tric.handle_update t (Helpers.update "- u -a-> w") in
      Alcotest.(check int) (name ^ ": three retracted") 3 (count r);
      let left = Tric.current_matches t 1 in
      Alcotest.(check int) (name ^ ": v,v left") 1 (List.length left);
      check_embs (name ^ ": retracted = live - left")
        (List.filter (fun e -> not (List.exists (Tric_rel.Embedding.equal e) left)) live)
        (Option.value ~default:[] (List.assoc_opt 1 r));
      (* Batch: swap u-a->v for u-a->w; the mixed matches of the two
         edges never coexisted, so neither is retracted nor reported. *)
      let m, r = Tric.handle_batch t (Helpers.updates [ "- u -a-> v"; "u -a-> w" ]) in
      check_embs (name ^ ": v,v retracted") left (Option.value ~default:[] (List.assoc_opt 1 r));
      Alcotest.(check int) (name ^ ": w,w reported") 1 (count m);
      Alcotest.(check int) (name ^ ": w,w live") 1 (List.length (Tric.current_matches t 1)));
  (* The same shape per update against the oracle. *)
  Test_properties.(
    run
      ~engines:[ engine "TRIC"; engine ~shards:2 "TRIC"; engine "TRIC+"; engine ~shards:2 "TRIC+" ]
      ~window:Unbounded ~drain:true ~batch:1 [ Helpers.pattern ~id:1 q ]
      (Helpers.updates [ "u -a-> v"; "u -a-> w"; "- u -a-> w"; "u -a-> w"; "- u -a-> v" ]))

let test_sharded_matches_sequential () =
  (* Replaying the fig4 scenario (adds then a deletion) on sharded
     engines must reproduce the sequential engine's reports and final
     state, update for update. *)
  let stream =
    Helpers.updates
      [
        "f1 -hasMod-> p1"; "f2 -hasMod-> p2"; "p1 -posted-> pst1";
        "p2 -posted-> pst1"; "p1 -posted-> pst2"; "c1 -reply-> pst2";
        "pst1 -containedIn-> c"; "com1 -hasCreator-> p1";
      ]
    @ [ Tric_graph.Update.remove (Tric_graph.Edge.of_strings "hasMod" "f1" "p1") ]
  in
  let seq = Tric.create () in
  List.iter (Tric.add_query seq) (fig4_queries ());
  let expected =
    List.map (fun u -> Engine.Report.of_pair (Tric.handle_update seq u)) stream
  in
  List.iter
    (fun shards ->
      let t = Tric.create ~shards () in
      Fun.protect
        ~finally:(fun () -> Tric.shutdown t)
        (fun () ->
          List.iter (Tric.add_query t) (fig4_queries ());
          Alcotest.(check int) "num_shards" shards (Tric.num_shards t);
          Alcotest.(check int) "stats report shard count" shards (Tric.stats t).Tric.shards;
          List.iteri
            (fun i u ->
              let got = Engine.Report.of_pair (Tric.handle_update t u) in
              Alcotest.(check bool)
                (Printf.sprintf "shards=%d update %d report" shards i)
                true
                (Engine.Report.equal (List.nth expected i) got))
            stream;
          List.iter
            (fun qid ->
              Alcotest.(check int)
                (Printf.sprintf "shards=%d q%d live matches" shards qid)
                (List.length (Tric.current_matches seq qid))
                (List.length (Tric.current_matches t qid)))
            [ 1; 2; 3; 4 ]))
    [ 2; 4 ]

let test_targeted_dispatch_isolation () =
  (* Owner-targeted dispatch: an op whose edge only matches keys owned by
     shard k must enqueue work on shard k alone — the per-shard op
     counters in [Tric.stats] prove no other shard saw the op.  Sixteen
     all-variable single-edge queries over distinct labels give each
     update exactly one registered generalisation, [(l,?,?)]; with four
     shards some shard owns several queries, and a broadcast dispatcher
     would score 4 dispatched ops per routed op. *)
  let shards = 4 in
  let labels = List.init 16 (Printf.sprintf "fan%d") in
  let queries =
    List.mapi
      (fun i l -> Helpers.pattern ~id:(i + 1) (Printf.sprintf "?x -%s-> ?y" l))
      labels
  in
  let t = Tric.create ~shards () in
  Fun.protect
    ~finally:(fun () -> Tric.shutdown t)
    (fun () ->
      List.iter (Tric.add_query t) queries;
      List.iteri
        (fun i q ->
          let qid = i + 1 in
          (* The shard owning this query's sole covering path, derived the
             same way registration derives it: the router's verdict on the
             path's key word. *)
          let owner =
            match Tric.covering_paths t qid with
            | [ p ] -> Route.place ~shards (Path.keys q p)
            | ps -> Alcotest.failf "q%d: expected 1 covering path, got %d" qid (List.length ps)
          in
          let before = (Tric.stats t).Tric.shard_ops in
          let e =
            Helpers.update
              (Printf.sprintf "s%d -%s-> t%d" qid (List.nth labels i) qid)
          in
          ignore (Tric.handle_update t e);
          let after = (Tric.stats t).Tric.shard_ops in
          Array.iteri
            (fun s b ->
              let expected = if s = owner then b + 1 else b in
              Alcotest.(check int)
                (Printf.sprintf "q%d update: shard %d op count" qid s)
                expected after.(s))
            before)
        queries;
      (* Sixteen updates, each routed to exactly one shard: mean fanout 1. *)
      let s = Tric.stats t in
      Alcotest.(check int) "ops routed" 16 s.Tric.ops_routed;
      Alcotest.(check int) "ops dispatched = ops routed (fanout 1)" 16 s.Tric.ops_dispatched)

let test_dispatch_fanout_after_churn () =
  (* Query churn must not leave stale routing: after the last query
     registered under a key is removed, the dispatch masks for that key
     are cleared, so a matching update enqueues work on NO shard — the
     monotone-mask bug would keep broadcasting to the dead owner forever.
     Re-registering a query under the same label must restore routing and
     matching. *)
  let shards = 4 in
  let labels = [ "la"; "lb"; "lc"; "ld" ] in
  let queries =
    List.mapi
      (fun i l -> Helpers.pattern ~id:(i + 1) (Printf.sprintf "?x -%s-> ?y" l))
      labels
  in
  let t = Tric.create ~shards () in
  Fun.protect
    ~finally:(fun () -> Tric.shutdown t)
    (fun () ->
      List.iter (Tric.add_query t) queries;
      (* Warm every route once so the counters have a non-zero baseline. *)
      List.iteri
        (fun i l ->
          ignore (Tric.handle_update t (Helpers.update (Printf.sprintf "w%d -%s-> x%d" i l i))))
        labels;
      (* Churn: q2 was the only query keyed on lb. *)
      Alcotest.(check bool) "remove q2" true (Tric.remove_query t 2);
      let before = (Tric.stats t).Tric.shard_ops in
      let dispatched_before = (Tric.stats t).Tric.ops_dispatched in
      ignore (Tric.handle_update t (Helpers.update "u -lb-> v"));
      let after = (Tric.stats t).Tric.shard_ops in
      Array.iteri
        (fun s b ->
          Alcotest.(check int)
            (Printf.sprintf "post-churn lb update: shard %d untouched" s)
            b after.(s))
        before;
      Alcotest.(check int) "post-churn lb update: fanout 0" dispatched_before
        (Tric.stats t).Tric.ops_dispatched;
      (* Other labels still route to exactly one shard each. *)
      let before = (Tric.stats t).Tric.shard_ops in
      ignore (Tric.handle_update t (Helpers.update "u -la-> v"));
      let after = (Tric.stats t).Tric.shard_ops in
      Alcotest.(check int) "la still routes to one shard" 1
        (Array.fold_left ( + ) 0 after - Array.fold_left ( + ) 0 before);
      (* Re-registering under lb rebuilds the mask: routing and matching
         come back. *)
      let q5 = Helpers.pattern ~id:5 "?x -lb-> ?y" in
      Tric.add_query t q5;
      let before = (Tric.stats t).Tric.shard_ops in
      let matches, _ = Tric.handle_update t (Helpers.update "r -lb-> s") in
      let after = (Tric.stats t).Tric.shard_ops in
      Alcotest.(check int) "re-registered lb routes to one shard" 1
        (Array.fold_left ( + ) 0 after - Array.fold_left ( + ) 0 before);
      Alcotest.(check (list int)) "re-registered lb matches" [ 5 ]
        (List.map fst matches);
      (* The pre-churn lb edge was applied while no lb query existed, so it
         must not have leaked into q5's state. *)
      Alcotest.(check int) "q5 sees only post-registration edges" 1
        (List.length (Tric.current_matches t 5)))

let test_route_place_rejects_empty_word () =
  (* An empty key word has no first key to route on; [place] must reject
     it instead of silently picking a shard (a query registered that way
     would be unreachable by dispatch). *)
  match Route.place ~shards:4 [] with
  | _ -> Alcotest.fail "place must reject an empty key word"
  | exception Invalid_argument _ -> ()

let test_sharded_forest_access () =
  (* [forest] is the single-forest accessor; on a sharded engine callers
     must go through [forests].  Trie ids stay globally unique across
     shard forests so audit evidence can name nodes unambiguously. *)
  let t = Tric.create ~shards:3 () in
  Fun.protect
    ~finally:(fun () -> Tric.shutdown t)
    (fun () ->
      List.iter (Tric.add_query t) (fig4_queries ());
      (match Tric.forest t with
      | _ -> Alcotest.fail "forest must raise on a sharded engine"
      | exception Invalid_argument _ -> ());
      let forests = Tric.forests t in
      Alcotest.(check int) "one forest per shard" 3 (Array.length forests);
      let nids =
        Array.to_list forests
        |> List.concat_map (fun f ->
               Trie.fold_nodes (fun n acc -> Trie.node_id n :: acc) f [])
      in
      Alcotest.(check int)
        "node ids unique across shard forests"
        (List.length nids)
        (List.length (List.sort_uniq Int.compare nids));
      (* All fig6 tries exist somewhere, split across the shards. *)
      Alcotest.(check int)
        "three tries in total" 3
        (Array.fold_left (fun acc f -> acc + Trie.num_tries f) 0 forests);
      Alcotest.(check int) "busy time per shard" 3 (Array.length (Tric.busy_times t));
      (* Shutdown is idempotent. *)
      Tric.shutdown t)

(* Allocation budget: minor words allocated per update on a fixed
   per-update SNB replay (1000 edges, qdb 50, seed 7) through TRIC+ at one
   shard.  The packed row store measures about 1547 here; a boxed-tuple
   regression on the hot path trips this before it shows in throughput.
   The dataset is generated by a fresh tric_cli process: the generator's
   output depends on the labels this process has already interned, so an
   in-suite [Dataset.make] would replay a different stream depending on
   which tests ran first. *)
let alloc_budget_words = 2010.

let test_allocation_budget () =
  let module W = Tric_workloads in
  let file = Filename.temp_file "tric_alloc" ".bin" in
  let d =
    Fun.protect
      ~finally:(fun () -> Sys.remove file)
      (fun () ->
        ignore
          (Helpers.run_cli
             [ "generate"; "snb"; "-o"; file; "--edges"; "1000"; "--qdb"; "50"; "--seed"; "7" ]);
        W.Dataset.load file)
  in
  let engine = Engine.Engines.tric ~cache:true ~shards:1 () in
  List.iter engine.Engine.Matcher.add_query d.W.Dataset.queries;
  let stream = d.W.Dataset.stream in
  let n = Tric_graph.Stream.length stream in
  let m0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    ignore (engine.Engine.Matcher.handle_update (Tric_graph.Stream.get stream i))
  done;
  let per_update = (Gc.minor_words () -. m0) /. float_of_int n in
  engine.Engine.Matcher.shutdown ();
  if per_update > alloc_budget_words then
    Alcotest.failf "TRIC+ allocates %.0f minor words per update; the budget is %.0f"
      per_update alloc_budget_words

let suite =
  [
    Alcotest.test_case "fig4 covering paths" `Quick test_fig4_covering_paths;
    Alcotest.test_case "fig6 trie sharing" `Quick test_fig6_trie_sharing;
    Alcotest.test_case "fig9 answering walkthrough" `Quick test_fig9_answering;
    Alcotest.test_case "duplicate update" `Quick test_duplicate_update_no_new_matches;
    Alcotest.test_case "cycle query" `Quick test_cycle_query;
    Alcotest.test_case "deletion" `Quick test_deletion;
    Alcotest.test_case "no-op removal keeps caches" `Quick test_noop_removal_keeps_caches;
    Alcotest.test_case "removal per-query isolation" `Quick test_removal_per_query_isolation;
    Alcotest.test_case "idempotent re-registration" `Quick test_reregistration_idempotent;
    Alcotest.test_case "sharded = sequential on fig4 stream" `Quick
      test_sharded_matches_sequential;
    Alcotest.test_case "sharded forest access and node ids" `Quick
      test_sharded_forest_access;
    Alcotest.test_case "targeted dispatch touches owner shard only" `Quick
      test_targeted_dispatch_isolation;
    Alcotest.test_case "dispatch fanout after query churn" `Quick
      test_dispatch_fanout_after_churn;
    Alcotest.test_case "empty key word is unroutable" `Quick
      test_route_place_rejects_empty_word;
    Alcotest.test_case "batch cancellation" `Quick test_batch_cancellation;
    Alcotest.test_case "batch dedup and re-add" `Quick test_batch_dedup_and_readd;
    Alcotest.test_case "batch net removal" `Quick test_batch_net_removal;
    Alcotest.test_case "batch retraction has no phantom" `Quick
      test_batch_no_phantom_retraction;
    Alcotest.test_case "batch retracts a match once" `Quick test_batch_retracts_once;
    Alcotest.test_case "shared-terminal paths retract" `Quick test_shared_terminal_retractions;
    Alcotest.test_case "mixed stream differential (TRIC)" `Quick
      (Test_properties.check_seeded ~churn:40 ~seed:77 ~queries:6 ~updates:160 [ "TRIC" ]);
    Alcotest.test_case "mixed stream differential (TRIC+)" `Quick
      (Test_properties.check_seeded ~churn:40 ~seed:78 ~queries:6 ~updates:160 [ "TRIC+" ]);
    Alcotest.test_case "differential vs oracle (TRIC)" `Quick
      (Test_properties.check_seeded ~seed:42 ~queries:8 ~updates:120 [ "TRIC" ]);
    Alcotest.test_case "differential vs oracle (TRIC) II" `Quick
      (Test_properties.check_seeded ~seed:1337 ~queries:8 ~updates:120 [ "TRIC" ]);
    Alcotest.test_case "differential vs oracle (TRIC+)" `Quick
      (Test_properties.check_seeded ~seed:42 ~queries:8 ~updates:120 [ "TRIC+" ]);
    Alcotest.test_case "differential vs oracle (TRIC+) II" `Quick
      (Test_properties.check_seeded ~seed:2024 ~queries:8 ~updates:120 [ "TRIC+" ]);
    Alcotest.test_case "allocation budget per update (TRIC+)" `Quick test_allocation_budget;
  ]
