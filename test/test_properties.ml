(* Property-based tests (qcheck, registered as alcotest cases).

   Invariants covered:
   - covering-path extraction always covers every vertex and edge, for
     both strategies, on arbitrary connected patterns;
   - all engines agree with the naive oracle on arbitrary streams
     (the end-to-end correctness property);
   - micro-batched ingestion is equivalent to sequential replay on
     random add/remove windows, including intra-batch cancellation;
   - relations behave as deduplicated sets under random insert/remove,
     with cached indexes staying consistent with rebuilt ones;
   - embedding merge is commutative and conflict-symmetric;
   - trie insertion shares prefixes: inserting the same path twice never
     creates nodes, and node count equals the number of distinct prefixes
     of all inserted words. *)

open Tric_graph
open Tric_query
open Tric_rel

let elabels = [ "a"; "b"; "c" ]
let vconsts = [ "v1"; "v2"; "v3"; "v4" ]

(* Generator of random connected patterns: a random spine plus extra
   edges attached to existing vertices. *)
let gen_pattern_spec =
  QCheck2.Gen.(
    let term =
      oneof
        [
          map (fun i -> `Var i) (int_bound 4);
          map (fun i -> `Const i) (int_bound (List.length vconsts - 1));
        ]
    in
    let edge = triple (int_bound (List.length elabels - 1)) term term in
    list_size (int_range 1 6) edge)

let build_pattern ~id spec =
  let b = Pattern.Builder.create ~id () in
  (* Chain the edges through shared terms to keep the pattern connected:
     edge i's source is edge (i-1)'s target unless the spec's own source
     term is a constant (which anchors naturally). *)
  let prev = ref None in
  List.iter
    (fun (li, s, d) ->
      let term_of = function
        | `Var i -> Term.var (Printf.sprintf "x%d" i)
        | `Const i -> Term.const (List.nth vconsts i)
      in
      let src =
        match !prev with
        | Some p when (match s with `Var _ -> true | `Const _ -> false) -> p
        | _ -> term_of s
      in
      let dst = term_of d in
      let sv = Pattern.Builder.vertex b src and dv = Pattern.Builder.vertex b dst in
      Pattern.Builder.edge b ~label:(Label.intern (List.nth elabels li)) sv dv;
      prev := Some dst)
    spec;
  Pattern.Builder.build b

let valid_spec spec =
  (* The builder rejects edge-free patterns; duplicates collapsing to an
     isolated vertex can't happen by construction. *)
  spec <> []

let prop_cover_covers strategy =
  QCheck2.Test.make ~count:300
    ~name:
      (Printf.sprintf "cover(%s) covers all vertices and edges"
         (match strategy with Cover.Upstream -> "upstream" | Cover.Naive -> "naive"))
    gen_pattern_spec
    (fun spec ->
      QCheck2.assume (valid_spec spec);
      match build_pattern ~id:1 spec with
      | exception Invalid_argument _ -> QCheck2.assume_fail ()
      | q ->
        if not (Pattern.is_connected q) then QCheck2.assume_fail ()
        else Cover.covers q (Cover.extract ~strategy q))

let gen_stream_spec =
  QCheck2.Gen.(
    list_size (int_range 1 60)
      (triple (int_bound (List.length elabels - 1))
         (int_bound (List.length vconsts - 1))
         (int_bound (List.length vconsts - 1))))

let edges_of_spec spec =
  List.map
    (fun (li, si, di) ->
      Edge.of_strings (List.nth elabels li) (List.nth vconsts si) (List.nth vconsts di))
    spec

let print_case (qspecs, sspec) =
  let term = function `Var i -> Printf.sprintf "?x%d" i | `Const i -> List.nth vconsts i in
  let spec_to_string spec =
    String.concat "; "
      (List.map (fun (li, s, d) -> Printf.sprintf "%s -%s-> %s" (term s) (List.nth elabels li) (term d)) spec)
  in
  Printf.sprintf "queries=[%s] stream=[%s]"
    (String.concat " | " (List.map spec_to_string qspecs))
    (String.concat "; "
       (List.map
          (fun (li, si, di) ->
            Printf.sprintf "%s -%s-> %s" (List.nth vconsts si) (List.nth elabels li)
              (List.nth vconsts di))
          sspec))

let prop_engine_agrees name mk =
  QCheck2.Test.make ~count:40 ~print:print_case
    ~name:(Printf.sprintf "%s agrees with oracle on random streams" name)
    QCheck2.Gen.(pair (list_size (int_range 1 4) gen_pattern_spec) gen_stream_spec)
    (fun (qspecs, sspec) ->
      QCheck2.assume (List.for_all valid_spec qspecs);
      let queries =
        List.filteri (fun _ _ -> true) qspecs
        |> List.mapi (fun i spec ->
               match build_pattern ~id:(i + 1) spec with
               | q when Pattern.is_connected q -> Some q
               | _ -> None
               | exception Invalid_argument _ -> None)
        |> List.filter_map Fun.id
      in
      QCheck2.assume (queries <> []);
      let engine = mk () in
      let oracle = Tric_engine.Engines.naive () in
      List.iter
        (fun q ->
          engine.Tric_engine.Matcher.add_query q;
          oracle.Tric_engine.Matcher.add_query q)
        queries;
      List.for_all
        (fun e ->
          let u = Update.add e in
          Tric_engine.Report.equal
            (oracle.Tric_engine.Matcher.handle_update u)
            (engine.Tric_engine.Matcher.handle_update u))
        (edges_of_spec sspec))

let print_mixed_case (qspecs, sspec) =
  let term = function `Var i -> Printf.sprintf "?x%d" i | `Const i -> List.nth vconsts i in
  let spec_to_string spec =
    String.concat "; "
      (List.map (fun (li, s, d) -> Printf.sprintf "%s -%s-> %s" (term s) (List.nth elabels li) (term d)) spec)
  in
  Printf.sprintf "queries=[%s] stream=[%s]"
    (String.concat " | " (List.map spec_to_string qspecs))
    (String.concat "; "
       (List.map
          (fun (add, li, si, di) ->
            Printf.sprintf "%s%s -%s-> %s" (if add then "+" else "-") (List.nth vconsts si)
              (List.nth elabels li) (List.nth vconsts di))
          sspec))

(* The stream generator draws add/remove ops over a 4-constant, 3-label
   vocabulary, so removals of live edges, no-op removals of absent edges,
   and re-adds of previously removed edges all occur constantly.  After
   EVERY update, TRIC and TRIC+ must match the naive oracle's report and
   full current result, and must agree with each other on the materialized
   view cardinalities (their tries are identical, so any divergence is a
   maintenance bug in one cache mode). *)
let prop_engines_agree_under_deletions =
  QCheck2.Test.make ~count:30 ~print:print_mixed_case
    ~name:"TRIC/TRIC+ = oracle under interleaved add/remove/re-add"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 3) gen_pattern_spec)
        (list_size (int_range 1 60)
           (quad bool (int_bound (List.length elabels - 1))
              (int_bound (List.length vconsts - 1))
              (int_bound (List.length vconsts - 1)))))
    (fun (qspecs, sspec) ->
      QCheck2.assume (List.for_all valid_spec qspecs);
      let queries =
        List.mapi
          (fun i spec ->
            match build_pattern ~id:(i + 1) spec with
            | q when Pattern.is_connected q -> Some q
            | _ -> None
            | exception Invalid_argument _ -> None)
          qspecs
        |> List.filter_map Fun.id
      in
      QCheck2.assume (queries <> []);
      let oracle = Tric_engine.Naive.create () in
      let tric = Tric_core.Tric.create () in
      let tricp = Tric_core.Tric.create ~cache:true () in
      List.iter
        (fun q ->
          Tric_engine.Naive.add_query oracle q;
          Tric_core.Tric.add_query tric q;
          Tric_core.Tric.add_query tricp q)
        queries;
      let matches_agree qid =
        let sorted m = List.sort_uniq Embedding.compare m in
        let exp = sorted (Tric_engine.Naive.current_matches oracle qid) in
        let a = sorted (Tric_core.Tric.current_matches tric qid) in
        let b = sorted (Tric_core.Tric.current_matches tricp qid) in
        List.length exp = List.length a
        && List.for_all2 Embedding.equal exp a
        && List.length exp = List.length b
        && List.for_all2 Embedding.equal exp b
      in
      (* Audit postcondition: after every update both cache modes must be
         certifiably coherent against the ground-truth edge set — the
         sanitizer closes over internal state the black-box report
         comparison cannot see (indexes, caches, accounting). *)
      let live = Edge.Tbl.create 64 in
      let audit_clean t =
        let edges = Edge.Tbl.fold (fun e () acc -> e :: acc) live [] in
        Tric_audit.Audit.is_clean (Tric_audit.Audit.check ~edges t)
      in
      List.for_all
        (fun u ->
          let expected = Tric_engine.Naive.handle_update oracle u in
          let r1 = Tric_engine.Report.of_pair (Tric_core.Tric.handle_update tric u) in
          let r2 = Tric_engine.Report.of_pair (Tric_core.Tric.handle_update tricp u) in
          (match u.Update.op with
          | Update.Add e -> Edge.Tbl.replace live e ()
          | Update.Remove e -> Edge.Tbl.remove live e);
          Tric_engine.Report.equal expected r1
          && Tric_engine.Report.equal expected r2
          && (Tric_core.Tric.stats tric).Tric_core.Tric.view_tuples
             = (Tric_core.Tric.stats tricp).Tric_core.Tric.view_tuples
          && audit_clean tric && audit_clean tricp
          && List.for_all (fun q -> matches_agree (Pattern.id q)) queries)
        (List.map
           (fun (add, li, si, di) ->
             let e =
               Edge.of_strings (List.nth elabels li) (List.nth vconsts si)
                 (List.nth vconsts di)
             in
             if add then Update.add e else Update.remove e)
           sspec))

let print_batch_case ((qspecs, sspec), window) =
  Printf.sprintf "window=%d %s" window (print_mixed_case (qspecs, sspec))

(* Batched ingestion must be a pure optimisation: chopping a random
   add/remove stream into windows and feeding each through [handle_batch]
   must leave TRIC, TRIC+ and the naive oracle with exactly the matches a
   sequential [handle_update] replay produces.  The 48-edge vocabulary
   with windows up to 10 constantly produces intra-batch duplicates and
   add+remove of the same edge, which is where net-op folding could go
   wrong.  TRIC and TRIC+ batch reports must also agree with each other
   (same trie, different cache modes). *)
let prop_batch_equals_sequential =
  QCheck2.Test.make ~count:30 ~print:print_batch_case
    ~name:"handle_batch = sequential handle_update (TRIC, TRIC+, oracle)"
    QCheck2.Gen.(
      pair
        (pair
           (list_size (int_range 1 3) gen_pattern_spec)
           (list_size (int_range 1 60)
              (quad bool (int_bound (List.length elabels - 1))
                 (int_bound (List.length vconsts - 1))
                 (int_bound (List.length vconsts - 1)))))
        (int_range 1 10))
    (fun ((qspecs, sspec), window) ->
      QCheck2.assume (List.for_all valid_spec qspecs);
      let queries =
        List.mapi
          (fun i spec ->
            match build_pattern ~id:(i + 1) spec with
            | q when Pattern.is_connected q -> Some q
            | _ -> None
            | exception Invalid_argument _ -> None)
          qspecs
        |> List.filter_map Fun.id
      in
      QCheck2.assume (queries <> []);
      let seq = Tric_core.Tric.create () in
      let tric = Tric_core.Tric.create () in
      let tricp = Tric_core.Tric.create ~cache:true () in
      let oracle = Tric_engine.Engines.naive () in
      List.iter
        (fun q ->
          Tric_core.Tric.add_query seq q;
          Tric_core.Tric.add_query tric q;
          Tric_core.Tric.add_query tricp q;
          oracle.Tric_engine.Matcher.add_query q)
        queries;
      let updates =
        List.map
          (fun (add, li, si, di) ->
            let e =
              Edge.of_strings (List.nth elabels li) (List.nth vconsts si)
                (List.nth vconsts di)
            in
            if add then Update.add e else Update.remove e)
          sspec
      in
      let rec windows = function
        | [] -> []
        | us ->
          let n = min window (List.length us) in
          List.filteri (fun i _ -> i < n) us
          :: windows (List.filteri (fun i _ -> i >= n) us)
      in
      let matches_agree qid =
        let sorted m = List.sort_uniq Embedding.compare m in
        let exp = sorted (Tric_core.Tric.current_matches seq qid) in
        let agree got =
          List.length exp = List.length got && List.for_all2 Embedding.equal exp got
        in
        agree (sorted (Tric_core.Tric.current_matches tric qid))
        && agree (sorted (Tric_core.Tric.current_matches tricp qid))
        && agree (sorted (oracle.Tric_engine.Matcher.current_matches qid))
      in
      (* Audit postcondition: after every window, batched maintenance (with
         its net-op folding and amortised sweeps) must leave both cache
         modes audit-clean against the live edge set. *)
      let live = Edge.Tbl.create 64 in
      let audit_clean t =
        let edges = Edge.Tbl.fold (fun e () acc -> e :: acc) live [] in
        Tric_audit.Audit.is_clean (Tric_audit.Audit.check ~edges t)
      in
      List.for_all
        (fun w ->
          List.iter (fun u -> ignore (Tric_core.Tric.handle_update seq u)) w;
          let r1 = Tric_engine.Report.of_pair (Tric_core.Tric.handle_batch tric w) in
          let r2 = Tric_engine.Report.of_pair (Tric_core.Tric.handle_batch tricp w) in
          ignore (oracle.Tric_engine.Matcher.handle_batch w);
          List.iter
            (fun u ->
              match u.Update.op with
              | Update.Add e -> Edge.Tbl.replace live e ()
              | Update.Remove e -> Edge.Tbl.remove live e)
            w;
          Tric_engine.Report.equal r1 r2
          && audit_clean tric && audit_clean tricp
          && List.for_all (fun q -> matches_agree (Pattern.id q)) queries)
        (windows updates))

(* Targeted dispatch must be invisible: for any shard count, the
   domain-parallel engine — which routes each op only to the shards named
   by the per-key dispatch bitmaps, not to all of them — must produce
   exactly the sequential engine's report after every update of a random
   mixed add/remove stream, keep identical current matches, and stay
   audit-clean (which includes the routing-coherence class: trie
   placement AND the bitmaps equalling the forests' per-key shard sets in
   both directions, so a routing bug that skips an affected shard cannot
   hide).  Both cache modes run sharded: TRIC at 1/2/4 domains, TRIC+ at
   2 and 4.  Engines are shut down per iteration — OCaml caps live
   domains, and shrinking replays the property many times. *)
let prop_sharded_equals_sequential =
  QCheck2.Test.make ~count:25 ~print:print_mixed_case
    ~name:"sharded (1/2/4 domains) = sequential TRIC/TRIC+ per update"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 3) gen_pattern_spec)
        (list_size (int_range 1 60)
           (quad bool (int_bound (List.length elabels - 1))
              (int_bound (List.length vconsts - 1))
              (int_bound (List.length vconsts - 1)))))
    (fun (qspecs, sspec) ->
      QCheck2.assume (List.for_all valid_spec qspecs);
      let queries =
        List.mapi
          (fun i spec ->
            match build_pattern ~id:(i + 1) spec with
            | q when Pattern.is_connected q -> Some q
            | _ -> None
            | exception Invalid_argument _ -> None)
          qspecs
        |> List.filter_map Fun.id
      in
      QCheck2.assume (queries <> []);
      let seq = Tric_core.Tric.create () in
      let seqp = Tric_core.Tric.create ~cache:true () in
      let sharded =
        [
          (Tric_core.Tric.create ~shards:1 (), seq);
          (Tric_core.Tric.create ~shards:2 (), seq);
          (Tric_core.Tric.create ~shards:4 (), seq);
          (Tric_core.Tric.create ~cache:true ~shards:2 (), seqp);
          (Tric_core.Tric.create ~cache:true ~shards:4 (), seqp);
        ]
      in
      Fun.protect
        ~finally:(fun () -> List.iter (fun (t, _) -> Tric_core.Tric.shutdown t) sharded)
        (fun () ->
          List.iter
            (fun q ->
              Tric_core.Tric.add_query seq q;
              Tric_core.Tric.add_query seqp q;
              List.iter (fun (t, _) -> Tric_core.Tric.add_query t q) sharded)
            queries;
          let live = Edge.Tbl.create 64 in
          let audit_clean t =
            let edges = Edge.Tbl.fold (fun e () acc -> e :: acc) live [] in
            Tric_audit.Audit.is_clean (Tric_audit.Audit.check ~edges t)
          in
          let matches_agree qid =
            let sorted m = List.sort_uniq Embedding.compare m in
            List.for_all
              (fun (t, reference) ->
                let exp = sorted (Tric_core.Tric.current_matches reference qid) in
                let got = sorted (Tric_core.Tric.current_matches t qid) in
                List.length exp = List.length got && List.for_all2 Embedding.equal exp got)
              sharded
          in
          List.for_all
            (fun u ->
              let expected = Tric_engine.Report.of_pair (Tric_core.Tric.handle_update seq u) in
              let expected_p =
                Tric_engine.Report.of_pair (Tric_core.Tric.handle_update seqp u)
              in
              let reports =
                List.map
                  (fun (t, _) ->
                    Tric_engine.Report.of_pair (Tric_core.Tric.handle_update t u))
                  sharded
              in
              (match u.Update.op with
              | Update.Add e -> Edge.Tbl.replace live e ()
              | Update.Remove e -> Edge.Tbl.remove live e);
              List.for_all2
                (fun (t, reference) r ->
                  let exp = if reference == seq then expected else expected_p in
                  Tric_engine.Report.equal exp r && audit_clean t)
                sharded reports
              && List.for_all (fun q -> matches_agree (Pattern.id q)) queries)
            (List.map
               (fun (add, li, si, di) ->
                 let e =
                   Edge.of_strings (List.nth elabels li) (List.nth vconsts si)
                     (List.nth vconsts di)
                 in
                 if add then Update.add e else Update.remove e)
               sspec)))

(* The batched entry point, sharded: windows of a random mixed stream
   through [handle_batch] — which folds the window to net ops, routes
   each through the dispatch bitmaps into per-shard op queues, and runs
   one combined removals+additions task per affected shard — must equal
   the sequential engine's batched replay report-for-report at 1, 2, 4
   and 8 shards (and on a cached 4-shard engine), stay audit-clean after
   every window, and agree on final matches.  The 8-shard row exceeds the
   label alphabet of the generated streams, so some shards stay empty —
   exactly the skewed-ownership regime targeted routing must survive. *)
let prop_sharded_batch_equals_sequential =
  QCheck2.Test.make ~count:25 ~print:print_batch_case
    ~name:"sharded handle_batch = sequential handle_batch (1/2/4/8 domains)"
    QCheck2.Gen.(
      pair
        (pair
           (list_size (int_range 1 3) gen_pattern_spec)
           (list_size (int_range 1 60)
              (quad bool (int_bound (List.length elabels - 1))
                 (int_bound (List.length vconsts - 1))
                 (int_bound (List.length vconsts - 1)))))
        (int_range 1 10))
    (fun ((qspecs, sspec), window) ->
      QCheck2.assume (List.for_all valid_spec qspecs);
      let queries =
        List.mapi
          (fun i spec ->
            match build_pattern ~id:(i + 1) spec with
            | q when Pattern.is_connected q -> Some q
            | _ -> None
            | exception Invalid_argument _ -> None)
          qspecs
        |> List.filter_map Fun.id
      in
      QCheck2.assume (queries <> []);
      let seq = Tric_core.Tric.create () in
      let sharded =
        [
          Tric_core.Tric.create ~shards:1 ();
          Tric_core.Tric.create ~shards:2 ();
          Tric_core.Tric.create ~shards:4 ();
          Tric_core.Tric.create ~shards:8 ();
          Tric_core.Tric.create ~cache:true ~shards:4 ();
        ]
      in
      Fun.protect
        ~finally:(fun () -> List.iter Tric_core.Tric.shutdown sharded)
        (fun () ->
          List.iter
            (fun q ->
              Tric_core.Tric.add_query seq q;
              List.iter (fun t -> Tric_core.Tric.add_query t q) sharded)
            queries;
          let updates =
            List.map
              (fun (add, li, si, di) ->
                let e =
                  Edge.of_strings (List.nth elabels li) (List.nth vconsts si)
                    (List.nth vconsts di)
                in
                if add then Update.add e else Update.remove e)
              sspec
          in
          let rec windows = function
            | [] -> []
            | us ->
              let n = min window (List.length us) in
              List.filteri (fun i _ -> i < n) us
              :: windows (List.filteri (fun i _ -> i >= n) us)
          in
          let live = Edge.Tbl.create 64 in
          let audit_clean t =
            let edges = Edge.Tbl.fold (fun e () acc -> e :: acc) live [] in
            Tric_audit.Audit.is_clean (Tric_audit.Audit.check ~edges t)
          in
          let matches_agree qid =
            let sorted m = List.sort_uniq Embedding.compare m in
            let exp = sorted (Tric_core.Tric.current_matches seq qid) in
            List.for_all
              (fun t ->
                let got = sorted (Tric_core.Tric.current_matches t qid) in
                List.length exp = List.length got && List.for_all2 Embedding.equal exp got)
              sharded
          in
          List.for_all
            (fun w ->
              let expected = Tric_engine.Report.of_pair (Tric_core.Tric.handle_batch seq w) in
              let reports =
                List.map
                  (fun t -> Tric_engine.Report.of_pair (Tric_core.Tric.handle_batch t w))
                  sharded
              in
              List.iter
                (fun u ->
                  match u.Update.op with
                  | Update.Add e -> Edge.Tbl.replace live e ()
                  | Update.Remove e -> Edge.Tbl.remove live e)
                w;
              List.for_all2
                (fun t r -> Tric_engine.Report.equal expected r && audit_clean t)
                sharded reports
              && List.for_all (fun q -> matches_agree (Pattern.id q)) queries)
            (windows updates)))

(* Packed row-store differential: the arena-backed engines against the
   boxed naive oracle, with the arena accounting checked at every step.
   Every view tuple lives as a width-stride slice of a flat int array
   owned by its shard, deduplicated by an open-addressing row-id table —
   so this property drives the layout through exactly the regimes that
   stress the freelist and the tombstone chains: interleaved
   add/remove/re-add per update, then net-op-folded batches, at 1 and 4
   shards and in both cache modes.  After every step three things must
   hold: reports and full current matches equal the oracle's, the audit
   (including the arena-integrity class — freelist/live-map coherence, no
   dangling row ids reachable from dedup slots or index buckets) stays
   clean against the ground-truth edge set, and [mem_stats] stays
   arithmetically sane (per shard, live + free slots never exceed arena
   capacity).  A final drain removes every live edge and requires all
   arenas to account zero live rows — leaks of freed slots survive report
   comparison, they cannot survive this.  The windowed regime rides the
   windowed-oracle properties below at the same shard counts, which run
   on the same packed layout. *)
let prop_packed_layout_equals_oracle =
  QCheck2.Test.make ~count:20 ~print:print_batch_case
    ~name:"packed row-store = boxed oracle (1/4 shards, add/remove + batch + drain)"
    QCheck2.Gen.(
      pair
        (pair
           (list_size (int_range 1 3) gen_pattern_spec)
           (list_size (int_range 1 60)
              (quad bool (int_bound (List.length elabels - 1))
                 (int_bound (List.length vconsts - 1))
                 (int_bound (List.length vconsts - 1)))))
        (int_range 1 8))
    (fun ((qspecs, sspec), window) ->
      QCheck2.assume (List.for_all valid_spec qspecs);
      let queries =
        List.mapi
          (fun i spec ->
            match build_pattern ~id:(i + 1) spec with
            | q when Pattern.is_connected q -> Some q
            | _ -> None
            | exception Invalid_argument _ -> None)
          qspecs
        |> List.filter_map Fun.id
      in
      QCheck2.assume (queries <> []);
      let oracle = Tric_engine.Naive.create () in
      let perupd =
        [
          Tric_core.Tric.create ~shards:1 ();
          Tric_core.Tric.create ~cache:true ~shards:4 ();
        ]
      in
      let batched =
        [
          Tric_core.Tric.create ~cache:true ~shards:1 ();
          Tric_core.Tric.create ~shards:4 ();
        ]
      in
      Fun.protect
        ~finally:(fun () -> List.iter Tric_core.Tric.shutdown (perupd @ batched))
        (fun () ->
          List.iter
            (fun q ->
              Tric_engine.Naive.add_query oracle q;
              List.iter (fun t -> Tric_core.Tric.add_query t q) (perupd @ batched))
            queries;
          let updates =
            List.map
              (fun (add, li, si, di) ->
                let e =
                  Edge.of_strings (List.nth elabels li) (List.nth vconsts si)
                    (List.nth vconsts di)
                in
                if add then Update.add e else Update.remove e)
              sspec
          in
          let mem_sane t =
            Array.for_all
              (fun (cap, live, free) ->
                live >= 0 && free >= 0 && live + free <= cap)
              (Tric_core.Tric.mem_stats t)
          in
          let matches_oracle t =
            List.for_all
              (fun q ->
                let qid = Pattern.id q in
                let sorted m = List.sort_uniq Embedding.compare m in
                let exp = sorted (Tric_engine.Naive.current_matches oracle qid) in
                let got = sorted (Tric_core.Tric.current_matches t qid) in
                List.length exp = List.length got
                && List.for_all2 Embedding.equal exp got)
              queries
          in
          let live = Edge.Tbl.create 64 in
          let track u =
            match u.Update.op with
            | Update.Add e -> Edge.Tbl.replace live e ()
            | Update.Remove e -> Edge.Tbl.remove live e
          in
          let audit_clean t =
            let edges = Edge.Tbl.fold (fun e () acc -> e :: acc) live [] in
            Tric_audit.Audit.is_clean (Tric_audit.Audit.check ~edges t)
          in
          (* Per-update phase: report-for-report against the oracle. *)
          let stream_ok =
            List.for_all
              (fun u ->
                let expected = Tric_engine.Naive.handle_update oracle u in
                let reports =
                  List.map
                    (fun t ->
                      Tric_engine.Report.of_pair (Tric_core.Tric.handle_update t u))
                    perupd
                in
                track u;
                List.for_all2
                  (fun t r ->
                    Tric_engine.Report.equal expected r
                    && audit_clean t && mem_sane t && matches_oracle t)
                  perupd reports)
              updates
          in
          (* Batch phase: the same stream through [handle_batch] windows.
             Net-op folding makes per-window reports legitimately differ
             from the oracle's per-update reports, but both batched
             engines must emit identical reports to each other, stay
             audit-clean at every barrier, and land on the oracle's final
             matches. *)
          let rec windows = function
            | [] -> []
            | us ->
              let n = min window (List.length us) in
              List.filteri (fun i _ -> i < n) us
              :: windows (List.filteri (fun i _ -> i >= n) us)
          in
          Edge.Tbl.reset live;
          let batch_ok =
            List.for_all
              (fun w ->
                let reports =
                  List.map
                    (fun t ->
                      Tric_engine.Report.of_pair (Tric_core.Tric.handle_batch t w))
                    batched
                in
                List.iter track w;
                (match reports with
                | r0 :: rest -> List.for_all (Tric_engine.Report.equal r0) rest
                | [] -> true)
                && List.for_all (fun t -> audit_clean t && mem_sane t) batched)
              (windows updates)
            && List.for_all matches_oracle batched
          in
          (* Drain phase: remove every surviving edge and require the
             arenas to account zero live rows — every allocated slot must
             have come back through the freelist. *)
          let drain =
            Edge.Tbl.fold (fun e () acc -> Update.remove e :: acc) live []
          in
          List.iter (fun u -> ignore (Tric_engine.Naive.handle_update oracle u)) drain;
          let drain_ok =
            List.for_all
              (fun t ->
                List.iter
                  (fun u -> ignore (Tric_core.Tric.handle_update t u))
                  drain;
                Tric_audit.Audit.is_clean (Tric_audit.Audit.check ~edges:[] t)
                && mem_sane t
                && Array.for_all
                     (fun (_, rows, _) -> rows = 0)
                     (Tric_core.Tric.mem_stats t))
              (perupd @ batched)
          in
          stream_ok && batch_ok && drain_ok))

let prop_relation_set_semantics =
  QCheck2.Test.make ~count:200 ~name:"relation = deduplicated set under insert/remove"
    QCheck2.Gen.(list_size (int_range 0 100) (pair bool (pair (int_bound 8) (int_bound 8))))
    (fun ops ->
      let r = Relation.create ~cache:true ~width:2 () in
      let probe = Relation.index_on r ~col:0 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (add, (a, b)) ->
          let t =
            Tuple.make [| Label.intern (Printf.sprintf "p%d" a); Label.intern (Printf.sprintf "p%d" b) |]
          in
          if add then begin
            ignore (Relation.insert r t);
            Hashtbl.replace model (a, b) ()
          end
          else begin
            ignore (Relation.remove r t);
            Hashtbl.remove model (a, b)
          end)
        ops;
      Relation.cardinality r = Hashtbl.length model
      && Hashtbl.fold
           (fun (a, _) () acc ->
             acc
             &&
             let expected =
               Hashtbl.fold (fun (a', _) () n -> if a = a' then n + 1 else n) model 0
             in
             List.length (probe (Label.intern (Printf.sprintf "p%d" a))) = expected)
           model true)

let prop_merge_commutative =
  QCheck2.Test.make ~count:300 ~name:"embedding merge is commutative"
    QCheck2.Gen.(pair (list_size (int_range 0 5) (pair (int_bound 4) (int_bound 3)))
                   (list_size (int_range 0 5) (pair (int_bound 4) (int_bound 3))))
    (fun (sa, sb) ->
      let build pairs =
        List.fold_left
          (fun acc (vid, v) ->
            match acc with
            | None -> None
            | Some e -> Embedding.bind e vid (Label.intern (Printf.sprintf "m%d" v)))
          (Some (Embedding.empty 5)) pairs
      in
      match (build sa, build sb) with
      | Some a, Some b -> (
        match (Embedding.merge a b, Embedding.merge b a) with
        | Some x, Some y -> Embedding.equal x y
        | None, None -> true
        | Some _, None | None, Some _ -> false)
      | _ -> QCheck2.assume_fail ())

let prop_trie_sharing =
  QCheck2.Test.make ~count:200 ~name:"trie node count = distinct prefixes"
    QCheck2.Gen.(list_size (int_range 1 20) (list_size (int_range 1 5) (int_bound 3)))
    (fun words ->
      let key i =
        { Ekey.label = Label.intern (Printf.sprintf "k%d" i); src = Ekey.Kvar; dst = Ekey.Kvar }
      in
      let forest = Tric_core.Trie.create ~cache:false () in
      List.iteri
        (fun qid word ->
          ignore (Tric_core.Trie.insert_path forest (List.map key word) ~qid ~path_index:0))
        words;
      let prefixes = Hashtbl.create 64 in
      List.iter
        (fun word ->
          let rec go acc = function
            | [] -> ()
            | k :: tl ->
              let acc = k :: acc in
              Hashtbl.replace prefixes acc ();
              go acc tl
          in
          go [] word)
        words;
      Tric_core.Trie.num_nodes forest = Hashtbl.length prefixes)

let gen_mixed_stream =
  (* Additions and removals over a small vocabulary; removals may target
     absent edges (must be no-ops). *)
  QCheck2.Gen.(
    list_size (int_range 1 80)
      (quad bool (int_bound (List.length elabels - 1))
         (int_bound (List.length vconsts - 1))
         (int_bound (List.length vconsts - 1))))

let updates_of_mixed spec =
  List.map
    (fun (add, li, si, di) ->
      let e =
        Edge.of_strings (List.nth elabels li) (List.nth vconsts si) (List.nth vconsts di)
      in
      if add then Update.add e else Update.remove e)
    spec

let prop_window_equals_suffix =
  (* A count-window engine over a duplicate-free addition stream must
     report, at the end, exactly the matches of the last W updates. *)
  QCheck2.Test.make ~count:60 ~name:"window engine = evaluation over suffix"
    QCheck2.Gen.(pair gen_pattern_spec gen_stream_spec)
    (fun (qspec, sspec) ->
      QCheck2.assume (valid_spec qspec);
      match build_pattern ~id:1 qspec with
      | exception Invalid_argument _ -> QCheck2.assume_fail ()
      | q ->
        if not (Pattern.is_connected q) then QCheck2.assume_fail ()
        else begin
          let edges =
            List.sort_uniq Edge.compare (edges_of_spec sspec)
          in
          QCheck2.assume (edges <> []);
          let window = 1 + (List.length edges / 2) in
          let w = Helpers.count_window window (fun () -> Tric_engine.Engines.tric ()) in
          Tric_engine.Window.add_query w q;
          List.iter (fun e -> ignore (Tric_engine.Window.handle_update w (Update.add e))) edges;
          let windowed =
            (Tric_engine.Window.engine w).Tric_engine.Matcher.current_matches 1
            |> List.sort_uniq Embedding.compare
          in
          (* Oracle: evaluate the pattern on the graph of the last W
             edges. *)
          let suffix =
            let n = List.length edges in
            List.filteri (fun i _ -> i >= n - window) edges
          in
          let g = Graph.create () in
          List.iter (fun e -> ignore (Graph.add_edge g e)) suffix;
          let expected =
            Tric_engine.Naive.embeddings_in g q |> List.sort_uniq Embedding.compare
          in
          List.length windowed = List.length expected
          && List.for_all2 Embedding.equal windowed expected
        end)

(* Timed mixed stream: add/remove ops with monotone event timestamps
   advancing by a random gap per update.  Gaps up to 5 against a span of 8
   mean most windows see a mix of refreshes, survivals and expiries. *)
let gen_timed_stream =
  QCheck2.Gen.(
    list_size (int_range 1 60)
      (pair
         (quad bool (int_bound (List.length elabels - 1))
            (int_bound (List.length vconsts - 1))
            (int_bound (List.length vconsts - 1)))
         (int_range 0 5)))

let print_timed_case (qspecs, sspec) =
  let mixed = List.map fst sspec in
  Printf.sprintf "%s gaps=[%s]"
    (print_mixed_case (qspecs, mixed))
    (String.concat ";" (List.map (fun (_, g) -> string_of_int g) sspec))

(* The tentpole end-to-end property: a time-sliding windowed engine over a
   timestamped stream is equivalent to a naive oracle replaying the same
   stream with an explicit [Remove] injected for every edge the moment the
   watermark passes its deadline.  Checked per update: the merged report
   (expiry retractions folded into the trigger), every query's current
   matches, and the window-coherence audit against the ground-truth
   unexpired edge set.  [batched] chops the stream into handle_batch
   windows (report comparison is skipped there — net-op folding
   legitimately cancels transient matches the sequential oracle sees). *)
let prop_windowed_equals_oracle ~count ~cache ~shards ~batched =
  let span = 8 in
  let spec = Wspec.Time { shape = Wspec.Sliding; span } in
  QCheck2.Test.make ~count ~print:print_timed_case
    ~name:
      (Printf.sprintf "windowed %s (%d shard%s%s) = expiry-replaying oracle"
         (if cache then "TRIC+" else "TRIC")
         shards
         (if shards = 1 then "" else "s")
         (if batched then ", batched" else ""))
    QCheck2.Gen.(pair (list_size (int_range 1 3) gen_pattern_spec) gen_timed_stream)
    (fun (qspecs, sspec) ->
      QCheck2.assume (List.for_all valid_spec qspecs);
      let queries =
        List.mapi
          (fun i spec ->
            match build_pattern ~id:(i + 1) spec with
            | q when Pattern.is_connected q -> Some q
            | _ -> None
            | exception Invalid_argument _ -> None)
          qspecs
        |> List.filter_map Fun.id
      in
      QCheck2.assume (queries <> []);
      let updates =
        let ts = ref 0 in
        List.map
          (fun ((add, li, si, di), gap) ->
            ts := !ts + gap;
            let e =
              Edge.of_strings (List.nth elabels li) (List.nth vconsts si)
                (List.nth vconsts di)
            in
            if add then Update.add ~ts:!ts e else Update.remove ~ts:!ts e)
          sspec
      in
      let w =
        Tric_engine.Engines.windowed_spec ~default:spec (fun () ->
            Tric_engine.Engines.tric ~cache ~shards ())
      in
      let oracle = Tric_engine.Engines.naive () in
      Fun.protect
        ~finally:(fun () -> w.Tric_engine.Matcher.shutdown ())
        (fun () ->
          List.iter
            (fun q ->
              w.Tric_engine.Matcher.add_query q;
              oracle.Tric_engine.Matcher.add_query q)
            queries;
          (* Oracle-side window model: edge -> deadline, advanced in lock
             step with the stream's watermark. *)
          let model = Edge.Tbl.create 64 in
          let wm = ref min_int in
          (* Replay one update through the oracle, injecting expiry
             removals first; returns (expired, merged oracle report). *)
          let oracle_step (u : Update.t) =
            if u.Update.ts > !wm then wm := u.Update.ts;
            let expired =
              Edge.Tbl.fold (fun e d acc -> if d <= !wm then e :: acc else acc) model []
            in
            let expiry_reports =
              List.map
                (fun e ->
                  Edge.Tbl.remove model e;
                  oracle.Tric_engine.Matcher.handle_update (Update.remove e))
                expired
            in
            (match u.Update.op with
            | Update.Add e -> Edge.Tbl.replace model e (Wspec.deadline spec ~ts:u.Update.ts)
            | Update.Remove e -> Edge.Tbl.remove model e);
            let trigger = oracle.Tric_engine.Matcher.handle_update u in
            (expired, Tric_engine.Report.merge (expiry_reports @ [ trigger ]))
          in
          let state_agrees () =
            List.for_all
              (fun q ->
                let qid = Pattern.id q in
                let sorted m = List.sort_uniq Embedding.compare m in
                let exp = sorted (oracle.Tric_engine.Matcher.current_matches qid) in
                let got = sorted (w.Tric_engine.Matcher.current_matches qid) in
                List.length exp = List.length got && List.for_all2 Embedding.equal exp got)
              queries
          in
          let audit_clean () =
            let live = Edge.Tbl.fold (fun e _ acc -> e :: acc) model [] in
            Tric_audit.Audit.is_clean (w.Tric_engine.Matcher.audit (Some live))
          in
          if batched then begin
            (* Chop into fixed micro-batches; the oracle still steps
               sequentially.  State + audit must agree at every barrier. *)
            let rec chunks n = function
              | [] -> []
              | us ->
                let rec take k = function
                  | x :: rest when k > 0 ->
                    let h, t = take (k - 1) rest in
                    (x :: h, t)
                  | rest -> ([], rest)
                in
                let h, t = take n us in
                h :: chunks n t
            in
            List.for_all
              (fun batch ->
                ignore (w.Tric_engine.Matcher.handle_batch batch);
                List.iter (fun u -> ignore (oracle_step u)) batch;
                state_agrees () && audit_clean ())
              (chunks 5 updates)
          end
          else
            List.for_all
              (fun u ->
                let got = w.Tric_engine.Matcher.handle_update u in
                let expired, expected = oracle_step u in
                let edge = Update.edge u in
                (* When the trigger's own edge expires in the same wave the
                   fold cancels remove+re-add the oracle reports verbatim —
                   states must still agree, reports legitimately differ. *)
                let collision =
                  List.exists (fun e -> Edge.compare e edge = 0) expired
                in
                (collision || Tric_engine.Report.equal expected got)
                && state_agrees () && audit_clean ())
              updates))

let gen_edge =
  QCheck2.Gen.(
    map
      (fun (li, si, di) ->
        Edge.of_strings (List.nth elabels li) (List.nth vconsts si) (List.nth vconsts di))
      (triple (int_bound (List.length elabels - 1))
         (int_bound (List.length vconsts - 1))
         (int_bound (List.length vconsts - 1))))

let prop_ekey_generalisation_sound_complete =
  (* keys_of_edge e = exactly the generic keys that match e (soundness and
     completeness over the key space of the vocabulary). *)
  QCheck2.Test.make ~count:200 ~name:"keys_of_edge = all matching keys"
    QCheck2.Gen.(pair gen_edge gen_edge)
    (fun (e, other) ->
      let keys = Ekey.keys_of_edge e in
      List.for_all (fun k -> Ekey.matches k e) keys
      && List.length (List.sort_uniq Ekey.compare keys) = 4
      &&
      (* Any key derived from any edge matches e iff label agrees and each
         constant endpoint agrees — cross-check with a key from another
         edge. *)
      List.for_all
        (fun k ->
          let expected =
            Label.equal k.Ekey.label e.Edge.label
            && (match Ekey.src_const k with
               | Some c -> Label.equal c e.Edge.src
               | None -> true)
            && match Ekey.dst_const k with
               | Some c -> Label.equal c e.Edge.dst
               | None -> true
          in
          Ekey.matches k e = expected)
        (Ekey.keys_of_edge other))

let prop_cover_path_count_bounded =
  (* A covering set never needs more paths than edges, and the upstream
     strategy covers every edge with at least one path starting at a
     source or constant when one exists. *)
  QCheck2.Test.make ~count:200 ~name:"cover: at most one path per edge"
    gen_pattern_spec
    (fun spec ->
      QCheck2.assume (valid_spec spec);
      match build_pattern ~id:1 spec with
      | exception Invalid_argument _ -> QCheck2.assume_fail ()
      | q ->
        let paths = Cover.extract q in
        List.length paths <= Pattern.num_edges q
        && List.for_all (fun p -> Path.length p >= 1) paths)

let prop_journal_recovery =
  (* Whatever ran through a journal is fully reconstructable: the
     recovered engine has identical current matches for every query. *)
  QCheck2.Test.make ~count:25 ~name:"journal recovery preserves engine state"
    QCheck2.Gen.(pair (list_size (int_range 1 3) gen_pattern_spec) gen_stream_spec)
    (fun (qspecs, sspec) ->
      QCheck2.assume (List.for_all valid_spec qspecs);
      let queries =
        List.mapi
          (fun i spec ->
            match build_pattern ~id:(i + 1) spec with
            | q when Pattern.is_connected q -> Some q
            | _ -> None
            | exception Invalid_argument _ -> None)
          qspecs
        |> List.filter_map Fun.id
      in
      QCheck2.assume (queries <> []);
      let path = Filename.temp_file "tric_prop_journal" ".log" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let j = Tric_engine.Journal.open_ ~path (fun () -> Tric_engine.Engines.tric ()) in
          List.iter (Tric_engine.Journal.add_query j) queries;
          List.iter
            (fun e -> ignore (Tric_engine.Journal.handle_update j (Update.add e)))
            (edges_of_spec sspec);
          let live = Tric_engine.Journal.engine j in
          Tric_engine.Journal.close j;
          let j2 = Tric_engine.Journal.open_ ~path (fun () -> Tric_engine.Engines.tric ()) in
          let recovered = Tric_engine.Journal.engine j2 in
          let ok =
            List.for_all
              (fun q ->
                let qid = Pattern.id q in
                let a =
                  List.sort Embedding.compare (live.Tric_engine.Matcher.current_matches qid)
                in
                let b =
                  List.sort Embedding.compare
                    (recovered.Tric_engine.Matcher.current_matches qid)
                in
                List.length a = List.length b && List.for_all2 Embedding.equal a b)
              queries
          in
          Tric_engine.Journal.close j2;
          ok))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_cover_covers Cover.Upstream;
      prop_cover_covers Cover.Naive;
      prop_engine_agrees "TRIC" (fun () -> Tric_engine.Engines.tric ());
      prop_engine_agrees "TRIC+" (fun () -> Tric_engine.Engines.tric ~cache:true ());
      prop_engine_agrees "INV" (fun () -> Tric_engine.Engines.inv ());
      prop_engine_agrees "INV+" (fun () -> Tric_engine.Engines.inv ~cache:true ());
      prop_engine_agrees "INC" (fun () -> Tric_engine.Engines.inc ());
      prop_engine_agrees "INC+" (fun () -> Tric_engine.Engines.inc ~cache:true ());
      prop_engine_agrees "GraphDB" (fun () -> Tric_engine.Engines.graphdb ());
      prop_engines_agree_under_deletions;
      prop_batch_equals_sequential;
      prop_sharded_equals_sequential;
      prop_sharded_batch_equals_sequential;
      prop_packed_layout_equals_oracle;
      prop_relation_set_semantics;
      prop_merge_commutative;
      prop_trie_sharing;
      prop_window_equals_suffix;
      prop_windowed_equals_oracle ~count:20 ~cache:false ~shards:1 ~batched:false;
      prop_windowed_equals_oracle ~count:20 ~cache:false ~shards:1 ~batched:true;
      prop_windowed_equals_oracle ~count:20 ~cache:true ~shards:1 ~batched:false;
      prop_windowed_equals_oracle ~count:10 ~cache:true ~shards:4 ~batched:false;
      prop_windowed_equals_oracle ~count:20 ~cache:true ~shards:1 ~batched:true;
      prop_windowed_equals_oracle ~count:10 ~cache:true ~shards:4 ~batched:true;
      prop_ekey_generalisation_sound_complete;
      prop_cover_path_count_bounded;
      prop_journal_recovery;
    ]
