open Tric_graph
open Tric_query
open Tric_rel
module Pool = Tric_exec.Pool

type query_info = {
  pattern : Pattern.t;
  paths : Path.t array;
  path_vids : int array array; (* per path: chain vertex-id sequence *)
  path_shards : int array; (* per path: shard owning its trie *)
  terminals : Trie.node array;
  width : int; (* pattern vertex count *)
}
(* Path [i]'s result — the paper's matV[P_i] — is the terminal's view,
   [Trie.node_view terminals.(i)] on shard [path_shards.(i)], read in
   place by the final join: the coordinator keeps no copy of it. *)

(* Coordinator-side telemetry: event counters and the cross-path join
   instruments (stable — pure functions of the update stream), wall-clock
   phase histograms (unstable), and the span recorder tracing one
   update's journey scatter → gather → join.  Lives next to the ad-hoc
   stats counters; everything here is touched only by the main domain. *)
type obs = {
  reg : Tric_obs.Registry.t;
  o_updates : Tric_obs.Registry.counter;
  o_additions : Tric_obs.Registry.counter;
  o_removals : Tric_obs.Registry.counter;
  o_batches : Tric_obs.Registry.counter;
  o_matches : Tric_obs.Registry.counter;
  o_join_fanout : Tric_obs.Histogram.t; (* matches per reporting query per round *)
  o_gather_s : Tric_obs.Histogram.t;
  o_join_s : Tric_obs.Histogram.t;
  o_spans : Tric_obs.Span.t;
}

let make_obs () =
  let reg = Tric_obs.Registry.create () in
  {
    reg;
    o_updates = Tric_obs.Registry.counter reg "tric_updates_total";
    o_additions = Tric_obs.Registry.counter reg "tric_additions_total";
    o_removals = Tric_obs.Registry.counter reg "tric_removals_total";
    o_batches = Tric_obs.Registry.counter reg "tric_batches_total";
    o_matches = Tric_obs.Registry.counter reg "tric_matches_total";
    o_join_fanout = Tric_obs.Registry.histogram reg ~lo:1.0 ~growth:2.0 "tric_join_fanout";
    o_gather_s = Tric_obs.Registry.histogram reg ~stable:false ~lo:1e-7 "tric_gather_seconds";
    o_join_s = Tric_obs.Registry.histogram reg ~stable:false ~lo:1e-7 "tric_join_seconds";
    o_spans = Tric_obs.Span.create ();
  }

(* The coordinator: routing + scatter/gather around shard-owned state.
   Shards are mutated only inside pool tasks (one task per shard, so no
   two tasks share state) or by the coordinator strictly between pool
   barriers; query metadata and counters live here and are only ever
   touched by the coordinator, which also reads the terminal views for
   the final join — after the gather barrier, never inside a task. *)
type t = {
  cache : bool;
  strategy : Cover.strategy;
  nshards : int;
  shards : Shard.t array;
  route : Route.table; (* per-key shard bitmaps, grown at add_query *)
  pool : Pool.t option; (* Some iff nshards > 1 *)
  busy : float array; (* per shard: seconds spent in its tasks *)
  shard_ops : int array; (* per shard: net ops dispatched to it *)
  obs : obs option;
  queries : (int, query_info) Hashtbl.t;
  mutable ops_routed : int; (* net ops that went through targeted dispatch *)
  mutable removals : int; (* Remove updates processed *)
  mutable noop_removals : int; (* removals that evicted nothing anywhere *)
  mutable tuples_removed : int; (* view tuples evicted by deletions *)
  mutable invalidations_avoided : int; (* per removal: queries whose terminals lost nothing *)
  mutable batches : int; (* handle_batch calls *)
  mutable batched_updates : int; (* updates received through handle_batch *)
  mutable batch_cancelled : int; (* updates collapsed by in-window net-op folding *)
  mutable batch_net_applied : int; (* net ops that survived the folding *)
}

let create ?(cache = false) ?(strategy = Cover.Upstream) ?(shards = 1) ?(metrics = false) () =
  if shards < 1 then invalid_arg "Tric.create: shards must be >= 1";
  let obs = if metrics then Some (make_obs ()) else None in
  let pool_obs = match obs with Some o -> Some o.reg | None -> None in
  {
    cache;
    strategy;
    nshards = shards;
    shards = Array.init shards (fun sid -> Shard.create ~metrics ~sid ~shards ~cache ());
    route = Route.create_table ~shards;
    pool =
      (if shards > 1 then Some (Pool.create ?obs:pool_obs ~workers:(shards - 1) ())
       else None);
    busy = Array.make shards 0.0;
    shard_ops = Array.make shards 0;
    obs;
    queries = Hashtbl.create 256;
    ops_routed = 0;
    removals = 0;
    noop_removals = 0;
    tuples_removed = 0;
    invalidations_avoided = 0;
    batches = 0;
    batched_updates = 0;
    batch_cancelled = 0;
    batch_net_applied = 0;
  }

let name t = if t.cache then "TRIC+" else "TRIC"
let num_shards t = t.nshards
let busy_times t = Array.copy t.busy
let busy_s t = Array.fold_left ( +. ) 0.0 t.busy
let shutdown t = Option.iter Pool.shutdown t.pool

let metrics_enabled t = Option.is_some t.obs

(* Merged snapshot: coordinator registry first, then every shard's in
   fixed shard order.  Always called between barriers (the coordinator
   API is single-threaded), so reading shard registries is race-free; all
   merge ops are commutative, so stable metrics come out identical at any
   shard count. *)
let metrics t =
  match t.obs with
  | None -> Tric_obs.Snapshot.empty
  | Some o ->
    let shard_regs =
      Array.to_list t.shards |> List.filter_map (fun sh -> Shard.registry sh)
    in
    Tric_obs.Snapshot.of_registries (o.reg :: shard_regs)

let spans t =
  match t.obs with Some o -> Tric_obs.Span.spans o.o_spans | None -> []

(* Dispatch one task per {e targeted} shard (ascending shard id), wait
   for all of them (pool [run] is a full barrier), account per-shard busy
   time, and gather results in ascending shard order — the determinism
   anchor for everything downstream.  Shards outside [sids] hold no trie
   node and no base view for any key the op feeds (the routing bitmaps
   certify exactly this), so skipping them is a semantic no-op and the
   per-op cost tracks affected shards, not shard count.  When a span is
   live, each targeted shard's busy seconds are filed as a stage (the
   per-shard trie-descent leg of the update's journey). *)
let dispatch ?(sp = Tric_obs.Span.none) t sids f =
  match sids with
  | [] -> [||]
  | sids ->
    let sids = Array.of_list sids in
    let tasks = Array.map (fun sid () -> f t.shards.(sid)) sids in
    let timed =
      match t.pool with Some pool -> Pool.run pool tasks | None -> Pool.run_seq tasks
    in
    Array.iteri (fun i (_, dt) -> t.busy.(sids.(i)) <- t.busy.(sids.(i)) +. dt) timed;
    (match t.obs with
    | Some o when sp >= 0 ->
      Tric_obs.Span.stage o.o_spans sp "scatter";
      Array.iteri
        (fun i (_, dt) ->
          Tric_obs.Span.stage_dur o.o_spans sp (Printf.sprintf "shard%d" sids.(i)) dt)
        timed
    | _ -> ());
    Array.map fst timed

(* Route one net op: the shards whose bitmaps any of the edge's four
   generalised keys hit, ascending.  Counted per (op, shard) pair so
   [shard_ops]/[ops_routed] is the mean dispatch fanout — ≈ nshards would
   mean we are still broadcasting. *)
let route_op t e =
  let sids = Route.shard_list (Route.targets t.route e) in
  t.ops_routed <- t.ops_routed + 1;
  List.iter (fun s -> t.shard_ops.(s) <- t.shard_ops.(s) + 1) sids;
  sids

(* Span plumbing: all no-ops (a single integer compare) when metrics are
   off — [Span.none] short-circuits without touching the clock. *)
let span_start t label =
  match t.obs with Some o -> Tric_obs.Span.start o.o_spans label | None -> Tric_obs.Span.none

let span_stage t sp name =
  match t.obs with Some o -> Tric_obs.Span.stage o.o_spans sp name | None -> ()

let add_query t pattern =
  let qid = Pattern.id pattern in
  if Hashtbl.mem t.queries qid then
    invalid_arg (Printf.sprintf "Tric.add_query: duplicate query id %d" qid);
  let paths = Array.of_list (Cover.extract ~strategy:t.strategy pattern) in
  let words = Array.map (fun p -> Path.keys pattern p) paths in
  (* [Route.place] rejects empty key words, and every word is placed
     before any shard state is touched, so a malformed pattern cannot
     leave a partially indexed query behind. *)
  let path_shards = Array.map (fun keys -> Route.place ~shards:t.nshards keys) words in
  (* Grow the dispatch bitmaps: after this, every key of every covering
     path names its owner shard, so updates route to exactly the shards
     whose tries (and base views) they can affect. *)
  Array.iteri
    (fun i keys ->
      List.iter (fun k -> Route.register t.route k ~shard:path_shards.(i)) keys)
    words;
  let terminals =
    Array.mapi
      (fun i keys ->
        Trie.insert_path (Shard.forest t.shards.(path_shards.(i))) keys ~qid
          ~path_index:i)
      words
  in
  let path_vids = Array.map Path.vids paths in
  let width = Pattern.num_vertices pattern in
  Hashtbl.add t.queries qid { pattern; paths; path_vids; path_shards; terminals; width }

let remove_query t qid =
  (* Deregister the id from its terminal nodes so a later re-add of the id
     (possibly with a different pattern) cannot inherit stale delta
     attributions.  Trie structure shared with other queries survives;
     branches that held only this query's registrations are pruned
     bottom-up, and every key whose node set shrank gets its dispatch
     mask rebuilt from the forests — without this, long-lived churny
     query DBs decay dispatch fanout back toward broadcast. *)
  match Hashtbl.find_opt t.queries qid with
  | None -> false
  | Some info ->
    Array.iter (fun terminal -> Trie.deregister terminal ~qid) info.terminals;
    let affected = ref [] in
    Array.iteri
      (fun i terminal ->
        let forest = Shard.forest t.shards.(info.path_shards.(i)) in
        let keys, removes = Trie.prune forest terminal in
        (* Detached views leave the live-view eviction sum; keep the
           stats identity (audit: view eviction sum = tuples_removed). *)
        t.tuples_removed <- t.tuples_removed - removes;
        List.iter
          (fun k ->
            if not (List.exists (fun k' -> Ekey.equal k k') !affected) then
              affected := k :: !affected)
          keys)
      info.terminals;
    List.iter
      (fun k ->
        let mask = ref 0 in
        Array.iteri
          (fun s sh ->
            if Trie.nodes_with_key (Shard.forest sh) k <> [] then
              mask := !mask lor (1 lsl s))
          t.shards;
        if !mask = 0 then Route.clear t.route k else Route.set_bits t.route k !mask)
      !affected;
    Hashtbl.remove t.queries qid;
    true

let num_queries t = Hashtbl.length t.queries

(* -- Gather: merge per-shard deltas ----------------------------------------- *)

(* Merge shard deltas into per-live-query per-path packed-batch lists.
   Shards are visited in fixed order and each shard pre-sorts its deltas,
   so the merged lists are deterministic; moreover each (qid, path) is
   registered on exactly one shard, so the per-path lists never mix
   shards.  The batches are standalone flat copies (no row ids), so the
   coordinator holds no reference into any shard's arena. *)
let merge_deltas t per_shard =
  let per_query : (int, Rows.packed list array) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun deltas ->
      List.iter
        (fun (qid, pidx, packed) ->
          match Hashtbl.find_opt t.queries qid with
          | None -> ()
          | Some info ->
            let slots =
              match Hashtbl.find_opt per_query qid with
              | Some d -> d
              | None ->
                let d = Array.make (Array.length info.paths) [] in
                Hashtbl.add per_query qid d;
                d
            in
            slots.(pidx) <- packed :: slots.(pidx))
        deltas)
    per_shard;
  per_query

(* Turn each path's packed delta batches into partial embeddings of the
   query (enforcing repeated-variable equalities within the path) —
   straight from the flat cells, no boxed tuples. *)
let embeddings_of_packs info packs =
  Array.mapi (fun i p -> Embjoin.of_packed ~width:info.width ~vids:info.path_vids.(i) p) packs

(* Path [j]'s terminal view as a join operand, read in place: TRIC+
   lends its maintained column index (built on first probe), plain TRIC
   only a row scan. *)
let path_view ?plus ?minus t info j =
  let rel = Trie.node_view info.terminals.(j) in
  Embjoin.view ?plus ?minus
    ?probe:(if t.cache then Some Relation.probe_col_rows else None)
    ~vids:info.path_vids.(j) ~size:(Relation.cardinality rel) ~cell:Relation.row_col
    ~iter:Relation.iter_rows rel

(* Join each non-empty path delta against the other paths' views (Fig. 8,
   lines 8-13), delta first; a match whose tuples sit in several deltas
   is found once per such path, and the dedup collapses it.  Most deltas
   meet an empty view somewhere, so that is checked ([empty j]) before
   any operand is built. *)
let join_deltas ~empty view deltas =
  let k = Array.length deltas in
  let results = ref [] and joined = ref 0 in
  Array.iteri
    (fun i delta ->
      if delta <> [] then begin
        let blocked = ref false in
        for j = 0 to k - 1 do
          if j <> i && empty j then blocked := true
        done;
        if not !blocked then begin
          let others = List.init (k - 1) (fun j -> view (if j < i then j else j + 1)) in
          incr joined;
          results := Embjoin.join_views delta others @ !results
        end
      end)
    deltas;
  (* One joined delta yields distinct matches already. *)
  let results = if !joined > 1 then Embjoin.dedup !results else !results in
  List.filter Embedding.is_total results

let view_is_empty info j = Relation.is_empty (Trie.node_view info.terminals.(j))

(* New matches: the deltas are already in the views, so "other path"
   operands see this round's tuples too. *)
let query_new_matches t info deltas =
  join_deltas ~empty:(view_is_empty info) (path_view t info) (embeddings_of_packs info deltas)

(* Retractions: join each path's dead delta against the other paths'
   views {e before} the update.  The shards have already evicted the dead
   rows, so a pre-update view is rebuilt as the live view plus that path's
   dead delta, less the rows this batch added ([added], [None] for a
   single removal; dead and added rows are disjoint because each edge has
   one net polarity).  Covering paths cover every pattern edge, so every
   destroyed match projects onto a dead tuple of at least one path and its
   other projections sit in the pre-update views: the join reconstructs
   exactly the destroyed matches. *)
let query_retractions t info ~added dead =
  let dead = embeddings_of_packs info dead in
  let minus =
    match added with
    | None -> Array.map (fun _ -> None) dead
    | Some adds ->
      Array.map
        (function
          | [] -> None
          | embs ->
            let tbl = Embedding.Tbl.create (2 * List.length embs) in
            List.iter (fun em -> Embedding.Tbl.replace tbl em ()) embs;
            Some tbl)
        (embeddings_of_packs info adds)
  in
  join_deltas
    ~empty:(fun j -> dead.(j) = [] && view_is_empty info j)
    (fun j -> path_view ~plus:dead.(j) ?minus:minus.(j) t info j)
    dead

(* -- Gather and join ----------------------------------------------------------- *)

let gather ?(sp = Tric_obs.Span.none) t per_shard =
  let t0 = match t.obs with Some _ -> Unix.gettimeofday () | None -> 0.0 in
  let per_query = merge_deltas t per_shard in
  (match t.obs with
  | Some o ->
    Tric_obs.Histogram.observe o.o_gather_s (Unix.gettimeofday () -. t0);
    Tric_obs.Span.stage o.o_spans sp "gather"
  | None -> ());
  per_query

let by_qid l = List.sort (fun (a, _) (b, _) -> Int.compare a b) l

(* The final cross-path joins of one round, on the coordinator after the
   gather barrier: they read shard-owned views (and may build a TRIC+
   view's column index), which no worker domain may do concurrently with
   the shard tasks.  Serial, but timed as one task and filed in shard 0's
   busy time, so the coordinator's self time keeps its meaning. *)
let report ?(sp = Tric_obs.Span.none) t per_query =
  let t1 = match t.obs with Some _ -> Unix.gettimeofday () | None -> 0.0 in
  let timed =
    Pool.run_seq
      [|
        (fun () ->
          Hashtbl.fold
            (fun qid deltas acc ->
              match query_new_matches t (Hashtbl.find t.queries qid) deltas with
              | [] -> acc
              | matches -> (qid, matches) :: acc)
            per_query []);
      |]
  in
  let out, dt = timed.(0) in
  t.busy.(0) <- t.busy.(0) +. dt;
  (match t.obs with
  | Some o ->
    List.iter
      (fun (_, matches) ->
        Tric_obs.Registry.add o.o_matches (List.length matches);
        Tric_obs.Histogram.observe o.o_join_fanout (float_of_int (List.length matches)))
      out;
    Tric_obs.Histogram.observe o.o_join_s (Unix.gettimeofday () -. t1);
    Tric_obs.Span.stage o.o_spans sp "join"
  | None -> ());
  by_qid out

let retractions ?added t dead_per_query =
  Hashtbl.fold
    (fun qid dead acc ->
      let added = Option.bind added (fun tbl -> Hashtbl.find_opt tbl qid) in
      match query_retractions t (Hashtbl.find t.queries qid) ~added dead with
      | [] -> acc
      | dead -> (qid, dead) :: acc)
    dead_per_query []
  |> by_qid

(* -- Removal bookkeeping ----------------------------------------------------- *)

(* Account one removal given its gathered per-shard deltas and the total
   evicted-tuple count summed over shards: queries whose terminals lost
   nothing count as avoided invalidations. *)
let account_removal t removed per_shard_deltas =
  t.removals <- t.removals + 1;
  t.tuples_removed <- t.tuples_removed + removed;
  if removed = 0 then begin
    (* No-op removal (absent edge, or no view retained it). *)
    t.noop_removals <- t.noop_removals + 1;
    t.invalidations_avoided <- t.invalidations_avoided + num_queries t
  end
  else begin
    let touched = Hashtbl.create 8 in
    Array.iter
      (List.iter (fun (qid, _, packed) ->
           if Rows.packed_count packed > 0 && Hashtbl.mem t.queries qid then
             Hashtbl.replace touched qid ()))
      per_shard_deltas;
    t.invalidations_avoided <-
      t.invalidations_avoided + (num_queries t - Hashtbl.length touched)
  end

let apply_removal ?(sp = Tric_obs.Span.none) t sids e =
  let results = dispatch ~sp t sids (fun sh -> Shard.apply_remove sh e) in
  let removed = Array.fold_left (fun acc (_, c) -> acc + c) 0 results in
  let deltas = Array.map fst results in
  account_removal t removed deltas;
  let retracted = if removed = 0 then [] else retractions t (merge_deltas t deltas) in
  span_stage t sp "subtract";
  retracted

let handle_update t u =
  (match t.obs with Some o -> Tric_obs.Registry.incr o.o_updates | None -> ());
  match u.Update.op with
  | Update.Add e ->
    (match t.obs with Some o -> Tric_obs.Registry.incr o.o_additions | None -> ());
    let sp = span_start t "add" in
    (match route_op t e with
    | [] ->
      (* No registered key generalises this edge: no shard holds a view
         it could feed, so there is nothing to do and nothing to report —
         on any shard count, including 1. *)
      ([], [])
    | sids ->
      let per_shard = dispatch ~sp t sids (fun sh -> Shard.apply_add sh e) in
      (report ~sp t (gather ~sp t per_shard), []))
  | Update.Remove e ->
    (match t.obs with Some o -> Tric_obs.Registry.incr o.o_removals | None -> ());
    let sp = span_start t "remove" in
    let retracted =
      match route_op t e with
      | [] ->
        (* Still a removal for the accounting identities — just a provably
           no-op one. *)
        account_removal t 0 [||];
        []
      | sids -> apply_removal ~sp t sids e
    in
    ([], retracted)

(* -- Micro-batches ----------------------------------------------------------- *)

let handle_batch t updates =
  t.batches <- t.batches + 1;
  t.batched_updates <- t.batched_updates + List.length updates;
  let sp = span_start t "batch" in
  (match t.obs with
  | Some o ->
    Tric_obs.Registry.incr o.o_batches;
    Tric_obs.Registry.add o.o_updates (List.length updates);
    List.iter
      (fun u ->
        if Update.is_addition u then Tric_obs.Registry.incr o.o_additions
        else Tric_obs.Registry.incr o.o_removals)
      updates
  | None -> ());
  (* Net effect per edge: views are joins over deduplicated base sets, so
     within one window only an edge's final polarity matters — duplicates
     collapse and an [Add e; ...; Remove e] window cancels down to one
     (possibly no-op) removal.  Replaying the net ops reaches exactly the
     state of sequential replay; matches that exist only transiently
     inside the window are intentionally never materialised or reported. *)
  let last : bool Edge.Tbl.t = Edge.Tbl.create (2 * List.length updates) in
  let order = ref [] in
  List.iter
    (fun u ->
      let e = Update.edge u in
      if not (Edge.Tbl.mem last e) then order := e :: !order;
      Edge.Tbl.replace last e (Update.is_addition u))
    updates;
  let removals, additions =
    List.partition_map
      (fun e -> if Edge.Tbl.find last e then Either.Right e else Either.Left e)
      (List.rev !order)
  in
  t.batch_cancelled <-
    t.batch_cancelled
    + (List.length updates - List.length removals - List.length additions);
  t.batch_net_applied <- t.batch_net_applied + List.length removals + List.length additions;
  span_stage t sp "fold";
  (* Route each net op to the shards its keys can affect and build
     per-shard op queues in window order, so one pool task carries the
     whole window's work for each targeted shard.  Within a task the
     shard applies its removals in order and then its additions as one
     amortised sweep; shard state is disjoint across shards, and the
     coordinator below reads the views only after the barrier, when they
     hold the post-batch state whatever the shard interleaving in wall
     time. *)
  let rem_q = Array.make t.nshards [] in
  let add_q = Array.make t.nshards [] in
  let rem_targets =
    List.map
      (fun e ->
        let sids = route_op t e in
        List.iter (fun s -> rem_q.(s) <- e :: rem_q.(s)) sids;
        sids)
      removals
  in
  List.iter
    (fun e ->
      let sids = route_op t e in
      List.iter (fun s -> add_q.(s) <- e :: add_q.(s)) sids)
    additions;
  let active =
    List.filter
      (fun s -> rem_q.(s) <> [] || add_q.(s) <> [])
      (List.init t.nshards Fun.id)
  in
  let results =
    dispatch ~sp t active (fun sh ->
        let s = Shard.sid sh in
        (* Folded net-op count for this shard: the batch's addition queue
           length pre-sizes the shard's sweep accumulators and arenas. *)
        Shard.apply_ops ~expect:(List.length add_q.(s)) sh
          ~removals:(List.rev rem_q.(s))
          ~additions:(List.rev add_q.(s)))
  in
  let rem_res = Array.make t.nshards [||] in
  let add_res = Array.make t.nshards [] in
  List.iteri
    (fun i s ->
      let removed, added = results.(i) in
      rem_res.(s) <- removed;
      add_res.(s) <- added)
    active;
  (* Account removals in window order.  Shard [s]'s result array lists
     only the removals routed to [s], so walk each with a cursor; an
     unrouted removal is a provable no-op and is accounted as such. *)
  let cursor = Array.make t.nshards 0 in
  let dead = ref [] in
  List.iter
    (fun sids ->
      let per =
        List.map
          (fun s ->
            let slot = rem_res.(s).(cursor.(s)) in
            cursor.(s) <- cursor.(s) + 1;
            slot)
          sids
      in
      let removed = List.fold_left (fun acc (_, c) -> acc + c) 0 per in
      let deltas = List.map fst per in
      account_removal t removed (Array.of_list deltas);
      if removed > 0 then dead := List.rev_append deltas !dead)
    rem_targets;
  let added =
    match additions with
    | [] -> None
    | _ -> Some (gather ~sp t (Array.of_list (List.map (fun s -> add_res.(s)) active)))
  in
  (* Retractions once per batch, from the union of the removals' dead
     deltas against the pre-batch views. *)
  let retracted =
    match !dead with
    | [] -> []
    | dead ->
      let retracted = retractions ?added t (merge_deltas t (Array.of_list dead)) in
      span_stage t sp "subtract";
      retracted
  in
  match added with
  | None -> ([], retracted)
  | Some per_query -> (report ~sp t per_query, retracted)

(* -- Probes ---------------------------------------------------------------- *)

let current_matches t qid =
  let info = Hashtbl.find t.queries qid in
  let first = Trie.node_view info.terminals.(0) in
  let acc =
    Relation.fold
      (fun tu acc ->
        match Embedding.of_tuple ~width:info.width ~vids:info.path_vids.(0) tu with
        | Some e -> e :: acc
        | None -> acc)
      first []
  in
  let others = List.init (Array.length info.paths - 1) (fun j -> path_view t info (j + 1)) in
  List.filter Embedding.is_total (Embjoin.join_views acc others)

let covering_paths t qid =
  let info = Hashtbl.find t.queries qid in
  Array.to_list info.paths

let forests t = Array.map Shard.forest t.shards

let forest t =
  if t.nshards <> 1 then
    invalid_arg "Tric.forest: engine is sharded — use Tric.forests";
  Shard.forest t.shards.(0)

type stats = {
  queries : int;
  shards : int;
  tries : int;
  trie_nodes : int;
  base_views : int;
  view_tuples : int;
  index_rebuilds : int;
  removals : int;
  noop_removals : int;
  tuples_removed : int;
  invalidations_avoided : int;
  delta_probes : int;
  batches : int;
  batched_updates : int;
  batch_cancelled : int;
  batch_net_applied : int;
  ops_routed : int;
  ops_dispatched : int;
  shard_ops : int array;
}

let stats (t : t) =
  let fold_forests f init =
    Array.fold_left (fun acc sh -> f (Shard.forest sh) acc) init t.shards
  in
  let view_tuples, rebuilds, delta_probes =
    fold_forests
      (fun forest acc ->
        Trie.fold_nodes
          (fun n (tuples, rb, dp) ->
            ( tuples + Relation.cardinality (Trie.node_view n),
              rb + Relation.stats_rebuilds (Trie.node_view n),
              dp + Relation.stats_delta_probes (Trie.node_view n) ))
          forest acc)
      (0, 0, 0)
  in
  {
    queries = num_queries t;
    shards = t.nshards;
    tries = fold_forests (fun f acc -> acc + Trie.num_tries f) 0;
    trie_nodes = fold_forests (fun f acc -> acc + Trie.num_nodes f) 0;
    base_views = fold_forests (fun f acc -> acc + Trie.num_base_views f) 0;
    view_tuples;
    index_rebuilds = rebuilds;
    removals = t.removals;
    noop_removals = t.noop_removals;
    tuples_removed = t.tuples_removed;
    invalidations_avoided = t.invalidations_avoided;
    delta_probes;
    batches = t.batches;
    batched_updates = t.batched_updates;
    batch_cancelled = t.batch_cancelled;
    batch_net_applied = t.batch_net_applied;
    ops_routed = t.ops_routed;
    ops_dispatched = Array.fold_left ( + ) 0 t.shard_ops;
    shard_ops = Array.copy t.shard_ops;
  }

(* Per-shard packed-memory triples, ascending shard id — the [mem] block
   of [tric_cli stats].  Reading shard arenas is safe here: the
   coordinator API is single-threaded and runs strictly between pool
   barriers. *)
let mem_stats (t : t) = Array.map Shard.mem_stats t.shards

let pp_stats fmt s =
  Format.fprintf fmt
    "queries=%d shards=%d tries=%d nodes=%d base_views=%d view_tuples=%d rebuilds=%d \
     removals=%d noop_removals=%d tuples_removed=%d invalidations_avoided=%d \
     delta_probes=%d batches=%d batched_updates=%d batch_cancelled=%d \
     batch_net_applied=%d ops_routed=%d ops_dispatched=%d"
    s.queries s.shards s.tries s.trie_nodes s.base_views s.view_tuples s.index_rebuilds
    s.removals s.noop_removals s.tuples_removed s.invalidations_avoided s.delta_probes
    s.batches s.batched_updates s.batch_cancelled s.batch_net_applied s.ops_routed
    s.ops_dispatched

(* -- Audit access ----------------------------------------------------------- *)

type query_view = {
  qv_pattern : Pattern.t;
  qv_paths : Path.t array;
  qv_path_vids : int array array;
  qv_path_shards : int array;
  qv_terminals : Trie.node array;
  qv_width : int;
}

let query_views (t : t) =
  Hashtbl.fold
    (fun qid info acc ->
      ( qid,
        {
          qv_pattern = info.pattern;
          qv_paths = info.paths;
          qv_path_vids = info.path_vids;
          qv_path_shards = info.path_shards;
          qv_terminals = info.terminals;
          qv_width = info.width;
        } )
      :: acc)
    t.queries []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let is_caching (t : t) = t.cache

let route_bits (t : t) = Route.fold (fun k mask acc -> (k, mask) :: acc) t.route []

(* -- Test-only corruption hooks --------------------------------------------- *)

module Corrupt = struct
  let first_query (t : t) =
    Hashtbl.fold
      (fun qid info acc ->
        match acc with Some (q, _) when q <= qid -> acc | _ -> Some (qid, info))
      t.queries None

  let desync_stats (t : t) = t.tuples_removed <- t.tuples_removed + 1

  let drop_registration t =
    match first_query t with
    | None -> false
    | Some (qid, info) ->
      Array.length info.terminals > 0
      &&
      (Trie.deregister info.terminals.(0) ~qid;
       true)

  let phantom_view_tuple (t : t) =
    (* Any node will do: terminal views are read in place, so a phantom
       anywhere trips exactly the view-coherence invariant. *)
    let pick =
      Array.to_list t.shards
      |> List.find_map (fun sh -> List.nth_opt (Trie.roots (Shard.forest sh)) 0)
    in
    match pick with
    | None -> false
    | Some node ->
      let width = Trie.node_depth node + 2 in
      let tu =
        Tuple.make (Array.init width (fun _ -> Label.fresh "corrupt"))
      in
      Relation.insert (Trie.node_view node) tu

  let drop_route_bit (t : t) =
    (* Clear the lowest bit of some registered key's mask: the dispatcher
       would now skip a shard whose forest does hold nodes for the key. *)
    let pick =
      Route.fold
        (fun k m acc -> match acc with None when m <> 0 -> Some (k, m) | _ -> acc)
        t.route None
    in
    match pick with
    | None -> false
    | Some (k, m) ->
      Route.set_bits t.route k (m land (m - 1));
      true

  let phantom_route_bit (t : t) =
    (* Set a bit for a shard holding no node for the key: the dispatcher
       would now pay a provably dead task for every matching op. *)
    let full = (1 lsl t.nshards) - 1 in
    let pick =
      Route.fold
        (fun k m acc ->
          match acc with None when m <> 0 && m <> full -> Some (k, m) | _ -> acc)
        t.route None
    in
    match pick with
    | None -> false
    | Some (k, m) ->
      let s = ref 0 in
      while Route.mem_shard m !s do
        incr s
      done;
      Route.set_bits t.route k (m lor (1 lsl !s));
      true

  let misroute_path (t : t) =
    if t.nshards < 2 then false
    else
      match first_query t with
      | None -> false
      | Some (qid, info) ->
        if Array.length info.paths = 0 then false
        else begin
          match Path.keys info.pattern info.paths.(0) with
          | [] -> false
          | first :: _ as keys ->
            let right = Route.owner ~shards:t.nshards first in
            let wrong = (right + 1) mod t.nshards in
            ignore
              (Trie.insert_path (Shard.forest t.shards.(wrong)) keys ~qid
                 ~path_index:0);
            true
        end
end
