(* Property-based tests (qcheck, registered as alcotest cases).

   The engines' shared claim — the same answers under the same semantics —
   is checked by one differential matrix: one generator ([gen_case]), one
   oracle stepper ([step]: the naive evaluator, with an explicit removal
   injected for every window expiry and late additions dropped) and one
   per-step checker ([run]),
   driven by the rows of [matrix]:

     row                                engines (@shards, b = batched)      window        churn
     <E> agrees with oracle ...         each paper engine @1                none          no
     TRIC/TRIC+ = oracle under ...      TRIC, TRIC+ @1                      none          yes
     baselines = oracle under ...       INV, INV+, INC, INC+, GraphDB       none          yes
     handle_batch = sequential ...      TRIC, TRIC+ @1 b                    none          yes
     sharded (1/2/4 domains) ...        TRIC @1/2/4, TRIC+ @2/4             none          yes
     sharded handle_batch ...           TRIC @1/2/4/8 b, TRIC+ @4 b         none          yes
     packed row-store ...               TRIC @1, TRIC+ @4, TRIC+ @1 b,      none, drain   yes
                                        TRIC @4 b
     window engine = suffix             TRIC @1                             6 EVENTS      yes
     windowed TRIC/TRIC+ ... (six)      TRIC @1, TRIC @1 b, TRIC+ @1,       8s, late      yes
                                        TRIC+ @4, TRIC+ @1 b, TRIC+ @4 b
     per-query WITHIN, no default       TRIC+ @2 (clause on each query)     8s, late      yes

   The checker asserts, for every engine of a row:
   - per-update engines: each report equals the oracle's, except when the
     trigger's own edge expired in the same wave (the window folds the
     remove+re-add the oracle reports verbatim); unwindowed TRIC/TRIC+
     dispatch each op to exactly the shards owning one of its edge's keys
     ([fanout]: no broadcast, no skipped owner);
   - batched engines: each batch report equals that of a 1-shard TRIC
     reference under the same window;
   - after every update (per-update) or barrier (batched): current
     matches equal the oracle's (its result summed from its own reports,
     checked against its recomputation at the end), the audit is clean against the live (or
     unexpired) edge set, the packed arenas' accounting is sane
     (live + free <= capacity), [shards] is the configured count, and
     TRIC and TRIC+ at the same shard count and mode hold equally many
     view tuples;
   - with [drain]: removing every live edge leaves zero live arena rows.

   [check_seeded] replays a fixed seeded input (the paper's chain, star and
   cycle shapes from [Helpers.random_pattern]) through the same stepper
   and checker, so a fixed-input floor survives QCheck's per-run seed.

   The remaining properties cover the building blocks: covering paths,
   relation set semantics, embedding merge, trie prefix sharing, edge-key
   generalisation and journal recovery. *)

open Tric_graph
open Tric_query
open Tric_rel
module E = Tric_engine

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

(* -- The generator ----------------------------------------------------------- *)

(* One case: up to [queries] (default 3) queries, a stream of up to
   [updates] (default 60) updates over a 3-label, 4-constant vocabulary
   (so removals of live edges, no-op removals of absent ones and re-adds
   all occur constantly), each with a time offset, and a micro-batch
   size.  [churn] draws removals; [timed] draws offsets: mostly a gap of
   up to 5 that advances the stream clock, one in five a lag of up to 6
   behind it — a late event once the watermark has passed it (else every
   event time is 0). *)
let gen_case ?(queries = 3) ?(updates = 60) ~churn ~timed () =
  QCheck2.Gen.(
    triple
      (list_size (int_range 1 queries) gen_pattern_spec)
      (list_size (int_range 1 updates)
         (pair
            (quad
               (if churn then bool else pure true)
               (int_bound (List.length elabels - 1))
               (int_bound (List.length vconsts - 1))
               (int_bound (List.length vconsts - 1)))
            (if timed then frequency [ (4, int_range 0 5); (1, int_range (-6) (-1)) ]
             else pure 0)))
      (int_range 1 10))

(* The connected patterns of a case, ids from 1. *)
let queries_of qspecs =
  List.mapi
    (fun i spec ->
      match build_pattern ~id:(i + 1) spec with
      | q when Pattern.is_connected q -> Some q
      | _ -> None
      | exception Invalid_argument _ -> None)
    qspecs
  |> List.filter_map Fun.id

(* A non-negative offset advances the clock; a negative one stamps the
   event that far behind it without moving it. *)
let updates_of ops =
  let clock = ref 0 in
  List.map
    (fun ((add, li, si, di), offset) ->
      if offset >= 0 then clock := !clock + offset;
      let ts = !clock + min offset 0 in
      let e =
        Edge.of_strings (List.nth elabels li) (List.nth vconsts si) (List.nth vconsts di)
      in
      if add then Update.add ~ts e else Update.remove ~ts e)
    ops

let print_case (qspecs, ops, batch) =
  Format.asprintf "queries=[%s] stream=[%a] batch=%d"
    (String.concat " | " (List.map Parse.pattern_to_string (queries_of qspecs)))
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f "; ") Update.pp)
    (updates_of ops) batch

(* -- The oracle stepper ------------------------------------------------------ *)

(* How a row scopes its queries: not at all, by the window's default spec,
   or by a WITHIN clause on every query (no default). *)
type window = Unbounded | Default of Wspec.t | Clause of Wspec.t

module Eset = Set.Make (Embedding)

type oracle = {
  naive : E.Naive.t;
  spec : Wspec.t option;  (* sliding count or time windows only *)
  live : int Edge.Tbl.t;  (* live edge -> time deadline, or arrival stamp *)
  mutable wm : int;  (* event-time watermark (no slack) *)
  mutable arrivals : int;
  current : (int, Eset.t) Hashtbl.t;
      (* qid -> current result, summed from the oracle's own reports and
         checked against its recomputation when a run ends *)
}

let current o qid = Option.value ~default:Eset.empty (Hashtbl.find_opt o.current qid)

(* One oracle update, its report folded into [current]. *)
let naive_update o u =
  let r = E.Naive.handle_update o.naive u in
  let fold f =
    List.iter (fun (qid, es) ->
        Hashtbl.replace o.current qid (List.fold_right f es (current o qid)))
  in
  fold Eset.remove r.E.Report.retractions;
  fold Eset.add r.E.Report.matches;
  r

(* The edges [u] expires, in the window's own order: time windows first
   advance the watermark; a sliding count window evicts its least
   recently arrived (or refreshed) edge when a new one overflows it. *)
let expiring o (u : Update.t) =
  match (o.spec, u.Update.op) with
  | Some (Wspec.Time _), _ ->
    o.wm <- max o.wm u.Update.ts;
    Edge.Tbl.fold (fun e d acc -> if d <= o.wm then e :: acc else acc) o.live []
  | Some (Wspec.Count { size; _ }), Update.Add e
    when (not (Edge.Tbl.mem o.live e)) && Edge.Tbl.length o.live >= size ->
    let oldest, _ =
      Edge.Tbl.fold
        (fun e a (best, b) -> if a < b then (Some e, a) else (best, b))
        o.live (None, max_int)
    in
    Option.to_list oldest
  | _ -> []

(* A time window drops an addition behind its watermark whole, exactly as
   [Window.is_late] (slack 0); removals are never late. *)
let is_late o (u : Update.t) =
  match o.spec with
  | Some (Wspec.Time _) -> Update.is_addition u && o.wm > min_int && u.Update.ts < o.wm
  | _ -> false

(* Replay one update, expiry removals first; returns the expired edges
   and the merged report. *)
let step o (u : Update.t) =
  if is_late o u then ([], E.Report.empty)
  else begin
    let expired = expiring o u in
    let retractions =
      List.map
        (fun e ->
          Edge.Tbl.remove o.live e;
          naive_update o (Update.remove e))
        expired
    in
    (match u.Update.op with
    | Update.Add e ->
      o.arrivals <- o.arrivals + 1;
      Edge.Tbl.replace o.live e
        (match o.spec with
        | Some (Wspec.Time _ as s) -> Wspec.deadline s ~ts:u.Update.ts
        | _ -> o.arrivals)
    | Update.Remove e -> Edge.Tbl.remove o.live e);
    let trigger = naive_update o u in
    (expired, E.Report.merge (retractions @ [ trigger ]))
  end

(* -- The checker ------------------------------------------------------------- *)

type engine = { name : string; shards : int; batched : bool }

let engine ?(shards = 1) ?(batched = false) name = { name; shards; batched }

let label e =
  Printf.sprintf "%s@%d%s" e.name e.shards (if e.batched then " batched" else "")

let build e window =
  let mk () = E.Engines.by_name ~shards:e.shards e.name in
  match window with
  | Unbounded -> mk ()
  | Default spec -> E.Engines.windowed_spec ~default:spec mk
  | Clause _ -> E.Engines.windowed_spec mk

(* Owner-targeted dispatch, modelled from the queries alone: each
   covering word's keys live on the shard its trie is placed on, so an
   op reaches exactly the shards owning a key of its edge. *)
let fanout ~shards queries =
  let masks = Ekey.Tbl.create 16 in
  let mask k = Option.value ~default:0 (Ekey.Tbl.find_opt masks k) in
  List.iter
    (fun q ->
      List.iter
        (fun p ->
          let word = Path.keys q p in
          let bit = 1 lsl Tric_core.Route.place ~shards word in
          List.iter (fun k -> Ekey.Tbl.replace masks k (bit lor mask k)) word)
        (Cover.extract q))
    queries;
  fun e ->
    Tric_core.Route.popcount
      (List.fold_left (fun m k -> m lor mask k) 0 (Ekey.keys_of_edge e))

let dispatched (m : E.Matcher.t) =
  Option.value ~default:0 (List.assoc_opt "ops_dispatched" (m.stats ()))

(* Fail naming the step [at] describes (built only on failure). *)
let fail at fmt = Format.kasprintf (fun s -> failwith (at () ^ ": " ^ s)) fmt

let rec chunks n = function
  | [] -> []
  | us ->
    let h = List.filteri (fun i _ -> i < n) us in
    h :: chunks n (List.filteri (fun i _ -> i >= n) us)

(* Replay [updates] over [queries] through the oracle and every engine,
   asserting the checks listed at the top of the file; raises [Failure]
   naming the first divergence. *)
let run ~engines ~window ~drain ~batch queries updates =
  let spec, queries =
    match window with
    | Unbounded -> (None, queries)
    | Default s -> (Some s, queries)
    | Clause s -> (Some s, List.map (fun q -> Pattern.with_window q (Some s)) queries)
  in
  let o =
    {
      naive = E.Naive.create ();
      spec;
      live = Edge.Tbl.create 64;
      wm = min_int;
      arrivals = 0;
      current = Hashtbl.create 8;
    }
  in
  let handles = List.map (fun e -> (e, build e window)) engines in
  let per_update = List.filter (fun (e, _) -> not e.batched) handles in
  let batched = List.filter (fun (e, _) -> e.batched) handles in
  let reference = if batched = [] then None else Some (build (engine "TRIC") window) in
  let all = Option.to_list reference @ List.map snd handles in
  let sorted m = List.sort_uniq Embedding.compare m in
  let owners = List.map (fun e -> (e.shards, fanout ~shards:e.shards queries)) engines in
  let check at = function
    | [] -> ()
    | hs ->
      let live = Edge.Tbl.fold (fun e _ acc -> e :: acc) o.live [] in
      let expected =
        List.map (fun q -> (Pattern.id q, Eset.elements (current o (Pattern.id q)))) queries
      in
      List.iter
        (fun (e, (m : E.Matcher.t)) ->
          List.iter
            (fun (qid, exp) ->
              let got = sorted (m.current_matches qid) in
              if not (List.equal Embedding.equal exp got) then
                fail at "%s: Q%d has %d current matches, oracle %d" (label e) qid
                  (List.length got) (List.length exp))
            expected;
          (match m.audit (Some live) with
          | [] -> ()
          | findings ->
            fail at "%s: audit: %a" (label e) Tric_audit.Audit.pp_report findings);
          if
            not
              (Array.for_all
                 (fun (cap, rows, free) -> rows >= 0 && free >= 0 && rows + free <= cap)
                 (m.mem ()))
          then fail at "%s: arena accounting exceeds capacity" (label e);
          if m.shards <> e.shards then fail at "%s: reports %d shards" (label e) m.shards)
        hs;
      (* The two cache modes share one trie: equal view cardinalities. *)
      let views (m : E.Matcher.t) = List.assoc_opt "view_tuples" (m.stats ()) in
      List.iter
        (fun (e, m) ->
          List.iter
            (fun (e', m') ->
              if e.name = "TRIC" && e'.name = "TRIC+" && e.shards = e'.shards && views m <> views m'
              then fail at "%s and %s hold different view tuple counts" (label e) (label e'))
            hs)
        hs
  in
  let chunk i us =
    List.iteri
      (fun j u ->
        let at () = Format.asprintf "update #%d %a" (i + j) Update.pp u in
        let expired, expected = step o u in
        let collision = List.exists (Edge.equal (Update.edge u)) expired in
        List.iter
          (fun (e, (m : E.Matcher.t)) ->
            let targeted = window = Unbounded && List.mem e.name E.Engines.trie_names in
            let before = if targeted then dispatched m else 0 in
            let got = m.handle_update u in
            if not (collision || E.Report.equal expected got) then
              fail at "%s: report@.%a@.oracle@.%a" (label e) E.Report.pp
                (E.Report.normalise got) E.Report.pp (E.Report.normalise expected);
            let want = List.assoc e.shards owners (Update.edge u) in
            if targeted && dispatched m - before <> want then
              fail at "%s: dispatched to %d shards, owners %d" (label e) (dispatched m - before)
                want)
          per_update;
        check at per_update)
      us;
    match reference with
    | None -> ()
    | Some r ->
      let at () = Printf.sprintf "batch at update #%d" i in
      let expected = r.handle_batch us in
      List.iter
        (fun (e, (m : E.Matcher.t)) ->
          let got = m.handle_batch us in
          if not (E.Report.equal expected got) then
            fail at "%s: report@.%a@.1-shard TRIC@.%a" (label e) E.Report.pp
              (E.Report.normalise got) E.Report.pp (E.Report.normalise expected))
        batched;
      check at batched
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (m : E.Matcher.t) -> m.shutdown ()) all)
    (fun () ->
      List.iter
        (fun q ->
          E.Naive.add_query o.naive q;
          List.iter (fun (m : E.Matcher.t) -> m.add_query q) all)
        queries;
      List.iteri (fun k us -> chunk (k * batch) us) (chunks batch updates);
      List.iter
        (fun q ->
          let qid = Pattern.id q in
          let recomputed = sorted (E.Naive.current_matches o.naive qid) in
          if not (List.equal Embedding.equal (Eset.elements (current o qid)) recomputed) then
            fail (fun () -> "oracle") "Q%d: reports do not add up to the recomputed result" qid)
        queries;
      if drain then begin
        chunk (List.length updates)
          (Edge.Tbl.fold (fun e _ acc -> Update.remove e :: acc) o.live []);
        List.iter
          (fun (e, (m : E.Matcher.t)) ->
            if Array.exists (fun (_, rows, _) -> rows <> 0) (m.mem ()) then
              fail (fun () -> "drain") "%s: live arena rows remain" (label e))
          handles
      end)

type row = {
  row : string;
  count : int;
  queries : int;
  engines : engine list;
  window : window;
  churn : bool;
  drain : bool;
}

let row ?(queries = 3) ?(window = Unbounded) ?(churn = true) ?(drain = false) ~count row
    engines =
  { row; count; queries; engines; window; churn; drain }

let timed = Wspec.Time { shape = Wspec.Sliding; span = 8 }

let windowed ~count ~cache ~shards ~batched =
  let e = engine ~shards ~batched (if cache then "TRIC+" else "TRIC") in
  row ~window:(Default timed) ~count
    (Printf.sprintf "windowed %s (%d shard%s%s) = expiry-replaying oracle" e.name shards
       (if shards = 1 then "" else "s")
       (if batched then ", batched" else ""))
    [ e ]

let matrix =
  List.map
    (fun name ->
      row ~queries:4 ~churn:false ~count:40
        (Printf.sprintf "%s agrees with oracle on random streams" name)
        [ engine name ])
    E.Engines.paper_names
  @ [
      row ~count:30 "TRIC/TRIC+ = oracle under interleaved add/remove/re-add"
        [ engine "TRIC"; engine "TRIC+" ];
      row ~count:30 "baselines = oracle under interleaved add/remove/re-add"
        (List.map engine [ "INV"; "INV+"; "INC"; "INC+"; "GraphDB" ]);
      row ~count:30 "handle_batch = sequential handle_update (TRIC, TRIC+, oracle)"
        [ engine ~batched:true "TRIC"; engine ~batched:true "TRIC+" ];
      row ~count:25 "sharded (1/2/4 domains) = sequential TRIC/TRIC+ per update"
        [
          engine "TRIC";
          engine ~shards:2 "TRIC";
          engine ~shards:4 "TRIC";
          engine ~shards:2 "TRIC+";
          engine ~shards:4 "TRIC+";
        ];
      row ~count:25 "sharded handle_batch = sequential handle_batch (1/2/4/8 domains)"
        (List.map
           (fun (shards, name) -> engine ~shards ~batched:true name)
           [ (1, "TRIC"); (2, "TRIC"); (4, "TRIC"); (8, "TRIC"); (4, "TRIC+") ]);
      row ~drain:true ~count:20
        "packed row-store = boxed oracle (1/4 shards, add/remove + batch + drain)"
        [
          engine "TRIC";
          engine ~shards:4 "TRIC+";
          engine ~batched:true "TRIC+";
          engine ~shards:4 ~batched:true "TRIC";
        ];
      row ~count:60
        ~window:(Default (Wspec.Count { shape = Wspec.Sliding; size = 6 }))
        "window engine = evaluation over suffix" [ engine "TRIC" ];
      windowed ~count:20 ~cache:false ~shards:1 ~batched:false;
      windowed ~count:20 ~cache:false ~shards:1 ~batched:true;
      windowed ~count:20 ~cache:true ~shards:1 ~batched:false;
      windowed ~count:10 ~cache:true ~shards:4 ~batched:false;
      windowed ~count:20 ~cache:true ~shards:1 ~batched:true;
      windowed ~count:10 ~cache:true ~shards:4 ~batched:true;
      row ~window:(Clause timed) ~count:10
        "per-query WITHIN without a default (2 shards) = expiry-replaying oracle"
        [ engine ~shards:2 "TRIC+" ];
    ]

let prop_of_row r =
  let timed =
    match r.window with Default (Wspec.Time _) | Clause (Wspec.Time _) -> true | _ -> false
  in
  QCheck2.Test.make ~count:r.count ~print:print_case ~name:r.row
    (gen_case ~queries:r.queries ~churn:r.churn ~timed ())
    (fun (qspecs, ops, batch) ->
      let queries = queries_of qspecs in
      QCheck2.assume (queries <> []);
      run ~engines:r.engines ~window:r.window ~drain:r.drain ~batch queries (updates_of ops);
      true)

(* The fixed-input entry point: [queries] seeded patterns in the paper's
   query shapes and [updates] updates, each a removal of a random live
   edge with probability [churn] percent and otherwise an addition of a
   random edge, replayed per update through [run]. *)
let check_seeded ?(churn = 0) ~seed ~queries ~updates names () =
  let st = Helpers.rng seed in
  let queries =
    List.init queries (fun i ->
        Helpers.random_pattern st ~id:(i + 1) ~elabels:Helpers.elabels
          ~vconsts:Helpers.vconsts ~size:(1 + Random.State.int st 3))
  in
  let live = ref [] in
  let stream =
    List.init updates (fun _ ->
        if !live <> [] && Random.State.int st 100 < churn then begin
          let e = List.nth !live (Random.State.int st (List.length !live)) in
          live := List.filter (fun e' -> not (Edge.equal e e')) !live;
          Update.remove e
        end
        else begin
          let e = Helpers.random_edge st ~elabels:Helpers.elabels ~vconsts:Helpers.vconsts in
          live := e :: !live;
          Update.add e
        end)
  in
  run ~engines:(List.map engine names) ~window:Unbounded ~drain:false ~batch:1 queries stream

(* -- Building blocks ---------------------------------------------------------- *)

let prop_cover_covers strategy =
  QCheck2.Test.make ~count:300
    ~name:
      (Printf.sprintf "cover(%s) covers all vertices and edges"
         (match strategy with Cover.Upstream -> "upstream" | Cover.Naive -> "naive"))
    gen_pattern_spec
    (fun spec ->
      match build_pattern ~id:1 spec with
      | exception Invalid_argument _ -> QCheck2.assume_fail ()
      | q ->
        if not (Pattern.is_connected q) then QCheck2.assume_fail ()
        else Cover.covers q (Cover.extract ~strategy q))

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
      match build_pattern ~id:1 spec with
      | exception Invalid_argument _ -> QCheck2.assume_fail ()
      | q ->
        let paths = Cover.extract q in
        List.length paths <= Pattern.num_edges q
        && List.for_all (fun p -> Path.length p >= 1) paths)

let prop_journal_recovery =
  (* Whatever ran through a journal is fully reconstructable: the
     recovered engine has identical current matches for every query. *)
  QCheck2.Test.make ~count:25 ~print:print_case ~name:"journal recovery preserves engine state"
    (gen_case ~churn:false ~timed:false ())
    (fun (qspecs, ops, _) ->
      let queries = queries_of qspecs in
      QCheck2.assume (queries <> []);
      let path = Filename.temp_file "tric_prop_journal" ".log" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let j = E.Journal.open_ ~path (fun () -> E.Engines.tric ()) in
          List.iter (E.Journal.add_query j) queries;
          List.iter (fun u -> ignore (E.Journal.handle_update j u)) (updates_of ops);
          let live = E.Journal.engine j in
          E.Journal.close j;
          let j2 = E.Journal.open_ ~path (fun () -> E.Engines.tric ()) in
          let recovered = E.Journal.engine j2 in
          let ok =
            List.for_all
              (fun q ->
                let qid = Pattern.id q in
                List.equal Embedding.equal
                  (List.sort Embedding.compare (live.E.Matcher.current_matches qid))
                  (List.sort Embedding.compare (recovered.E.Matcher.current_matches qid)))
              queries
          in
          E.Journal.close j2;
          ok))

let suite =
  List.map QCheck_alcotest.to_alcotest
    ([ prop_cover_covers Cover.Upstream; prop_cover_covers Cover.Naive ]
    @ List.map prop_of_row matrix
    @ [
        prop_relation_set_semantics;
        prop_merge_commutative;
        prop_trie_sharing;
        prop_ekey_generalisation_sound_complete;
        prop_cover_path_count_bounded;
        prop_journal_recovery;
      ])
