(* check: allow-file shard-escape — the auditor recomputes ground truth on the main domain, reading shard state only between batches *)
open Tric_graph
open Tric_query
open Tric_rel
module Trie = Tric_core.Trie
module Tric = Tric_core.Tric
module Route = Tric_core.Route
module Invidx = Tric_baselines.Invidx

type severity =
  | Error
  | Warning

type location =
  | Forest
  | Node of int
  | Base of Ekey.t
  | Query of int
  | Stats
  | Window

type finding = {
  severity : severity;
  location : location;
  invariant : string;
  detail : string;
}

let invariant_classes =
  [
    "trie-shape";
    "routing-coherence";
    "registration";
    "view-coherence";
    "base-coherence";
    "index-coherence";
    "arena-integrity";
    "stats";
    "window-coherence";
  ]

(* How many offending tuples/embeddings a diff finding quotes. *)
let sample_limit = 3

let samples pp xs =
  let shown = List.filteri (fun i _ -> i < sample_limit) xs in
  let ellipsis = if List.length xs > sample_limit then ", ..." else "" in
  Format.asprintf "%a%s"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f ", ") pp)
    shown ellipsis

(* -- Shared checks ---------------------------------------------------------- *)

(* Relation-internal invariants, re-homed under the given location. *)
let relation_audit ~report location rel =
  List.iter (fun (invariant, detail) -> report location invariant detail) (Relation.audit rel)

(* Set difference of an expected tuple stream against a live relation.
   [expect] is an iterator — the expectation is consumed tuple by tuple
   (deduplicated here), never materialized as a list, so certifying a
   large base view allocates one hash table, not a boxed copy of it. *)
let diff_view ~report ~location ~invariant ~what ~expect view =
  let exp_tbl = Tuple.Tbl.create (2 * Relation.cardinality view + 1) in
  expect (fun t -> Tuple.Tbl.replace exp_tbl t ());
  let missing =
    Tuple.Tbl.fold (fun t () acc -> if Relation.mem view t then acc else t :: acc) exp_tbl []
  in
  let extra =
    Relation.fold (fun t acc -> if Tuple.Tbl.mem exp_tbl t then acc else t :: acc) view []
  in
  if missing <> [] then
    report location invariant
      (Format.asprintf "%s: %d expected tuple(s) missing: %s" what (List.length missing)
         (samples Tuple.pp missing));
  if extra <> [] then
    report location invariant
      (Format.asprintf "%s: %d tuple(s) not re-derivable: %s" what (List.length extra)
         (samples Tuple.pp extra))

(* Expected base view contents for a key, streamed off the ground-truth
   edge set (duplicates are fine — {!diff_view} dedups). *)
let expected_base key edges f =
  List.iter (fun (e : Edge.t) -> if Ekey.matches key e then f (Tuple.of_edge e)) edges

let check_base_views ~report ~fold_base ?edges container =
  fold_base
    (fun key rel () ->
      if Relation.width rel <> 2 then
        report (Base key) "trie-shape"
          (Printf.sprintf "base view has width %d, expected 2" (Relation.width rel));
      relation_audit ~report (Base key) rel;
      match edges with
      | None -> ()
      | Some edges ->
        diff_view ~report ~location:(Base key) ~invariant:"base-coherence"
          ~what:"vs live edge set" ~expect:(expected_base key edges) rel)
    container ()

(* -- TRIC / TRIC+ ----------------------------------------------------------- *)

(* Probe function over a base view built with plain scans only — shares no
   code with the engine's join machinery. *)
let base_probe base =
  let tbl : Label.t list ref Label.Tbl.t =
    Label.Tbl.create (2 * Relation.cardinality base + 1)
  in
  Relation.iter
    (fun tu ->
      let src = Tuple.first tu and dst = Tuple.last tu in
      match Label.Tbl.find_opt tbl src with
      | Some cell -> cell := dst :: !cell
      | None -> Label.Tbl.add tbl src (ref [ dst ]))
    base;
  fun l -> match Label.Tbl.find_opt tbl l with Some cell -> !cell | None -> []

(* Walk one trie depth-first, re-deriving every node's expected view from
   the parent's expected view (not the parent's live view — independence)
   chained with the node key's base view.  Returns whether the subtree
   carries any registration. *)
let rec check_node ~report forest node ~depth ~parent_expected =
  let nid = Trie.node_id node in
  let view = Trie.node_view node in
  if Trie.node_depth node <> depth then
    report (Node nid) "trie-shape"
      (Printf.sprintf "node depth %d at root-path length %d" (Trie.node_depth node) depth);
  if Relation.width view <> depth + 2 then
    report (Node nid) "trie-shape"
      (Printf.sprintf "view width %d, expected %d" (Relation.width view) (depth + 2));
  relation_audit ~report (Node nid) view;
  let base_opt =
    match Trie.base_view forest (Trie.node_key node) with
    | None ->
      report (Node nid) "trie-shape"
        (Format.asprintf "node key %a has no base view" Ekey.pp (Trie.node_key node));
      None
    | Some base -> Some base
  in
  (* Derived expectations (depth >= 1) are join products and must be
     materialized for the recursion anyway; a root's expectation is its
     key's base view, streamed straight off the packed store — no boxed
     list per certification pass. *)
  let derived =
    match (base_opt, parent_expected) with
    | Some base, Some pexp ->
      let probe = base_probe base in
      Some
        (List.concat_map
           (fun ptu -> List.map (fun dst -> Tuple.extend ptu dst) (probe (Tuple.last ptu)))
           pexp)
    | _ -> None
  in
  let expect f =
    match (derived, base_opt, parent_expected) with
    | Some l, _, _ -> List.iter f l
    | None, Some base, None -> Relation.iter f base
    | None, _, _ -> ()
  in
  diff_view ~report ~location:(Node nid) ~invariant:"view-coherence"
    ~what:"vs naive chain join of base views" ~expect view;
  let children_registered =
    match Trie.node_children node with
    | [] -> false
    | children ->
      (* Only an inner node's expectation is reified, and only here. *)
      let expected =
        match derived with
        | Some l -> l
        | None ->
          let acc = ref [] in
          expect (fun t -> acc := t :: !acc);
          !acc
      in
      List.fold_left
        (fun acc child ->
          (match Trie.node_parent child with
          | Some p when Trie.node_id p = nid -> ()
          | _ ->
            report
              (Node (Trie.node_id child))
              "trie-shape" "child's parent link does not point back");
          check_node ~report forest child ~depth:(depth + 1)
            ~parent_expected:(Some expected)
          || acc)
        false children
  in
  children_registered || Trie.registrations node <> []

let check_registrations ~report t =
  let qviews = Tric.query_views t in
  (* Expected (qid, path_index) registrations per terminal node id — node
     ids are globally unique across shard forests, so one table spans the
     whole engine. *)
  let expected_at : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (qid, qv) ->
      Array.iteri
        (fun i term ->
          let nid = Trie.node_id term in
          match Hashtbl.find_opt expected_at nid with
          | Some cell -> cell := (qid, i) :: !cell
          | None -> Hashtbl.add expected_at nid (ref [ (qid, i) ]))
        qv.Tric.qv_terminals)
    qviews;
  Array.iter
    (fun forest ->
      Trie.fold_nodes
        (fun node () ->
          let nid = Trie.node_id node in
          let expected =
            match Hashtbl.find_opt expected_at nid with Some cell -> !cell | None -> []
          in
          let actual = Trie.registrations node in
          let mem (q, p) = List.exists (fun (q', p') -> q = q' && p = p') in
          List.iter
            (fun reg ->
              if not (mem reg actual) then
                report (Node nid) "registration"
                  (Printf.sprintf "missing registration (Q%d, P%d)" (fst reg) (snd reg)))
            expected;
          List.iter
            (fun reg ->
              if not (mem reg expected) then
                report (Node nid) "registration"
                  (Printf.sprintf "stale registration (Q%d, P%d)" (fst reg) (snd reg)))
            actual)
        forest ())
    (Tric.forests t)

let check_queries ~report t =
  List.iter
    (fun (qid, qv) ->
      let width = qv.Tric.qv_width in
      if width <> Pattern.num_vertices qv.Tric.qv_pattern then
        report (Query qid) "trie-shape"
          (Printf.sprintf "cached width %d, pattern has %d vertices" width
             (Pattern.num_vertices qv.Tric.qv_pattern));
      Array.iteri
        (fun i term ->
          (* The terminal's root-path key chain must spell the covering
             path's key word. *)
          let word = Path.keys qv.Tric.qv_pattern qv.Tric.qv_paths.(i) in
          let chain =
            let rec up n acc =
              let acc = Trie.node_key n :: acc in
              match Trie.node_parent n with None -> acc | Some p -> up p acc
            in
            up term []
          in
          if
            List.length chain <> List.length word
            || not (List.for_all2 Ekey.equal chain word)
          then
            report (Query qid) "trie-shape"
              (Printf.sprintf "path %d: terminal node %d key chain differs from path word"
                 i (Trie.node_id term));
          (* The shard recorded for the path must be the router's verdict
             for the word's first key.  An empty key word is unroutable —
             no base view could ever feed the path — and the engine
             rejects it at registration, so finding one here means the
             query state was corrupted after the fact. *)
          (match word with
          | [] ->
            report (Query qid) "routing-coherence"
              (Printf.sprintf "path %d: empty key word — no routable placement" i)
          | first :: _ ->
            let owner = Route.owner ~shards:(Tric.num_shards t) first in
            if qv.Tric.qv_path_shards.(i) <> owner then
              report (Query qid) "routing-coherence"
                (Printf.sprintf "path %d: indexed on shard %d, router owner is %d" i
                   qv.Tric.qv_path_shards.(i) owner)))
        qv.Tric.qv_terminals)
    (Tric.query_views t)

(* Dispatch-bitmap coherence: recompute, from the forests, the exact
   per-key shard sets — bit [s] iff shard [s]'s forest holds a node keyed
   [k] — and demand the engine's routing bitmaps equal them both ways.
   A missing bit makes the dispatcher skip a shard whose views the op
   feeds (lost updates, silent divergence); a spurious bit only costs
   dead tasks, but still breaks the certified claim that dispatch =
   affected shards.  [insert_path] creates a node (and base view) for
   every key of a placed word and [remove_query] retains them, so exact
   equality — not one-sided containment — is the invariant. *)
let check_route_bitmaps ~report t =
  let expected = Ekey.Tbl.create 256 in
  Array.iteri
    (fun sid forest ->
      Trie.fold_nodes
        (fun node () ->
          let k = Trie.node_key node in
          let prev =
            match Ekey.Tbl.find_opt expected k with Some m -> m | None -> 0
          in
          Ekey.Tbl.replace expected k (prev lor (1 lsl sid)))
        forest ())
    (Tric.forests t);
  List.iter
    (fun (k, mask) ->
      let exp =
        match Ekey.Tbl.find_opt expected k with Some m -> m | None -> 0
      in
      if mask <> exp then
        report (Base k) "routing-coherence"
          (Format.asprintf
             "dispatch mask for %a is %d, forests hold nodes on mask %d" Ekey.pp k
             mask exp);
      Ekey.Tbl.remove expected k)
    (Tric.route_bits t);
  Ekey.Tbl.iter
    (fun k exp ->
      report (Base k) "routing-coherence"
        (Format.asprintf
           "key %a has nodes on shard mask %d but no dispatch-table entry" Ekey.pp
           k exp))
    expected

let check_stats ~report t =
  let s = Tric.stats t in
  if s.Tric.noop_removals > s.Tric.removals then
    report Stats "stats"
      (Printf.sprintf "noop_removals %d exceeds removals %d" s.Tric.noop_removals
         s.Tric.removals);
  if s.Tric.batched_updates <> s.Tric.batch_net_applied + s.Tric.batch_cancelled then
    report Stats "stats"
      (Printf.sprintf "batched_updates %d <> net applied %d + cancelled %d"
         s.Tric.batched_updates s.Tric.batch_net_applied s.Tric.batch_cancelled);
  let node_removes =
    Array.fold_left
      (fun acc forest ->
        Trie.fold_nodes
          (fun n acc -> acc + Relation.stats_removes (Trie.node_view n))
          forest acc)
      0 (Tric.forests t)
  in
  if node_removes <> s.Tric.tuples_removed then
    report Stats "stats"
      (Printf.sprintf "view eviction sum %d <> tuples_removed %d" node_removes
         s.Tric.tuples_removed)

let check ?edges t =
  let out = ref [] in
  let add severity location invariant detail =
    out := { severity; location; invariant; detail } :: !out
  in
  let report location invariant detail = add Error location invariant detail in
  let shards = Tric.num_shards t in
  Array.iteri
    (fun sid forest ->
      List.iter
        (fun root ->
          (* Routing invariant: every trie lives on the shard its root key
             routes to — the precondition for shard-local propagation
             being the global propagation restricted to this forest. *)
          let owner = Route.owner ~shards (Trie.node_key root) in
          if owner <> sid then
            report
              (Node (Trie.node_id root))
              "routing-coherence"
              (Format.asprintf "trie rooted at %a sits on shard %d, router owner is %d"
                 Ekey.pp (Trie.node_key root) sid owner);
          let registered =
            check_node ~report forest root ~depth:0 ~parent_expected:None
          in
          if not registered then
            add Warning
              (Node (Trie.node_id root))
              "trie-shape" "orphan trie: no registration anywhere in subtree")
        (Trie.roots forest);
      check_base_views ~report ~fold_base:Trie.fold_base ?edges forest)
    (Tric.forests t);
  check_registrations ~report t;
  check_route_bitmaps ~report t;
  check_queries ~report t;
  check_stats ~report t;
  List.rev !out

(* -- INV / INC baselines ---------------------------------------------------- *)

let check_invidx ?edges i =
  let out = ref [] in
  let report location invariant detail =
    out := { severity = Error; location; invariant; detail } :: !out
  in
  check_base_views ~report ~fold_base:Invidx.fold_base ?edges i;
  (* Every key of every live query must own a base view. *)
  let have = Ekey.Tbl.create 64 in
  Invidx.fold_base (fun key _ () -> Ekey.Tbl.replace have key ()) i ();
  List.iter
    (fun (qid, keys) ->
      List.iter
        (fun key ->
          if not (Ekey.Tbl.mem have key) then
            report (Query qid) "registration"
              (Format.asprintf "query key %a has no base view" Ekey.pp key))
        keys)
    (Invidx.query_keys i);
  (match edges with
  | None -> ()
  | Some edges ->
    (* The duplicate-detection set must equal the live edge set. *)
    let live = Edge.Tbl.create (2 * List.length edges) in
    List.iter (fun e -> Edge.Tbl.replace live e ()) edges;
    let seen = Invidx.seen_edges i in
    List.iter
      (fun e ->
        if not (Edge.Tbl.mem live e) then begin
          report Forest "base-coherence"
            (Format.asprintf "seen set holds dead edge %a" Edge.pp e)
        end
        else Edge.Tbl.remove live e)
      seen;
    Edge.Tbl.iter
      (fun e () ->
        report Forest "base-coherence"
          (Format.asprintf "live edge %a missing from seen set" Edge.pp e))
      live);
  List.rev !out

(* -- Reporting -------------------------------------------------------------- *)

let errors findings = List.filter (fun f -> f.severity = Error) findings
let is_clean findings = errors findings = []

let pp_location fmt = function
  | Forest -> Format.pp_print_string fmt "forest"
  | Node nid -> Format.fprintf fmt "node#%d" nid
  | Base key -> Format.fprintf fmt "base[%a]" Ekey.pp key
  | Query qid -> Format.fprintf fmt "Q%d" qid
  | Stats -> Format.pp_print_string fmt "stats"
  | Window -> Format.pp_print_string fmt "window"

let pp_finding fmt f =
  Format.fprintf fmt "[%s] %s @ %a: %s"
    (match f.severity with Error -> "error" | Warning -> "warn")
    f.invariant pp_location f.location f.detail

let pp_report fmt findings =
  let errs = errors findings in
  let warns = List.filter (fun f -> f.severity = Warning) findings in
  Format.fprintf fmt "@[<v>";
  List.iter (fun f -> Format.fprintf fmt "%a@," pp_finding f) (errs @ warns);
  Format.fprintf fmt "%d error(s), %d warning(s)@]" (List.length errs)
    (List.length warns)
