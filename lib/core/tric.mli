(** TRIC — TRIe-based Clustering (§4), the paper's contribution.

    Indexing (Fig. 5): each query graph pattern is decomposed into covering
    paths ({!Tric_query.Cover}); the paths' generic key words are inserted
    into the shared trie forest ({!Trie}); the query id is registered at
    each terminal node.

    Answering (Figs. 8 and 10): an incoming update feeds the base views of
    its four generalised keys, then every trie node carrying one of those
    keys is visited shallow-first; the update is joined against the parent's
    materialized view and the resulting delta is propagated down the
    sub-trie (pruning branches whose delta dies out).  Queries registered at
    nodes that gained tuples are candidates; each path delta is joined
    against the other covering paths' terminal views, read in place, to
    produce the update's new embeddings.  The engine keeps no copy of any
    view outside the trie.

    [cache:true] gives TRIC+ (§4.2 "Caching"): hash-join build structures
    are kept and maintained incrementally instead of being rebuilt per join
    operation.

    [shards:n] partitions the trie forest across [n] {!Shard}s placed by
    {!Route.place} and dispatches each update only to the shards whose
    covering paths it can affect — the union of the {!Route.table}
    bitmaps of its four generalised keys, maintained at {!add_query}
    time — in parallel on a domain pool ({!Tric_exec.Pool}).  The
    coordinator gathers the per-shard terminal deltas in ascending shard
    order and runs the final per-query cross-path joins itself, after the
    barrier, reading the views on the shards that own them, so reports
    and maintained state are identical to the sequential ([shards:1])
    engine on any stream while per-op dispatch cost tracks {e affected}
    shards, not shard count. *)

open Tric_graph
open Tric_query
open Tric_rel

type t

val create :
  ?cache:bool -> ?strategy:Cover.strategy -> ?shards:int -> ?metrics:bool -> unit -> t
(** [cache] defaults to [false] (plain TRIC).  [strategy] is the covering-
    path extraction strategy, for ablation; default {!Cover.Upstream}.
    [shards] defaults to [1] (sequential, no pool); [n > 1] spawns a pool
    of [n - 1] worker domains — the coordinator's domain works too — that
    lives until {!shutdown} (or process exit).
    [metrics] (default false) builds the telemetry registries (one per
    shard plus the coordinator's) and the span recorder; with it off no
    instrument exists anywhere and the hot path pays a single branch.
    @raise Invalid_argument if [shards < 1]. *)

val shutdown : t -> unit
(** Join the engine's worker domains, if any.  Idempotent; a no-op for
    [shards = 1].  The engine must not be used afterwards.  Unreleased
    pools are reaped at process exit, but OCaml caps concurrently live
    domains, so anything creating many sharded engines (tests!) must
    shut each one down. *)

val num_shards : t -> int

val busy_s : t -> float
(** Total seconds pool tasks have spent executing — shard update tasks
    summed over shards, plus the coordinator's final cross-path joins
    (filed under shard 0) — the
    work-time counterpart to the caller's wall-clock measurement
    (busy/wall > 1 means the domains actually ran in parallel). *)

val busy_times : t -> float array
(** Per-shard busy seconds, index = shard id; shard 0's include the final
    joins. *)

val metrics_enabled : t -> bool

val metrics : t -> Tric_obs.Snapshot.t
(** Deterministic merged snapshot: the coordinator's registry plus every
    shard's, merged in fixed shard order with commutative ops — metrics
    flagged stable come out identical at any shard count for the same
    stream ({!Tric_obs.Snapshot.stable_only}).  {!Tric_obs.Snapshot.empty}
    when the engine was created without [metrics].  Must be called from
    the coordinator between updates (as all of this API). *)

val spans : t -> Tric_obs.Span.recorded list
(** The live window of update-journey traces (label ["add"], ["remove"]
    or ["batch"]; stages [scatter]/[shard<i>]/[gather]/[join]/
    [subtract]/[fold]), oldest first.  Empty without [metrics]. *)

val name : t -> string
(** ["TRIC"] or ["TRIC+"]. *)

val add_query : t -> Pattern.t -> unit
(** Index a query.  Its id ({!Pattern.id}) must be fresh.
    @raise Invalid_argument on a duplicate id. *)

val remove_query : t -> int -> bool
(** Deregister a query id.  Trie nodes and views shared with other
    queries are kept; branches that existed only for this query are
    pruned bottom-up ({!Trie.prune}) and the dispatch masks of every key
    whose node set shrank are rebuilt from the forests (cleared when no
    shard holds the key any more), so churny query DBs keep targeted
    dispatch instead of decaying toward broadcast.  Returns [false] if
    the id is unknown. *)

val num_queries : t -> int

val handle_update :
  t -> Update.t -> (int * Embedding.t list) list * (int * Embedding.t list) list
(** Process one stream update; returns [(matches, retractions)].  For an
    addition, [matches] lists, per satisfied query id (ascending), the
    new total embeddings created by this update ([retractions] is []).
    For a removal, all views are pruned by prefix-indexed downward
    propagation (§4.3); nothing else needs subtracting, and a no-op
    removal (absent edge) touches nothing.  [retractions] lists, per
    affected query id (ascending), the previously-live matches the
    removal destroyed: each dead per-path delta joined against the other
    paths' pre-removal views — the live view plus that path's dead delta
    ([matches] is []). *)

val handle_batch :
  t -> Update.t list -> (int * Embedding.t list) list * (int * Embedding.t list) list
(** Process a micro-batch of updates as one unit of work, equivalently to
    replaying them sequentially with {!handle_update} (same final
    materialized views, same {!current_matches} for every query —
    order-insensitive within the window).

    The batch is first folded to net ops: duplicates collapse and only an
    edge's final polarity in the window survives, so an
    [Add e; ...; Remove e] window cancels.  Net removals are applied
    first; net additions then run one amortised shallow-first trie sweep —
    the whole key delta joins against each affected node with a single
    hash-join build (and, for plain TRIC, a single parent-view scan) per
    node per batch — and the per-query final join runs once over the
    merged terminal deltas.

    Returns [(matches, retractions)]: per satisfied query id (ascending),
    the new embeddings the window created {e net of the window itself} —
    matches both created and destroyed inside the same batch are
    cancelled and never reported — and, per affected query id, the
    previously-live matches the window's net removals destroyed —
    computed once per batch from the union of the dead deltas against the
    pre-batch views (live view, less the window's added rows, plus the
    dead ones), so nothing is retracted twice. *)

val current_matches : t -> int -> Embedding.t list
(** Probe: the query's full current result, recomputed by joining its
    covering-path views.  @raise Not_found on unknown id. *)

val covering_paths : t -> int -> Path.t list
(** The covering paths the engine extracted for a query.
    @raise Not_found on unknown id. *)

val forest : t -> Trie.t
(** The trie forest of a sequential engine (inspection/tests).
    @raise Invalid_argument when [num_shards t > 1] — use {!forests}. *)

val forests : t -> Trie.t array
(** Every shard's trie forest, index = shard id ([shards = 1] gives a
    one-element array holding {!forest}). *)

type stats = {
  queries : int;
  shards : int;
  tries : int;
  trie_nodes : int;
  base_views : int;
  view_tuples : int;  (** total tuples across node views *)
  index_rebuilds : int;  (** ephemeral hash-join builds (0-ish for TRIC+) *)
  removals : int;  (** [Update.Remove]s processed *)
  noop_removals : int;  (** removals that evicted no tuple anywhere *)
  tuples_removed : int;  (** view tuples evicted by deletions *)
  invalidations_avoided : int;
      (** live queries whose terminals lost nothing to a removal (summed
          per removal) — the work the old global-epoch invalidation would
          have redone *)
  delta_probes : int;
      (** prefix/hinge index lookups serving the deletion path, each
          replacing a full-view scan *)
  batches : int;  (** {!handle_batch} calls *)
  batched_updates : int;  (** updates received through {!handle_batch} *)
  batch_cancelled : int;
      (** updates collapsed by in-window net-op folding (duplicates and
          add/remove pairs) *)
  batch_net_applied : int;
      (** net ops that survived the folding — the accounting identity
          [batched_updates = batch_net_applied + batch_cancelled] is one
          of the invariants {!Tric_audit.Audit.check} certifies *)
  ops_routed : int;
      (** net ops that went through targeted dispatch (one per
          {!handle_update}, one per net op of a {!handle_batch} window) *)
  ops_dispatched : int;
      (** (op, shard) dispatch pairs — [ops_dispatched / ops_routed] is
          the mean dispatch fanout, ≈ affected shards per op; a value near
          [shards] means broadcasting *)
  shard_ops : int array;
      (** per shard: net ops dispatched to it (sums to [ops_dispatched]) —
          an op touching only shard [k]'s keys bumps slot [k] alone *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

val mem_stats : t -> (int * int * int) array
(** Per shard, ascending id: summed [(arena capacity, live rows,
    freelist length)] over every relation the shard owns — the packed
    memory footprint surfaced as the [mem] block of [tric_cli stats]. *)

(** {2 Audit access}

    Read-only structural views for the invariant sanitizer
    ({!Tric_audit.Audit}): everything the engine maintains incrementally,
    exposed so an external checker can recompute it from first
    principles. *)

type query_view = {
  qv_pattern : Pattern.t;
  qv_paths : Path.t array;  (** covering paths, in extraction order *)
  qv_path_vids : int array array;  (** per path: chain vertex-id sequence *)
  qv_path_shards : int array;
      (** per path: the shard its trie lives on — must equal
          [Route.owner] of the path word's first key (routing-coherence) *)
  qv_terminals : Trie.node array;  (** per path: its trie terminal *)
  qv_width : int;  (** pattern vertex count *)
}

val query_views : t -> (int * query_view) list
(** Every live query with its maintained state, ascending by id. *)

val route_bits : t -> (Ekey.t * int) list
(** The dispatch table's (key, shard mask) entries, in no particular
    order — audit access.  Routing coherence demands each mask equal
    exactly the set of shards whose forest holds a node with that key:
    a missing bit loses updates, a spurious bit dispatches dead work. *)

val is_caching : t -> bool
(** [true] for TRIC+ (maintained hash-join indexes). *)

(** Test-only corruption hooks: each deliberately breaks exactly one
    invariant class so the mutation tests can prove the audit detects it.
    Never call these outside tests. *)
module Corrupt : sig
  val desync_stats : t -> unit
  (** Bump [tuples_removed] without removing anything (stats). *)

  val drop_registration : t -> bool
  (** Deregister some live query from its first terminal while keeping the
      query (registration).  [false] if no query is indexed. *)

  val phantom_view_tuple : t -> bool
  (** Insert an out-of-thin-air tuple into some node view, so the view is
      no longer re-derivable from the base views (view-coherence).
      [false] if the forest is empty. *)

  val misroute_path : t -> bool
  (** Re-index some query's first covering path on a shard other than its
      {!Route.owner}, planting a foreign-rooted trie there
      (routing-coherence; collaterally trips registration/base checks —
      assert membership, not exactness).  [false] unless [shards >= 2]
      and a query is indexed. *)

  val drop_route_bit : t -> bool
  (** Clear one bit of some key's dispatch mask, making the router skip a
      shard whose forest holds nodes for the key — the lost-update
      direction of routing-coherence.  [false] if no key is registered. *)

  val phantom_route_bit : t -> bool
  (** Set a dispatch bit for a shard holding no node for the key — the
      dead-work direction of routing-coherence.  [false] unless some
      key's mask has a clear bit ([shards >= 2] in practice). *)
end
