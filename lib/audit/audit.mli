(** Invariant-audit sanitizer for materialized engine state.

    The engines maintain their state aggressively incrementally: lazy
    prefix/hinge deletion indexes, downward eviction, net-op folded
    micro-batches.  That is exactly the regime
    where silent divergence between maintained state and ground truth
    creeps in.  This module certifies, at any point of a replay, that every
    materialized view and index equals what a from-scratch
    recomputation would produce — the sanitizer the shadow-audit harness
    ({!Tric_engine.Runner.run}'s [audit_every]), the
    [tric_cli audit] subcommand, and the QCheck postconditions run.

    The invariant lattice, from structure to accounting:

    - {b trie-shape}: node depth equals its root-path length, view widths
      are [depth + 2], parent/child links agree, every node key owns a base
      view, each query's terminal key chain spells exactly the covering
      path's key word, and the query width matches its pattern.
    - {b routing-coherence}: every trie sits on the shard
      {!Tric_core.Route.owner} assigns to its root key, each query path's
      recorded shard is the router's verdict for its word's first key
      (and no path has an empty, unroutable key word), and the dispatch
      bitmaps ({!Tric_core.Tric.route_bits}) equal — both ways — the
      per-key shard sets recomputed from the forests: every shard holding
      nodes for a key is in its mask (else targeted dispatch loses
      updates) and no mask names a shard without them (else it dispatches
      dead work).  Together these make shard-local propagation over
      targeted dispatch equal the global engine restricted to each
      shard.
    - {b registration}: terminals carry exactly the [(qid, path_index)]
      registrations of the live queries — none stale, none missing.
    - {b view-coherence}: every node's materialized relation equals the
      independent naive chain join of the base views along its root path
      (recomputed here with plain scans, sharing no code with the
      engine's delta propagation).
    - {b base-coherence}: with the live edge set supplied, every base view
      holds exactly the matching edges (and the INV/INC duplicate-detection
      set equals the edge set).
    - {b index-coherence}: every maintained index — the TRIC+ cached
      hash-join structures and the prefix/hinge deletion indexes of both
      cache modes — holds exactly the live tuples ({!Tric_rel.Relation.audit}).
    - {b arena-integrity}: the packed row arenas behind every relation are
      internally sound ({!Tric_rel.Rows.audit}): no live row sits on a
      freelist, no freelist entry is out of range or duplicated, no dead
      slot is stranded off the freelist, the live counter matches the
      liveness map, and no index bucket names a dead or out-of-range row.
    - {b stats}: accounting identities — per relation,
      [inserts - removes = cardinality]; across the engine, evicted-tuple
      sums and batch net-op counts must add up.
    - {b window-coherence} (emitted by {!Tric_engine.Window.audit}, not
      {!check}): no retained edge outlives its window — time-window
      deadlines never sit at or behind the watermark, count windows never
      exceed capacity — and the window retains no edge the stream has
      dropped; each group's inner engine is then certified against the
      window's own live edge set, so a lost expiry removal surfaces as a
      base-coherence divergence.

    Checks are pure observation: they never build indexes that are not
    already live and never mutate the engine. *)

open Tric_graph
open Tric_query

type severity =
  | Error  (** maintained state diverges from recomputation *)
  | Warning  (** hygiene: not a divergence, but worth surfacing *)

type location =
  | Forest  (** the trie forest as a whole *)
  | Node of int  (** a trie node, by {!Tric_core.Trie.node_id} *)
  | Base of Ekey.t  (** the base view of a generic edge key *)
  | Query of int  (** a live query, by id *)
  | Stats  (** engine-level accounting *)
  | Window  (** a window wrapper's retention state *)

type finding = {
  severity : severity;
  location : location;
  invariant : string;  (** one of {!invariant_classes} *)
  detail : string;
}

val invariant_classes : string list
(** The nine class identifiers, lattice order. *)

val check : ?edges:Edge.t list -> Tric_core.Tric.t -> finding list
(** Audit a TRIC/TRIC+ engine, sequential or sharded — every shard's
    forest is walked and certified independently (base views are
    replicated per shard, so ground truth applies to each), then the
    cross-shard layers (registrations, routing, stats)
    are checked over all forests at once.  [edges] is the ground-truth
    live edge set (the replayed stream's net additions); when supplied,
    base views are also certified against it, closing the chain "edge set
    → base views → node views" — the node views are the queries'
    results, which the final join reads in place. *)

val check_invidx : ?edges:Edge.t list -> Tric_baselines.Invidx.t -> finding list
(** Audit an INV/INV+/INC/INC+ baseline: base-view, index and accounting
    invariants (these engines materialize per-path joins on demand, so
    there is no node-view layer to certify). *)

val errors : finding list -> finding list
(** The [Error]-severity subset. *)

val is_clean : finding list -> bool
(** No [Error] findings ([Warning]s tolerated). *)

val pp_finding : Format.formatter -> finding -> unit
val pp_report : Format.formatter -> finding list -> unit
(** One finding per line, errors first. *)
