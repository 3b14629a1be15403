(** Hash joins over sets of partial embeddings.

    The final phase of query answering (Fig. 8 lines 8–13) joins the
    per-covering-path results of a query into complete answers.  Each
    covering path contributes a list of partial embeddings all binding the
    same vid set; two path results join on their shared vids (the paper's
    "path intersections").

    Two forms: {!join}/{!join_many} over embedding lists (the baselines'
    per-path results), and {!join_views}, which joins a small delta
    against views read in place — the TRIC coordinator's final step,
    with no copy of any view. *)

val join : Embedding.t list -> Embedding.t list -> Embedding.t list
(** Hash join on the shared bound vids of the two sides (computed from
    their first elements; all embeddings of one side must bind the same
    vids).  With no shared vids this is the cartesian product.  Returns
    merged embeddings, deduplicated. *)

val join_many : Embedding.t list list -> Embedding.t list
(** Multi-way join.  Greedy order: start from the first non-empty list and
    repeatedly join the operand sharing the most vids with the accumulated
    binding set (ties by input order), falling back to a cartesian operand
    only when none shares.  Empty input list yields []. *)

val dedup : Embedding.t list -> Embedding.t list

val of_packed : width:int -> vids:int array -> Rows.packed list -> Embedding.t list
(** Lift packed row batches (shard deltas) straight into embeddings —
    rows whose repeated-variable constraints conflict are dropped, all
    without materializing boxed tuples. *)

(** {1 Joins against views in place} *)

type 'r view
(** One covering path's result: a materialized view of type ['r] — its
    live rows read in place through accessors its owner lends —
    optionally adjusted to an earlier state: rows that have since died
    added back ([plus]) and rows that have since arrived left out
    ([minus]). *)

val view :
  ?plus:Embedding.t list ->
  ?minus:unit Embedding.Tbl.t ->
  ?probe:('r -> col:int -> Tric_graph.Label.t -> Rows.Vec.t option) ->
  vids:int array ->
  size:int ->
  cell:('r -> int -> int -> Tric_graph.Label.t) ->
  iter:((int -> unit) -> 'r -> unit) ->
  'r ->
  'r view
(** Column [c] binds pattern vid [vids.(c)]; rows whose repeated-variable
    equalities conflict bind nothing.  [size] is the live row count,
    [cell src row c] reads one column, [iter f src] walks every live row
    id, and [probe src ~col l], when given, returns the rows holding [l]
    in [col] from a maintained index.  [plus] must bind exactly [vids]
    and be disjoint from the live rows; [minus] holds embeddings of live
    rows, checked only on join hits. *)

val join_views : Embedding.t list -> 'r view list -> Embedding.t list
(** [join_views acc views] joins [acc] (embeddings all binding the same
    vids) with every view, in {!join_many}'s greedy order (most shared
    vids, then fewer rows).  Each step keys on one shared column: a view
    with [probe] is probed per embedding (TRIC+'s cached hash-join
    structure); one without gets a table built on [acc] and a scan of
    its rows (TRIC).  Neither boxes a row.  No duplicates when [acc]
    has none. *)
