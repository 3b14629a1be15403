(** Partial embeddings of a query graph pattern.

    An embedding assigns graph vertices (labels) to the pattern's vertex
    ids.  A {e total} embedding whose assignments are consistent with every
    pattern edge is a query answer (a matching subgraph).  Embeddings are
    immutable; extension returns a copy or [None] on a binding conflict —
    conflicts are exactly how repeated-variable constraints (e.g. the two
    occurrences of [?x] in a cycle's covering path) are enforced. *)

open Tric_graph

type t

val empty : int -> t
(** [empty width] — no vertex bound yet; [width] is the pattern's vertex
    count. *)

val width : t -> int
val get : t -> int -> Label.t option
val is_bound : t -> int -> bool
val is_total : t -> bool

val bind : t -> int -> Label.t -> t option
(** [None] if the vid is already bound to a different label. *)

val bind_tuple : t -> vids:int array -> Tuple.t -> t option
(** Bind positionally: [vids.(i) <- tuple.(i)].  Used to turn a chain-view
    tuple into (an extension of) an embedding.
    @raise Invalid_argument on length mismatch. *)

val of_tuple : width:int -> vids:int array -> Tuple.t -> t option
(** [bind_tuple (empty width)]. *)

val bind_packed : t -> vids:int array -> Rows.packed -> int -> t option
(** Bind positionally from the [i]-th row of a packed batch — the
    allocation-light counterpart of {!bind_tuple} (the arena already
    holds interned label ints).
    @raise Invalid_argument if [vids] does not match the batch width. *)

val of_packed : width:int -> vids:int array -> Rows.packed -> int -> t option
(** [bind_packed (empty width)]. *)

val bind_cells :
  t -> vids:int array -> ('r -> int -> int -> Label.t) -> 'r -> int -> t option
(** [bind_cells e ~vids cell src row] binds [vids.(c)] to [cell src row c]
    for every column [c] — a row of a materialized view, read in place
    through its owner's accessor.  A conflicting row allocates nothing. *)

val bound : t -> int -> Label.t
(** The label bound to a vid.  @raise Invalid_argument if unbound. *)

val merge : t -> t -> t option
(** Consistent union of two partial embeddings over the same pattern. *)

val bound_vids : t -> int list

(** Join keys: the projection of an embedding onto the shared vids as a
    raw int array, with a typed hash table — the join attribute of
    embedding hash joins, without string building. *)
module Key : sig
  type emb := t
  type t = private int array

  val of_embedding : emb -> int array -> t
  (** Projection onto the given vids (all must be bound). *)

  module Tbl : Hashtbl.S with type key = t
end

val equal : t -> t -> bool
val hash : t -> int
val compare : t -> t -> int
val to_alist : t -> (int * Label.t) list
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Tbl : Hashtbl.S with type key = t
