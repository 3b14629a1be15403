(** Engine registry: fresh instances of the paper's seven engines (and the
    oracle) by name. *)

val tric : ?cache:bool -> ?shards:int -> ?metrics:bool -> unit -> Matcher.t
(** [shards] (default 1) runs the trie engine sharded on a domain pool;
    remember {!Matcher.t.shutdown} when creating many.  [metrics]
    (default false) builds the telemetry registries and span recorder. *)

val inv : ?cache:bool -> ?metrics:bool -> unit -> Matcher.t
val inc : ?cache:bool -> ?metrics:bool -> unit -> Matcher.t
val graphdb : unit -> Matcher.t
val naive : unit -> Matcher.t

val iso : unit -> Matcher.t
(** Ablation engine: one isolated TRIC instance per query — the
    single-query evaluation paradigm of prior work ([15] in the paper),
    with no sharing of index structures or materialized views across
    queries.  Quantifies what multi-query clustering buys. *)

val tric_naive_cover : unit -> Matcher.t
(** Ablation engine: TRIC with the paper's literal (non-upstream-extended)
    covering-path extraction — fewer shared prefixes. *)

val windowed_spec :
  ?slack:int -> ?default:Tric_query.Wspec.t -> (unit -> Matcher.t) -> Matcher.t
(** The spec-aware window ({!Window.make}): queries are grouped by their
    [WITHIN] clause, each group running its own engine from the factory;
    [default] scopes queries without a clause (absent: they run
    unwindowed); [slack] is the watermark's allowed out-of-orderness in
    seconds (default 0).  The handle's name and {!Matcher.t.shards} are
    those of the factory's engines, with or without a [default]. *)

val by_name : ?shards:int -> ?metrics:bool -> string -> Matcher.t
(** "TRIC" | "TRIC+" | "INV" | "INV+" | "INC" | "INC+" | "GraphDB" |
    "NAIVE".  [shards] (default 1) applies to the trie engines only (the
    baselines are inherently sequential).  [metrics] (default false)
    applies to the trie and inverted-index engines.
    @raise Invalid_argument on anything else. *)

val paper_names : string list
(** The seven engines of the paper's evaluation, in its plotting order:
    TRIC, TRIC+, INV, INV+, INC, INC+, GraphDB. *)

val trie_names : string list
(** [["TRIC"; "TRIC+"]]. *)
