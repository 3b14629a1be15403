(** The corpus-level checker: mutation-effect classification, domain-
    ownership and shard-escape rules, the footgun rules (polymorphic
    compare/hash/equality, [Obj.magic], catch-all handlers, module-level
    mutable state, missing interfaces), typed waiver filtering, and the
    fixture self-test. *)

(** Rule name -> one-line description, in reporting order. *)
val rules : (string * string) list

type outcome = {
  findings : Src.finding list;  (** sorted, post-waiver *)
  waivers : Src.waiver list;  (** every marker seen, with its used flag *)
}

(** Analyse an explicit corpus of [(path, contents)] sources.  Paths
    matter: the toplevel-mutable and missing-mli rules are lib/-scoped
    and module names derive from basenames.  [has_mli path] tells whether
    the [.ml] at [path] has a companion interface; it defaults to always
    true, so an in-memory corpus is never flagged missing-mli. *)
val analyze_sources : ?has_mli:(string -> bool) -> (string * string) list -> outcome

(** Read and analyse every [.ml] under the given directories, checking
    each for a companion [.mli] on disk. *)
val run_tree : string list -> outcome

(** Run the seeded-violation fixture corpus under [dir]; true iff every
    bad fixture trips exactly its rule, every good fixture is clean and
    every rule is covered. *)
val self_test : string -> bool
