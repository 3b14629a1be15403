(** Windowed evaluation: time- and count-based streaming semantics.

    Related work the paper discusses ([15], [28], [41]) evaluates
    continuous queries over a {e window} of recent updates rather than the
    whole history; the paper's §4.3 deletion support is exactly what makes
    windows exact instead of approximate.  This wrapper scopes each
    query's matches to its {!Tric_query.Wspec} window — the [WITHIN]
    clause — and turns expiry into ordinary engine removals:

    - Queries are grouped by window spec; each group owns a private inner
      engine built by the factory, so one window shape's expiry never
      disturbs another's.
    - Count windows ([N EVENTS]) retain the last [N] distinct edge
      additions (sliding) or reset every [N] additions (tumbling).
    - Time windows ([90s], [1h TUMBLING]...) retain edges by event time
      ({!Tric_graph.Update.ts}).  A {e watermark} — the maximum event time
      seen minus [slack] — drives expiry: every advance folds all newly
      expired edges into {b one} net-op removal batch per group
      ({!Matcher.t.handle_batch}, i.e. {!Tric_core.Tric.handle_batch} for
      trie engines), and the resulting retractions come back merged into
      the triggering update's {!Report.t}.  Additions older than the
      watermark are {e late}: dropped and counted, never half-applied.
    - A duplicate addition of a live edge {e refreshes} it (count: moves
      it to the newest position; time: extends its deadline); an explicit
      removal frees its slot immediately.

    So a query is satisfied iff its embedding lies entirely within its
    window — no false positives, and every match destroyed by the sliding
    edge of the window is retracted on the [retractions] channel. *)

open Tric_graph
open Tric_query
open Tric_rel

type t

val make : ?default:Wspec.t -> ?slack:int -> (unit -> Matcher.t) -> t
(** Spec-aware window over engines built on demand by the factory (one
    per distinct spec).  [default] applies to queries without a [WITHIN]
    clause (absent: such queries run unwindowed); [slack] (default 0,
    seconds) is the allowed out-of-orderness — the watermark trails the
    maximum event time by [slack].
    @raise Invalid_argument if [slack < 0]. *)

val add_query : t -> Pattern.t -> unit
(** Register a query with the group its {!Tric_query.Pattern.window}
    spec selects (creating the group — and its engine — on first use). *)

val remove_query : t -> int -> bool
val num_queries : t -> int

val spec_of : t -> int -> Wspec.t option option
(** [Some spec] for a registered query ([spec = None]: unwindowed group);
    [None] if the id is unknown. *)

val handle_update : t -> Update.t -> Report.t
(** Feed one update.  Expiry it causes — watermark advance past time
    deadlines, count-window overflow, tumbling resets — is applied to the
    affected groups' engines {e before} it as one removal batch each, and
    the expiry retractions are merged into the returned report.  A late
    addition (event time behind the watermark) is dropped, counted in
    {!late_dropped}, and reports {!Report.empty}.  Late {e removals}
    still apply — dropping them would desynchronize the window from the
    stream. *)

val handle_batch : t -> Update.t list -> Report.t
(** Process a window of updates as one unit: retention bookkeeping and
    the watermark advance update by update (so eviction interleaves at
    the right positions), then each group's engine runs a single net-op
    batch over its survivors and expiry removals.  Equivalent to
    sequential {!handle_update} replay up to in-batch cancellation. *)

val current_matches : t -> int -> Embedding.t list
(** The query's current result within its window.  @raise Not_found. *)

val live_edges : t -> int
(** Distinct live (retained) edges, summed over groups. *)

val watermark : t -> int option
(** The current event-time watermark; [None] until a time-windowed group
    has seen an update. *)

val late_dropped : t -> int
val expired_edges : t -> int

val expiry_batches : t -> int
(** Expiry waves applied as removal batches — [expired_edges /
    expiry_batches] is the amortization the bench reports. *)

val stats : t -> (string * int) list
(** Inner engine counters (key-wise sum across groups) plus the window's
    own [win_*] counters. *)

val audit : t -> Edge.t list option -> Tric_audit.Audit.finding list
(** The {b window-coherence} class plus the inner engines' own audits:
    no retained edge sits past its deadline or capacity; with the stream's
    ground-truth edges supplied, the window retains no dropped edge; and
    each group's engine is certified ({!Matcher.t.audit}) against the
    window's {e own} live edge set — so an expiry removal that never
    reached the engine surfaces as a base-coherence divergence. *)

val engine : t -> Matcher.t
(** The single group's engine.  @raise Invalid_argument when the window
    holds several groups. *)

val engines : t -> Matcher.t list
(** Every group's engine, in group-creation order. *)

val shutdown : t -> unit
(** Shut down every group's engine (idempotent). *)

(** Test-only corruption hook (window-coherence mutation test). *)
module Corrupt : sig
  val suppress_expiry : t -> unit
  (** Stop all expiry: retained edges outlive their deadlines/capacity,
      which {!audit} must flag.  Never call outside tests. *)
end
