(** Window specifications for continuous queries over unbounded streams.

    A window scopes a query's matches to recent stream history — by event
    time ([Time], span in seconds against {!Tric_graph.Update.ts}) or by
    arrival position ([Count], last [size] edge additions).  [Sliding]
    windows retain a moving suffix; [Tumbling] windows reset at span
    boundaries (an edge arriving at [ts] lives until the end of its
    span-aligned bucket).

    Surface syntax (the [WITHIN] clause of {!Parse.pattern}, and the
    [--window] engine default):
    {[
      spec ::= duration [shape]            (* time window  *)
             | int ["EVENTS"] [shape]      (* count window *)
      duration ::= int ('s'|'m'|'h'|'d')
      shape ::= "TUMBLING" | "SLIDING"     (* default SLIDING *)
    ]}
    e.g. ["1h"], ["90s TUMBLING"], ["1000 EVENTS"], ["500"]. *)

type shape =
  | Sliding
  | Tumbling

type t =
  | Time of { shape : shape; span : int }  (** span in seconds, > 0 *)
  | Count of { shape : shape; size : int }  (** last [size] additions, > 0 *)

val shape : t -> shape
val equal : t -> t -> bool

val deadline : t -> ts:int -> int
(** Expiry deadline of an edge stamped [ts] under a time window: the
    first watermark at which it must be evicted.  Sliding: [ts + span];
    tumbling: the end of [ts]'s span-aligned bucket.
    @raise Invalid_argument on a count window (positional expiry). *)

val duration_of_string : string -> int option
(** ["90s"]/["5m"]/["1h"]/["2d"] to seconds; bare numbers are rejected
    (they denote event counts). *)

val of_tokens : string list -> (t, string) result
(** Parse an already-tokenized spec (keywords case-insensitive). *)

val of_string : string -> (t, string) result
(** Parse a whitespace-separated spec string. *)

val to_string : t -> string
(** Render in surface syntax; [of_string (to_string s)] = [Ok s]. *)

val pp : Format.formatter -> t -> unit
