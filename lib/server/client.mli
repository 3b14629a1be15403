(** Minimal blocking client for tests, the CLI REPL and the bench.

    One socket, one incremental frame decoder; no background thread —
    callers interleave {!send} and {!recv} themselves. *)

type t

val connect : ?retries:int -> string -> t
(** Connect to a Unix-domain socket path, retrying [ENOENT] /
    [ECONNREFUSED] every 50 ms (default 100 tries ≈ 5 s) so callers can
    race server startup. *)

val send : t -> Wire.msg -> unit
(** Frame, encode and write the whole message (blocking). *)

val recv : ?timeout_s:float -> t -> Wire.msg option
(** Next message; [None] on timeout (no timeout = block forever).  The
    socket is always polled at least once, so [~timeout_s:0.] returns a
    message that has already arrived.
    @raise End_of_file when the server closed the connection.
    @raise Failure on a framing or decode error. *)

val recv_exn : ?timeout_s:float -> t -> Wire.msg
(** {!recv} that fails on timeout (default 10 s). *)

val hello : ?last_seen:int -> t -> string -> int * int * string
(** Send [Hello], wait for the [Welcome], return
    [(cursor, useq, reset)].  Discards any other messages that arrive
    first (e.g. notifications on a racing reconnect).
    @raise Failure if the server answers [Err]. *)

val fd : t -> Unix.file_descr

val close : t -> unit
