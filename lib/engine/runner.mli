(** Stream replay harness.

    Feeds a dataset (query set + update stream) through an engine,
    measuring query-insertion time and per-update answering latency, with
    a wall-clock budget that truncates runs the way the paper's 24-hour
    threshold truncates its slow baselines (the asterisks in Figs. 12–14).

    Replay is per-update by default; with [batch_size > 1] the stream is
    chopped into micro-batches handed to {!Matcher.t.handle_batch}, and
    the latency samples become per-batch. *)

open Tric_graph
open Tric_query

type result = {
  engine : string;
  total_updates : int;
  updates_processed : int;  (** < total when the budget ran out *)
  batch_size : int;  (** 1 = per-update replay *)
  batches : int;  (** dispatch calls made (= updates processed when 1) *)
  shards : int;  (** engine's parallel shard count (1 = sequential) *)
  timed_out : bool;
  index_time_s : float;  (** time to insert all queries *)
  answer_time_s : float;  (** total answering {e wall-clock} time *)
  busy_s : float;
      (** total {e work} time: per-shard task seconds summed over shards
          during this run.  For a sequential engine this equals
          [answer_time_s]; for a sharded one [busy_s / answer_time_s > 1]
          is the realised parallelism, and quoting wall time alone as
          "work" would overstate parallel speedup. *)
  shard_busy_s : float array;
      (** per-shard breakdown of [busy_s] ([[||]] for engines without
          shards) — skew here is routing imbalance *)
  mean_ms : float;  (** answering time per update, milliseconds *)
  p50_ms : float;  (** per dispatch call: per update, or per batch *)
  p90_ms : float;  (** per dispatch call *)
  p95_ms : float;  (** per dispatch call, interpolated between ranks *)
  p99_ms : float;  (** per dispatch call *)
  max_ms : float;  (** slowest dispatch call (true sample maximum) *)
  latency_exact : bool;
      (** [true] while every latency sample was still held exactly, i.e.
          the percentiles above used the historical rank interpolation;
          [false] means the run overflowed the histogram's exact buffer
          and they are bucket-interpolated
          ({!Tric_obs.Histogram.percentile}) *)
  throughput_ups : float;  (** updates answered per second *)
  matches : int;  (** total new embeddings reported *)
  retractions : int;
      (** total embeddings retracted — explicit removals and window
          expiry folded into the triggering update's report *)
  satisfied_queries : int;  (** distinct query ids satisfied at least once *)
  memory_words : int;  (** engine-reachable heap words after the run *)
  checkpoints : (int * float) list;
      (** (updates processed, cumulative answering seconds) at each
          requested checkpoint that was reached *)
  audits : int;  (** shadow audits performed (0 unless auditing was on) *)
}

exception
  Audit_failure of {
    engine : string;
    update_index : int;  (** updates processed when the audit tripped *)
    findings : Tric_audit.Audit.finding list;
  }
(** Raised by {!run} when a shadow audit finds maintained state diverging
    from ground truth — the replay analogue of a sanitizer abort: it names
    the first update count at which the divergence was observable, so
    [audit_every = 1] bisects to the offending update.  A printer is
    registered, so an uncaught failure pretty-prints the full report. *)

val run :
  ?budget_s:float ->
  ?checkpoints:int list ->
  ?measure_memory:bool ->
  ?batch_size:int ->
  ?audit_every:int ->
  engine:Matcher.t ->
  queries:Pattern.t list ->
  stream:Stream.t ->
  unit ->
  result
(** [budget_s] defaults to infinity; [checkpoints] (update counts, sorted
    ascending) default to none; [measure_memory] defaults to [true] (it
    walks the heap — disable inside tight sweeps); [batch_size] defaults
    to [1] (per-update replay through [handle_update]); every checkpoint
    satisfied by a dispatch call is recorded, so duplicate or
    batch-straddled checkpoints are never lost.

    [audit_every] turns on shadow auditing: every [n] updates (and once
    more at end of stream) the replay pauses — outside the timed sections,
    so latency and throughput numbers are unaffected — rebuilds the
    ground-truth live edge set from the stream prefix, and runs
    {!Matcher.t.audit} against it, raising {!Audit_failure} on the first
    unclean report.  Default 0: off.
    @raise Invalid_argument if [batch_size < 1]. *)

val segment_means_ms : result -> (int * float) list
(** Per-checkpoint-window mean answering time: for consecutive checkpoints
    [(n1,t1); (n2,t2); ...] returns [(n1, mean ms of updates 0..n1);
    (n2, mean ms of updates n1..n2); ...] — the series the paper's
    answering-time-vs-graph-size figures plot. *)

val pp_result : Format.formatter -> result -> unit
