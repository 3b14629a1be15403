(* The in-process engine workloads: a fixed corpus in an order drawn from
   the run's seed, a closed loop of handle_update / handle_batch calls,
   repeated passes over the same input until the run's time is spent. *)

module W = Tric_workloads
module E = Tric_engine
module G = Tric_graph

type shape = {
  source : W.Dataset.source;
  edges : int;
  qdb : int;
  churn : int option;
      (** [Some w]: after the first [w] additions, each addition is
          followed by the removal of the edge added [w] earlier *)
  batch : int;  (** 1: one handle_update per update; else handle_batch windows *)
  cache : bool;  (** TRIC+ *)
  shards : int;
  window : bool;  (** event time, 1 h sliding default window, 600 s slack *)
  tail : float;  (** the tail percentile reported as latency_tail_ms *)
}

let now = Unix.gettimeofday
let window_spec = Tric_query.Wspec.Time { shape = Tric_query.Wspec.Sliding; span = 3600 }

(* -- Inputs ------------------------------------------------------------------ *)

type inputs = {
  queries : Tric_query.Pattern.t list;
  updates : G.Update.t array;
  calls : G.Update.t list array;  (** [updates] cut into windows of [batch] *)
}

let churn_updates w adds =
  let out = ref [] in
  Array.iteri
    (fun i u ->
      out := u :: !out;
      if i >= w then out := G.Update.remove (G.Update.edge adds.(i - w)) :: !out)
    adds;
  Array.of_list (List.rev !out)

(* The corpus — graph stream and query database — is generated from this
   fixed seed; the run's seed draws only the arrival order (or, for the
   event-time stream, the clock).  Planted query databases are
   heavy-tailed: over corpus seeds 1-10 the live state of one workload
   ranged 14M-30M words and its throughput 2x, which would swamp any
   useful bound.  Reordering keeps every run's total work comparable. *)
let corpus_seed = 7

(* Additions are shuffled within consecutive blocks of this many, so the
   stream keeps the generator's large-scale time order. *)
let block = 256

let reorder ~seed a =
  let a = Array.copy a in
  let rng = W.Rng.create seed in
  let n = Array.length a in
  let lo = ref 0 in
  while !lo < n do
    let len = min block (n - !lo) in
    let b = Array.sub a !lo len in
    W.Rng.shuffle rng b;
    Array.blit b 0 a !lo len;
    lo := !lo + len
  done;
  a

(* [smoke] shrinks every size forty-fold: the self-test's toy scale. *)
let make_inputs ~smoke shape ~seed =
  let scale n = if smoke then max 20 (n / 40) else n in
  let d =
    W.Dataset.make shape.source
      {
        W.Dataset.edges = scale shape.edges;
        qdb = scale shape.qdb;
        avg_len = 5;
        selectivity = 0.25;
        overlap = 0.35;
        seed = corpus_seed;
      }
  in
  let adds = Array.of_list (G.Stream.to_list d.W.Dataset.stream) in
  let updates =
    if shape.window then
      G.Stream.of_array adds
      |> W.Clock.stamp ~mean_gap:10.0 ~late_frac:0.1 ~late_max:1800 ~seed
      |> G.Stream.to_list |> Array.of_list
    else begin
      let adds = reorder ~seed adds in
      match shape.churn with Some w -> churn_updates (scale w) adds | None -> adds
    end
  in
  let n = Array.length updates in
  let calls =
    Array.init
      ((n + shape.batch - 1) / shape.batch)
      (fun k ->
        List.init (min shape.batch (n - (k * shape.batch))) (fun j ->
            updates.((k * shape.batch) + j)))
  in
  { queries = d.W.Dataset.queries; updates; calls }

(* The ground-truth live edge set after the whole stream. *)
let live_edges updates =
  let live = G.Edge.Tbl.create 4096 in
  Array.iter
    (fun u ->
      match u.G.Update.op with
      | G.Update.Add e -> G.Edge.Tbl.replace live e ()
      | G.Update.Remove e -> G.Edge.Tbl.remove live e)
    updates;
  G.Edge.Tbl.fold (fun e () acc -> e :: acc) live []

(* -- Engines ----------------------------------------------------------------- *)

(* [wrap] sees every TRIC engine the workload builds — the engine itself,
   or each inner engine the window's factory creates. *)
let make_engine shape ~metrics ~wrap =
  if shape.window then
    E.Engines.windowed_spec ~slack:600 ~default:window_spec (fun () ->
        wrap (E.Engines.tric ~cache:shape.cache ~metrics ()))
  else wrap (E.Engines.tric ~cache:shape.cache ~shards:shape.shards ~metrics ())

(* An engine whose calls open child spans of the innermost open span. *)
let traced_engine tr name (m : E.Matcher.t) =
  let id = Trace.intern tr name in
  let timed f x =
    let s = Trace.open_child tr id in
    Fun.protect ~finally:(fun () -> Trace.close tr s) (fun () -> f x)
  in
  { m with E.Matcher.handle_update = timed m.E.Matcher.handle_update;
           handle_batch = timed m.E.Matcher.handle_batch }

(* -- One pass ---------------------------------------------------------------- *)

type pass = {
  setup_s : float;
  lat : float array;  (** seconds per call *)
  updates : int;
  matches : int;
  retractions : int;
  failed : int;
  minor_words : float;
  major_collections : int;
}

let ingest_s p = Array.fold_left ( +. ) 0.0 p.lat

let timed_setup (m : E.Matcher.t) queries =
  let t0 = now () in
  List.iter m.E.Matcher.add_query queries;
  now () -. t0

(* One pass on a fresh engine.  Returns the pass, the engine and the TRIC
   engines doing the work; the caller reads and shuts the engines down
   and keeps only the pass, so passes never hold each other's state. *)
let run_pass ?tr shape inp =
  let trics = ref [] in
  let wrap m =
    let m =
      match tr with
      | Some tr when shape.window -> traced_engine tr "tric.call" m
      | Some _ | None -> m
    in
    trics := m :: !trics;
    m
  in
  Gc.full_major ();
  let m = make_engine shape ~metrics:(tr <> None) ~wrap in
  let setup_s =
    match tr with
    | None -> timed_setup m inp.queries
    | Some tr ->
      let id = Trace.intern tr "index.add_query" in
      let t0 = now () in
      List.iter
        (fun q ->
          let s = Trace.open_ tr id ~rid:(Tric_query.Pattern.id q) in
          m.E.Matcher.add_query q;
          Trace.close tr s)
        inp.queries;
      now () -. t0
  in
  let call =
    if shape.batch = 1 then fun i -> m.E.Matcher.handle_update inp.updates.(i)
    else fun i -> m.E.Matcher.handle_batch inp.calls.(i)
  in
  let n = if shape.batch = 1 then Array.length inp.updates else Array.length inp.calls in
  let lat = Array.make n 0.0 in
  let matches = ref 0 and retractions = ref 0 and failed = ref 0 in
  let tally r =
    matches := !matches + E.Report.total_matches r;
    retractions := !retractions + E.Report.total_retractions r
  in
  let gc0 = Gc.quick_stat () in
  (match tr with
  | None ->
    for i = 0 to n - 1 do
      let t = now () in
      (match call i with r -> tally r | exception _ -> incr failed);
      lat.(i) <- now () -. t
    done
  | Some tr ->
    let id = Trace.intern tr (if shape.window then "window.call" else "tric.call") in
    for i = 0 to n - 1 do
      let s = Trace.open_ tr id ~rid:i in
      (match call i with r -> tally r | exception _ -> incr failed);
      Trace.close tr s;
      lat.(i) <- Trace.duration tr s
    done);
  let gc1 = Gc.quick_stat () in
  ( {
      setup_s;
      lat;
      updates = Array.length inp.updates;
      matches = !matches;
      retractions = !retractions;
      failed = !failed;
      minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    },
    m,
    !trics )

(* -- Per-layer metrics ------------------------------------------------------- *)

(* Engine-level layer metrics of a traced pass: [trics] are the TRIC
   engines that did the work (created with metrics on), [call_s] the time
   spent inside their handle_update / handle_batch calls.  Shard busy
   time covers the pool tasks, the distributed final joins included, so
   the coordinator's own time is call - busy - gather. *)
let engine_layers ~tr ~(trics : E.Matcher.t list) ~call_s =
  let snaps = List.map (fun (m : E.Matcher.t) -> m.E.Matcher.metrics ()) trics in
  let stat k =
    List.fold_left
      (fun acc (m : E.Matcher.t) ->
        match List.assoc_opt k (m.E.Matcher.stats ()) with
        | Some v -> acc +. float_of_int v
        | None -> acc)
      0.0 trics
  in
  let sum = Outcome.snap_sum snaps and mean = Outcome.snap_mean snaps in
  let busy = List.fold_left (fun acc (m : E.Matcher.t) -> acc +. m.E.Matcher.busy_s ()) 0.0 trics in
  let gather = sum "tric_gather_seconds" and join = sum "tric_join_seconds" in
  let cap, live, free =
    List.fold_left
      (fun acc (m : E.Matcher.t) ->
        Array.fold_left
          (fun (c, l, f) (c', l', f') -> (c + c', l + l', f + f'))
          acc (m.E.Matcher.mem ()))
      (0, 0, 0) trics
  in
  let removals = stat "removals" in
  let pool_s = sum "pool_task_seconds" in
  [
    ("index.add_query_us", Trace.mean_us (Trace.durations tr "index.add_query"));
    ("trie.tries", stat "tries");
    ("trie.nodes", stat "trie_nodes");
    ("trie.base_views", stat "base_views");
    ("route.ops_routed", stat "ops_routed");
    ("route.fanout", Outcome.ratio (stat "ops_dispatched") (stat "ops_routed"));
    (* One histogram per trie level; absent levels add nothing. *)
    ( "shard.descend_s",
      List.fold_left ( +. ) 0.0
        (List.init 16 (fun l -> sum (Printf.sprintf "tric_descend_l%d_seconds" l))) );
    ("shard.node_visits", sum "tric_node_visits_total");
    ("shard.delta_fanout_mean", mean "tric_delta_fanout");
    ("shard.busy_s", busy);
    ("tric.call_s", call_s);
    ("tric.gather_s", gather);
    ("tric.join_s", join);
    ("tric.self_s", call_s -. busy -. gather);
    ("tric.join_fanout_mean", mean "tric_join_fanout");
    ("tric.fold_cancel_ratio", Outcome.ratio (stat "batch_cancelled") (stat "batched_updates"));
    ("tric.removals", removals);
    ("tric.noop_removal_ratio", Outcome.ratio (stat "noop_removals") removals);
    ( "tric.invalidations_avoided_per_removal",
      Outcome.ratio (stat "invalidations_avoided") removals );
    ("rel.view_inserts", sum "tric_view_inserts_total");
    ("rel.view_removes", sum "tric_view_removes_total");
    ("rel.index_rebuilds", stat "index_rebuilds");
    ("rel.delta_probes", stat "delta_probes");
    ("rel.arena_fill", Outcome.ratio (float_of_int live) (float_of_int cap));
    ("rel.freelist_rows", float_of_int free);
    ("pool.tasks", sum "pool_tasks_total");
    ("pool.task_s", pool_s);
    ("pool.parallelism", Outcome.ratio pool_s call_s);
    ("trace.spans", float_of_int (Trace.length tr));
    ("trace.self_sum_err_us", 1e6 *. Trace.self_sum_error tr);
  ]

(* -- A run ------------------------------------------------------------------- *)

let ups p = Outcome.ratio (float_of_int p.updates) (ingest_s p)

(* Every pass makes the same calls on a fresh engine, so call [i] does the
   same work in each; its fastest time over the passes is its time without
   the host's interruptions.  A call the host interrupts reads
   milliseconds slow in one pass but rarely in all, and such calls set a
   single pass's p99 on taxi-window.  Sorted ascending. *)
let fastest_calls passes =
  let mins = Array.copy (List.hd passes).lat in
  List.iter (fun p -> Array.iteri (fun i v -> if v < mins.(i) then mins.(i) <- v) p.lat) passes;
  Stat.sorted mins

(* Set-ups timed before each pass, outside the measured time.  Spread over
   the run, they sample its host phases: a burst of set-ups in one 100 ms
   read 4.5 ms each in one process and 7 ms in the next.  On two shards
   set-up times fall in two modes (about 5 and 8.5 ms) whose shares move
   with the host, so a run takes over a hundred of them. *)
let setups_per_pass = 6

(* Passes over the same input until [seconds] of measured time are spent
   (at least one).  Throughput is the best over the untraced passes: a
   shared host only ever slows a pass down (identical back-to-back passes
   differed by up to a third), so the least-disturbed pass is the most
   repeatable reading.  Latency percentiles are taken over each call's
   fastest time in the untraced passes ([fastest_calls]).  Set-up time is
   the median of every pass's set-up and [setups_per_pass] more before
   each pass.  With [trace], passes alternate untraced / traced, and the
   last traced pass supplies the per-layer metrics and the span file.  The
   engine of the first untraced pass gives the memory readout and the
   audit, both outside the measured time. *)
let run ~smoke ~seconds ~trace ~seed ~trace_path ~name shape =
  let t_gen = now () in
  let inp = make_inputs ~smoke shape ~seed in
  let t_gen = now () -. t_gen in
  let setups = ref [] in
  let setup () =
    Gc.full_major ();
    let m = make_engine shape ~metrics:false ~wrap:Fun.id in
    let s = timed_setup m inp.queries in
    m.E.Matcher.shutdown ();
    s
  in
  (* The first set-up of a process grows the heap; it is not kept. *)
  ignore (setup ());
  let plain = ref [] and traced = ref [] in
  let measured = ref 0.0 in
  let live_words = ref 0 and findings = ref [] and t_audit = ref 0.0 in
  let layers = ref [] in
  let more () = !measured < seconds || !plain = [] || (trace && !traced = []) in
  while more () do
    for _ = 1 to setups_per_pass do
      setups := setup () :: !setups
    done;
    let t0 = now () in
    if trace && List.length !traced < List.length !plain then begin
      let tr = Trace.create () in
      let p, m, trics = run_pass ~tr shape inp in
      measured := !measured +. (now () -. t0);
      traced := p :: !traced;
      let call_s = Trace.total (Trace.durations tr "tric.call") in
      let window_call_s = Trace.total (Trace.durations tr "window.call") in
      let stats = m.E.Matcher.stats () in
      let win k = float_of_int (Option.value ~default:0 (List.assoc_opt k stats)) in
      layers :=
        engine_layers ~tr ~trics ~call_s
        @ [
            ("window.self_s", if shape.window then window_call_s -. call_s else 0.0);
            ("window.expired_edges", win "win_expired_edges");
            ("window.expiry_waves", win "win_expiry_batches");
            ( "window.expired_per_wave",
              Outcome.ratio (win "win_expired_edges") (win "win_expiry_batches") );
            ("window.late_dropped", win "win_late_dropped");
            ("window.live_edges", win "win_live_edges");
          ];
      m.E.Matcher.shutdown ();
      Trace.write tr ~path:trace_path ~workload:name ~seed
    end
    else begin
      let p, m, _ = run_pass shape inp in
      measured := !measured +. (now () -. t0);
      if !plain = [] then begin
        let t = now () in
        live_words := m.E.Matcher.memory_words ();
        findings := m.E.Matcher.audit (Some (live_edges inp.updates));
        t_audit := now () -. t
      end;
      plain := p :: !plain;
      m.E.Matcher.shutdown ()
    end
  done;
  let all = !plain @ !traced in
  let first = List.hd all in
  let deterministic =
    List.for_all (fun p -> p.matches = first.matches && p.retractions = first.retractions) all
  in
  let clean = Tric_audit.Audit.is_clean !findings in
  let fastest = fastest_calls !plain in
  let plain_ups = Stat.best ups Float.max !plain in
  let updates = List.fold_left (fun acc p -> acc + p.updates) 0 !plain in
  let gc_layers =
    [
      ( "gc.minor_words_per_update",
        Outcome.ratio
          (List.fold_left (fun acc p -> acc +. p.minor_words) 0.0 !plain)
          (float_of_int updates) );
      ( "gc.major_collections",
        float_of_int (List.fold_left (fun acc p -> acc + p.major_collections) 0 !plain) );
      ( "bench.trace_overhead_pct",
        if !traced = [] then 0.0
        else 100.0 *. Outcome.ratio (plain_ups -. Stat.best ups Float.max !traced) plain_ups );
    ]
    (* Server layers and the open-loop generator: absent in process. *)
    @ List.map
        (fun n -> (n, 0.0))
        [
          "wire.decode_us"; "journal.append_us"; "server.engine_us"; "outbox.us"; "wire.encode_us";
          "server.residual_us"; "srv.frames_in"; "srv.frames_out"; "srv.notifications";
          "srv.outbox_hwm"; "srv.coalesced"; "srv.snapshots"; "srv.evictions";
          "bench.gen_late_max_ms";
        ]
  in
  let calls = Array.length first.lat in
  let notes =
    [
      Printf.sprintf "input: %d queries, %d updates in %d calls (batch %d), %d shard(s)"
        (List.length inp.queries) (Array.length inp.updates) calls shape.batch shape.shards;
      Printf.sprintf "passes: %d untraced, %d traced; %d matches, %d retractions per pass"
        (List.length !plain) (List.length !traced) first.matches first.retractions;
      Printf.sprintf "untraced pass throughputs (upd/s): %s"
        (String.concat " " (List.rev_map (fun p -> Printf.sprintf "%.0f" (ups p)) !plain));
      Printf.sprintf "untraced pass p%g latencies (ms), before taking each call's fastest: %s"
        shape.tail
        (String.concat " "
           (List.rev_map
              (fun p -> Printf.sprintf "%.3f" (1e3 *. Stat.percentile (Stat.sorted p.lat) shape.tail))
              !plain));
      Printf.sprintf "unmeasured: %.2f s generating inputs, %.2f s memory walk and audit" t_gen
        !t_audit;
      Printf.sprintf "audit: %s"
        (if clean then "clean"
         else Format.asprintf "%a" Tric_audit.Audit.pp_report !findings);
    ]
    @ (if deterministic then [] else [ "passes over the same input disagree" ])
    @
    match Stat.supported_tail calls with
    | Some p when p >= shape.tail -> []
    | Some _ | None ->
      [ Printf.sprintf "warning: %d calls per pass do not support p%g" calls shape.tail ]
  in
  {
    Outcome.correct = clean && deterministic;
    attempted = List.fold_left (fun acc p -> acc + p.updates) 0 all;
    failed = List.fold_left (fun acc p -> acc + p.failed) 0 all;
    e2e =
      [
        ("setup_s", Stat.median (Array.of_list (!setups @ List.map (fun p -> p.setup_s) all)));
        ("throughput_ups", plain_ups);
        ("latency_p50_ms", 1e3 *. Stat.percentile fastest 50.0);
        ("latency_tail_ms", 1e3 *. Stat.percentile fastest shape.tail);
        ("live_words", float_of_int !live_words);
      ];
    layers = (if trace then !layers @ gc_layers else []);
    notes;
  }
