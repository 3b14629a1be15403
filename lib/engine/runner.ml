open Tric_graph

type result = {
  engine : string;
  total_updates : int;
  updates_processed : int;
  batch_size : int;
  batches : int;
  shards : int;
  timed_out : bool;
  index_time_s : float;
  answer_time_s : float;
  busy_s : float;
  shard_busy_s : float array;
  mean_ms : float;
  p50_ms : float;
  p90_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  latency_exact : bool;
  throughput_ups : float;
  matches : int;
  retractions : int;
  satisfied_queries : int;
  memory_words : int;
  checkpoints : (int * float) list;
  audits : int;
}

exception
  Audit_failure of {
    engine : string;
    update_index : int;
    findings : Tric_audit.Audit.finding list;
  }

let () =
  Printexc.register_printer (function
    | Audit_failure { engine; update_index; findings } ->
      Some
        (Format.asprintf
           "@[<v>AUDIT FAILURE: %s diverged from ground truth after update %d@,%a@]"
           engine update_index Tric_audit.Audit.pp_report findings)
    | _ -> None)

let log_src = Logs.Src.create "tric.runner" ~doc:"stream replay harness"

module Log = (val Logs.src_log log_src : Logs.LOG)

let now () = Unix.gettimeofday ()

let run ?(budget_s = infinity) ?(checkpoints = []) ?(measure_memory = true)
    ?(batch_size = 1) ?(audit_every = 0) ~engine ~queries ~stream () =
  if batch_size < 1 then invalid_arg "Runner.run: batch_size must be >= 1";
  let audit_every = max 0 audit_every in
  let t0 = now () in
  List.iter engine.Matcher.add_query queries;
  let index_time_s = now () -. t0 in
  (* Busy time is sampled as before/after deltas so a reused engine's
     earlier work is not charged to this run.  Wall clock (answer_time_s)
     and aggregate shard busy time are reported separately: a single
     timer around a parallel dispatch measures wall only, and quoting it
     as "work done" would overstate parallel speedup by the shard
     count. *)
  let busy0 = engine.Matcher.busy_s () in
  let shard_busy0 = engine.Matcher.shard_busy () in
  let total = Stream.length stream in
  (* Latency samples live in a fixed-allocation histogram instead of a
     retained per-call array: the exact buffer keeps the historical
     interpolated-percentile semantics for runs under [exact_cap] calls,
     and longer runs degrade to bucket interpolation instead of growing
     memory with the stream. *)
  let latencies =
    Tric_obs.Histogram.create ~buckets:96 ~lo:1e-4 ~growth:(sqrt 2.)
      ~exact_cap:8192 ()
  in
  let satisfied = Hashtbl.create 256 in
  let matches = ref 0 in
  let retractions = ref 0 in
  let processed = ref 0 in
  let calls = ref 0 in
  let answer_time = ref 0.0 in
  let timed_out = ref false in
  let cps = ref (List.sort Int.compare checkpoints) in
  let reached = ref [] in
  (* Shadow-audit state, all maintained outside the timed sections: the
     ground-truth live edge set, rebuilt update-by-update from the stream,
     and the updates-since-last-audit counter. *)
  let live_edges = Edge.Tbl.create (if audit_every > 0 then 4096 else 1) in
  let since_audit = ref 0 in
  let audits = ref 0 in
  let shadow_audit () =
    incr audits;
    let edges = Edge.Tbl.fold (fun e () acc -> e :: acc) live_edges [] in
    let findings = engine.Matcher.audit (Some edges) in
    if not (Tric_audit.Audit.is_clean findings) then
      raise
        (Audit_failure
           { engine = engine.Matcher.name; update_index = !processed; findings })
  in
  (try
     while !processed < total do
       if !answer_time > budget_s then begin
         timed_out := true;
         Log.info (fun m ->
             m "%s exceeded %.1fs budget after %d/%d updates" engine.Matcher.name
               budget_s !processed total);
         raise Exit
       end;
       let lo = !processed in
       let hi = min total (lo + batch_size) in
       let t = now () in
       let report =
         if batch_size = 1 then engine.Matcher.handle_update (Stream.get stream lo)
         else
           engine.Matcher.handle_batch
             (List.init (hi - lo) (fun j -> Stream.get stream (lo + j)))
       in
       let dt = now () -. t in
       Tric_obs.Histogram.observe latencies (dt *. 1000.0);
       incr calls;
       answer_time := !answer_time +. dt;
       processed := hi;
       List.iter
         (fun (qid, embs) ->
           Hashtbl.replace satisfied qid ();
           matches := !matches + List.length embs)
         report.Report.matches;
       retractions := !retractions + Report.total_retractions report;
       (* Drain every checkpoint this call satisfied — one call (a batch,
          or one update against duplicate checkpoints) can satisfy
          several; popping at most one left the rest stranded and figures
          rendered them as spurious timeout cells. *)
       let draining = ref true in
       while !draining do
         match !cps with
         | cp :: rest when !processed >= cp ->
           reached := (!processed, !answer_time) :: !reached;
           cps := rest
         | _ -> draining := false
       done;
       if audit_every > 0 then begin
         for j = lo to hi - 1 do
           match (Stream.get stream j).Update.op with
           | Update.Add e -> Edge.Tbl.replace live_edges e ()
           | Update.Remove e -> Edge.Tbl.remove live_edges e
         done;
         since_audit := !since_audit + (hi - lo);
         if !since_audit >= audit_every then begin
           since_audit := 0;
           shadow_audit ()
         end
       end
     done;
     (* Certify the final state even when the stream length is not a
        multiple of the audit period. *)
     if audit_every > 0 && !since_audit > 0 then shadow_audit ()
   with Exit -> ());
  let mean_ms =
    if !processed = 0 then 0.0 else !answer_time *. 1000.0 /. float_of_int !processed
  in
  let busy_s =
    let b = engine.Matcher.busy_s () -. busy0 in
    (* Engines without the notion report 0 busy seconds; their single
       thread was busy for exactly the answering wall time. *)
    if b > 0.0 then b else !answer_time
  in
  let shard_busy_s =
    let b1 = engine.Matcher.shard_busy () in
    if Array.length b1 = 0 then [||]
    else
      Array.mapi
        (fun i b -> b -. (if i < Array.length shard_busy0 then shard_busy0.(i) else 0.0))
        b1
  in
  {
    engine = engine.Matcher.name;
    total_updates = total;
    updates_processed = !processed;
    batch_size;
    batches = !calls;
    shards = engine.Matcher.shards;
    timed_out = !timed_out;
    index_time_s;
    answer_time_s = !answer_time;
    busy_s;
    shard_busy_s;
    mean_ms;
    p50_ms = Tric_obs.Histogram.percentile latencies 50.0;
    p90_ms = Tric_obs.Histogram.percentile latencies 90.0;
    p95_ms = Tric_obs.Histogram.percentile latencies 95.0;
    p99_ms = Tric_obs.Histogram.percentile latencies 99.0;
    max_ms = (if !calls = 0 then 0.0 else Tric_obs.Histogram.max_value latencies);
    latency_exact = Tric_obs.Histogram.is_exact latencies;
    throughput_ups =
      (if !answer_time > 0.0 then float_of_int !processed /. !answer_time else 0.0);
    matches = !matches;
    retractions = !retractions;
    satisfied_queries = Hashtbl.length satisfied;
    memory_words = (if measure_memory then engine.Matcher.memory_words () else 0);
    checkpoints = List.rev !reached;
    audits = !audits;
  }

let segment_means_ms r =
  let rec go prev_n prev_t = function
    | [] -> []
    | (n, t) :: tl ->
      let mean =
        if n > prev_n then (t -. prev_t) *. 1000.0 /. float_of_int (n - prev_n) else 0.0
      in
      (n, mean) :: go n t tl
  in
  go 0 0.0 r.checkpoints

let pp_result fmt r =
  Format.fprintf fmt
    "%-8s %7d/%d upd%s%s  index %.3fs  answer %.3fs%s  mean %.4f ms/upd  p95 %.4f  %.0f upd/s  matches %d%s (%d queries)  mem %dw"
    r.engine r.updates_processed r.total_updates
    (if r.timed_out then "*" else "")
    (if r.batch_size > 1 then Printf.sprintf " [batch %d]" r.batch_size else "")
    r.index_time_s r.answer_time_s
    (if r.shards > 1 then
       Printf.sprintf " (busy %.3fs over %d shards)" r.busy_s r.shards
     else "")
    r.mean_ms r.p95_ms r.throughput_ups r.matches
    (if r.retractions > 0 then Printf.sprintf " -%d" r.retractions else "")
    r.satisfied_queries r.memory_words
