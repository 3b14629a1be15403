(* Command-line driver: list and run the paper's experiments, or run an
   interactive demo of the engines. *)

open Cmdliner
module H = Tric_harness
module Engine = Tric_engine
module W = Tric_workloads

let config scale budget seed =
  let base = H.Config.from_env () in
  {
    H.Config.scale = Option.value ~default:base.H.Config.scale scale;
    budget_s = Option.value ~default:base.H.Config.budget_s budget;
    seed = Option.value ~default:base.H.Config.seed seed;
  }

let scale_arg =
  Arg.(value & opt (some int) None & info [ "scale" ] ~docv:"N" ~doc:"Divide the paper's sizes by $(docv) (default 25, env TRIC_SCALE).")

let budget_arg =
  Arg.(value & opt (some float) None & info [ "budget" ] ~docv:"SECONDS" ~doc:"Wall-clock budget per engine run (default 10, env TRIC_BUDGET).")

let seed_arg =
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed (default 7, env TRIC_SEED).")

let list_cmd =
  let run () =
    let fmt = Format.std_formatter in
    Format.fprintf fmt "%-18s %-12s %s@." "id" "paper" "title";
    List.iter
      (fun (e : H.Figures.t) ->
        Format.fprintf fmt "%-18s %-12s %s@." e.H.Figures.id e.H.Figures.paper_ref
          e.H.Figures.title)
      H.Figures.all;
    Format.fprintf fmt "@.Run one with: tric_cli run <id>@."
  in
  Cmd.v (Cmd.info "list" ~doc:"List all reproducible experiments.") Term.(const run $ const ())

let run_cmd =
  let id_arg =
    Arg.(value & pos 0 string "all" & info [] ~docv:"ID" ~doc:"Experiment id (or 'all').")
  in
  let run id scale budget seed =
    let cfg = config scale budget seed in
    let fmt = Format.std_formatter in
    match id with
    | "all" ->
      H.Figures.run_all cfg fmt;
      `Ok ()
    | id -> (
      match H.Figures.find id with
      | Some e ->
        H.Figures.run_one cfg fmt e;
        `Ok ()
      | None -> `Error (false, Printf.sprintf "unknown experiment %S (see 'tric_cli list')" id))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one experiment (or all) and print the paper-style table.")
    Term.(ret (const run $ id_arg $ scale_arg $ budget_arg $ seed_arg))

let demo_cmd =
  let run seed =
    let seed = Option.value ~default:7 seed in
    let fmt = Format.std_formatter in
    let d =
      W.Dataset.make W.Dataset.Snb
        { W.Dataset.edges = 2_000; qdb = 50; avg_len = 4; selectivity = 0.3; overlap = 0.35; seed }
    in
    Format.fprintf fmt
      "Demo: %d continuous queries over a %d-update SNB-like stream, all engines.@.@."
      (List.length d.W.Dataset.queries)
      (Tric_graph.Stream.length d.W.Dataset.stream);
    List.iter
      (fun name ->
        let r =
          Engine.Runner.run ~budget_s:30.0 ~engine:(Engine.Engines.by_name name)
            ~queries:d.W.Dataset.queries ~stream:d.W.Dataset.stream ()
        in
        Format.fprintf fmt "%a@." Engine.Runner.pp_result r)
      Engine.Engines.paper_names
  in
  Cmd.v (Cmd.info "demo" ~doc:"Small end-to-end demo across all engines.")
    Term.(const run $ seed_arg)

let source_conv =
  let parse = function
    | "snb" | "SNB" -> Ok W.Dataset.Snb
    | "taxi" | "TAXI" -> Ok W.Dataset.Taxi
    | "biogrid" | "BioGRID" -> Ok W.Dataset.Biogrid
    | s -> Error (`Msg (Printf.sprintf "unknown source %S (snb|taxi|biogrid)" s))
  in
  let print fmt s = Format.pp_print_string fmt (W.Dataset.source_name s) in
  Arg.conv (parse, print)

let generate_cmd =
  let source_arg =
    Arg.(value & pos 0 source_conv W.Dataset.Snb & info [] ~docv:"SOURCE" ~doc:"snb, taxi or biogrid.")
  in
  let out_arg =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let edges_arg = Arg.(value & opt int 10_000 & info [ "edges" ] ~docv:"N" ~doc:"Stream size.") in
  let qdb_arg = Arg.(value & opt int 500 & info [ "qdb" ] ~docv:"N" ~doc:"Query-set size.") in
  let run source out edges qdb seed =
    let d =
      W.Dataset.make source
        {
          W.Dataset.edges;
          qdb;
          avg_len = 5;
          selectivity = 0.25;
          overlap = 0.35;
          seed = Option.value ~default:7 seed;
        }
    in
    W.Dataset.save d out;
    Format.printf "wrote %s: %d updates, %d queries@." out
      (Tric_graph.Stream.length d.W.Dataset.stream)
      (List.length d.W.Dataset.queries)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a benchmark dataset and save it to a file.")
    Term.(const run $ source_arg $ out_arg $ edges_arg $ qdb_arg $ seed_arg)

module Obs = Tric_obs

(* Runner numbers included in the metrics envelope alongside the engine's
   own instruments. *)
let runner_json (r : Engine.Runner.result) =
  let open Obs.Json in
  [
    ("total_updates", int r.Engine.Runner.total_updates);
    ("updates_processed", int r.updates_processed);
    ("batch_size", int r.batch_size);
    ("batches", int r.batches);
    ("shards", int r.shards);
    ("timed_out", Bool r.timed_out);
    ("index_time_s", Num r.index_time_s);
    ("answer_time_s", Num r.answer_time_s);
    ("busy_s", Num r.busy_s);
    ("mean_ms", Num r.mean_ms);
    ("p50_ms", Num r.p50_ms);
    ("p90_ms", Num r.p90_ms);
    ("p95_ms", Num r.p95_ms);
    ("p99_ms", Num r.p99_ms);
    ("max_ms", Num r.max_ms);
    ("latency_exact", Bool r.latency_exact);
    ("throughput_ups", Num r.throughput_ups);
    ("matches", int r.matches);
    ("retractions", int r.retractions);
    ("satisfied_queries", int r.satisfied_queries);
    ("audits", int r.audits);
  ]

let metrics_envelope (engine : Engine.Matcher.t) (r : Engine.Runner.result) =
  Obs.Snapshot.envelope ~engine:engine.Engine.Matcher.name ~runner:(runner_json r)
    ~mem:(engine.Engine.Matcher.mem ())
    ~spans:(Obs.Span.recorded_to_json (engine.Engine.Matcher.spans ()))
    (engine.Engine.Matcher.metrics ())

let write_metrics ~path (engine : Engine.Matcher.t) (r : Engine.Runner.result) =
  let doc = metrics_envelope engine r in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Obs.Json.to_string ~pretty:true doc))

let batch_arg =
  Arg.(value & opt int 1 & info [ "batch" ] ~docv:"N" ~doc:"Micro-batch size: hand the engine windows of $(docv) updates instead of one at a time (default 1).")

let shards_arg =
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc:"Shard the trie engines over $(docv) domains (default 1). Baselines are inherently sequential and ignore it.")

let window_arg =
  Arg.(value & opt (some string) None & info [ "window" ] ~docv:"SPEC" ~doc:"Wrap the engine in a streaming window and expire old edges with retractions. Queries with a WITHIN clause are windowed by it with or without this option. $(docv) is the default window for queries without a WITHIN clause: a bare integer is a count window in edges ('1000'), a duration is an event-time window ('90s', '15m', '1h'), with optional TUMBLING/SLIDING modifier ('1h TUMBLING').")

let parse_window = function
  | None -> Ok None
  | Some spec -> (
    match Tric_query.Wspec.of_string spec with
    | Ok w -> Ok (Some w)
    | Error msg -> Error (Printf.sprintf "--window: %s" msg))

(* The engine replay and audit run a dataset through: windowed when
   --window gives a default or when any loaded query carries its own
   WITHIN clause, which a bare engine would ignore. *)
let dataset_engine ~shards ~metrics ~window name (d : W.Dataset.t) =
  let mk () = Engine.Engines.by_name ~shards ~metrics name in
  if
    Option.is_some window
    || List.exists (fun q -> Option.is_some (Tric_query.Pattern.window q)) d.W.Dataset.queries
  then Engine.Engines.windowed_spec ?default:window mk
  else mk ()

let replay_cmd =
  let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Dataset file.") in
  let engine_arg =
    Arg.(value & opt string "TRIC+" & info [ "engine" ] ~docv:"NAME" ~doc:"Engine (TRIC, TRIC+, INV, INV+, INC, INC+, GraphDB, ISO).")
  in
  let metrics_out_arg =
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc:"Run with telemetry enabled and write the merged metrics snapshot, runner numbers and span traces to $(docv) as JSON (schema tric-metrics-v1).")
  in
  let run file engine_name budget batch shards window metrics_out =
    if batch < 1 then `Error (false, "--batch must be >= 1")
    else if shards < 1 then `Error (false, "--shards must be >= 1")
    else
      match parse_window window with
      | Error msg -> `Error (false, msg)
      | Ok window -> (
      let metrics = Option.is_some metrics_out in
      let d = W.Dataset.load file in
      match dataset_engine ~shards ~metrics ~window engine_name d with
      | exception Invalid_argument msg -> `Error (false, msg)
      | engine ->
        let r =
          Engine.Runner.run ?budget_s:budget ~batch_size:batch ~engine
            ~queries:d.W.Dataset.queries ~stream:d.W.Dataset.stream ()
        in
        (match metrics_out with
        | Some path -> write_metrics ~path engine r
        | None -> ());
        (* Owner-targeted dispatch health: mean shards per net op.  A
           value near the shard count means the router is broadcasting. *)
        let stat key =
          match
            List.find_opt
              (fun (k, _) -> String.equal k key)
              (engine.Engine.Matcher.stats ())
          with
          | Some (_, v) -> v
          | None -> 0
        in
        let routed = stat "ops_routed" in
        engine.Engine.Matcher.shutdown ();
        Format.printf "%a@." Engine.Runner.pp_result r;
        if engine.Engine.Matcher.shards > 1 && routed > 0 then
          Format.printf "dispatch: %d op(s) routed, mean fanout %.2f of %d shard(s)@."
            routed
            (float_of_int (stat "ops_dispatched") /. float_of_int routed)
            engine.Engine.Matcher.shards;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay a saved dataset through one engine and report timings.")
    Term.(
      ret
        (const run $ file_arg $ engine_arg $ budget_arg $ batch_arg $ shards_arg
       $ window_arg $ metrics_out_arg))

(* Interleave deterministic removals into an add-only stream: after every
   [1/churn] (rounded) applied additions, remove the oldest still-live
   edge.  Turns the generators' add-only datasets into the mixed
   add/remove replays the deletion machinery must survive. *)
let churn_stream churn stream =
  if churn <= 0.0 then stream
  else begin
    let period = max 1 (int_of_float (Float.round (1.0 /. churn))) in
    let q = Queue.create () in
    let live = Tric_graph.Edge.Tbl.create 4096 in
    let adds = ref 0 in
    let out = ref [] in
    let emit u = out := u :: !out in
    let pop_victim () =
      let victim = ref None in
      while !victim = None && not (Queue.is_empty q) do
        let e = Queue.pop q in
        if Tric_graph.Edge.Tbl.mem live e then victim := Some e
      done;
      !victim
    in
    Tric_graph.Stream.iter
      (fun u ->
        emit u;
        (match u.Tric_graph.Update.op with
        | Tric_graph.Update.Add e ->
          if not (Tric_graph.Edge.Tbl.mem live e) then begin
            Tric_graph.Edge.Tbl.replace live e ();
            Queue.push e q;
            incr adds
          end
        | Tric_graph.Update.Remove e -> Tric_graph.Edge.Tbl.remove live e);
        if !adds >= period then begin
          adds := 0;
          match pop_victim () with
          | Some e ->
            Tric_graph.Edge.Tbl.remove live e;
            emit (Tric_graph.Update.remove e)
          | None -> ()
        end)
      stream;
    Tric_graph.Stream.of_updates (List.rev !out)
  end

let audit_cmd =
  let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Dataset file.") in
  let engine_arg =
    Arg.(value & opt string "TRIC+" & info [ "engine" ] ~docv:"NAME" ~doc:"Engine (TRIC, TRIC+, INV, INV+, INC, INC+).")
  in
  let every_arg =
    Arg.(value & opt int 500 & info [ "every" ] ~docv:"N" ~doc:"Audit every $(docv) updates (default 500).")
  in
  let churn_arg =
    Arg.(value & opt float 0.0 & info [ "churn" ] ~docv:"F" ~doc:"Interleave one removal per 1/$(docv) additions (0 = replay the stream as saved), exercising the deletion paths under audit.")
  in
  let metrics_out_arg =
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc:"Run with telemetry enabled and, if the audit stays clean, write the metrics envelope to $(docv).")
  in
  let run file engine_name every churn batch shards window metrics_out =
    if batch < 1 then `Error (false, "--batch must be >= 1")
    else if every < 1 then `Error (false, "--every must be >= 1")
    else if churn < 0.0 || churn >= 1.0 then `Error (false, "--churn must be in [0, 1)")
    else if shards < 1 then `Error (false, "--shards must be >= 1")
    else
      match parse_window window with
      | Error msg -> `Error (false, msg)
      | Ok window -> (
      let metrics = Option.is_some metrics_out in
      let d = W.Dataset.load file in
      match dataset_engine ~shards ~metrics ~window engine_name d with
      | exception Invalid_argument msg -> `Error (false, msg)
      | engine -> (
        let stream = churn_stream churn d.W.Dataset.stream in
        match
          Engine.Runner.run ~batch_size:batch ~audit_every:every ~engine
            ~queries:d.W.Dataset.queries ~stream ()
        with
        | r ->
          (match metrics_out with
          | Some path -> write_metrics ~path engine r
          | None -> ());
          engine.Engine.Matcher.shutdown ();
          Format.printf "%a@.audit: %d shadow audit(s), all clean@."
            Engine.Runner.pp_result r r.Engine.Runner.audits;
          `Ok ()
        | exception Engine.Runner.Audit_failure f ->
          engine.Engine.Matcher.shutdown ();
          Format.eprintf
            "@[<v>AUDIT FAILURE: %s diverged from ground truth after update %d@,%a@]@."
            f.engine f.update_index Tric_audit.Audit.pp_report f.findings;
          `Error (false, "audit failed")))
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Replay a saved dataset under shadow auditing: every N updates the engine's materialized state (views, indexes, caches, stats) is certified against an independent recomputation from the live edge set; the first divergence aborts with a finding report.")
    Term.(
      ret
        (const run $ file_arg $ engine_arg $ every_arg $ churn_arg $ batch_arg
       $ shards_arg $ window_arg $ metrics_out_arg))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let stats_cmd =
  let file_arg =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Dataset file to replay (not needed with --check).")
  in
  let engine_arg =
    Arg.(value & opt string "TRIC+" & info [ "engine" ] ~docv:"NAME" ~doc:"Engine (TRIC, TRIC+, INV, INV+, INC, INC+).")
  in
  let format_arg =
    let fmt_conv = Arg.enum [ ("text", `Text); ("json", `Json); ("prometheus", `Prometheus) ] in
    Arg.(value & opt fmt_conv `Text & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text, json (the tric-metrics-v1 envelope) or prometheus (exposition text).")
  in
  let check_arg =
    Arg.(value & opt (some file) None & info [ "check" ] ~docv:"FILE" ~doc:"Parse a previously exported metrics JSON file, validate it against the tric-metrics-v1 envelope schema, and exit — no replay.")
  in
  let server_arg =
    Arg.(value & opt (some string) None & info [ "server" ] ~docv:"SOCKET" ~doc:"Query a running subscription server's live metrics over its Unix-domain socket instead of replaying a dataset.")
  in
  let run file engine_name budget batch shards format check server =
    match server with
    | Some sock -> (
      let c = Tric_server.Client.connect ~retries:1 sock in
      let fmt = match format with `Prometheus -> "prometheus" | `Json | `Text -> "json" in
      Tric_server.Client.send c (Tric_server.Wire.Stats { format = fmt });
      match Tric_server.Client.recv_exn c with
      | Tric_server.Wire.Stats_reply { body } ->
        print_endline body;
        Tric_server.Client.close c;
        `Ok ()
      | _ ->
        Tric_server.Client.close c;
        `Error (false, "unexpected reply from server")
      | exception Failure msg -> `Error (false, msg)
      | exception Unix.Unix_error (e, _, _) ->
        `Error (false, Printf.sprintf "%s: %s" sock (Unix.error_message e)))
    | None -> (
    match check with
    | Some path -> (
      match Obs.Json.parse (read_file path) with
      | Error msg -> `Error (false, Printf.sprintf "%s: JSON parse error: %s" path msg)
      | Ok doc -> (
        match Obs.Snapshot.validate doc with
        | Error msg -> `Error (false, Printf.sprintf "%s: invalid envelope: %s" path msg)
        | Ok n ->
          Format.printf "%s: valid %s envelope, %d metric(s)@." path
            Obs.Snapshot.schema_version n;
          `Ok ()))
    | None -> (
      match file with
      | None -> `Error (true, "a dataset FILE is required unless --check is given")
      | Some file ->
        if batch < 1 then `Error (false, "--batch must be >= 1")
        else if shards < 1 then `Error (false, "--shards must be >= 1")
        else (
          match Engine.Engines.by_name ~shards ~metrics:true engine_name with
          | exception Invalid_argument msg -> `Error (false, msg)
          | engine ->
            let d = W.Dataset.load file in
            let r =
              Engine.Runner.run ?budget_s:budget ~batch_size:batch ~engine
                ~queries:d.W.Dataset.queries ~stream:d.W.Dataset.stream ()
            in
            (match format with
            | `Text ->
              Format.printf "%a@.@.%a@." Engine.Runner.pp_result r Obs.Snapshot.pp
                (engine.Engine.Matcher.metrics ());
              let mem = engine.Engine.Matcher.mem () in
              if Array.length mem > 0 then begin
                Format.printf "@.mem (packed arenas per shard):@.";
                Array.iteri
                  (fun sid (cap, live, free) ->
                    Format.printf "  shard %d: arena_rows=%d live_rows=%d freelist=%d@."
                      sid cap live free)
                  mem
              end
            | `Json -> print_string (Obs.Json.to_string ~pretty:true (metrics_envelope engine r))
            | `Prometheus ->
              print_string (Obs.Snapshot.to_prometheus (engine.Engine.Matcher.metrics ())));
            engine.Engine.Matcher.shutdown ();
            `Ok ())))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Replay a dataset with telemetry enabled and print the merged metrics snapshot (text, JSON envelope, or Prometheus exposition); schema-check an exported metrics file with --check; or query a live server with --server.")
    Term.(
      ret
        (const run $ file_arg $ engine_arg $ budget_arg $ batch_arg $ shards_arg
       $ format_arg $ check_arg $ server_arg))

(* -- subscription server --------------------------------------------------- *)

module Srv = Tric_server

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let journal_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "journal" ] ~docv:"PATH"
          ~doc:"Write-ahead journal path (created if missing; recovered if not empty).")
  in
  let engine_arg =
    Arg.(value & opt string "TRIC+" & info [ "engine" ] ~docv:"NAME" ~doc:"Engine (TRIC, TRIC+, INV, INV+, INC, INC+).")
  in
  let shards_serve_arg =
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc:"Shard the trie engines over $(docv) domains (default 1).")
  in
  let snapshot_every_arg =
    Arg.(value & opt int 10_000 & info [ "snapshot-every" ] ~docv:"N" ~doc:"Take a compacting snapshot once the journal holds $(docv) records (default 10000; 0 disables).")
  in
  let soft_arg =
    Arg.(value & opt int 1024 & info [ "outbox-soft" ] ~docv:"N" ~doc:"Outbox depth where retraction/match coalescing starts (default 1024).")
  in
  let hard_arg =
    Arg.(value & opt int 4096 & info [ "outbox-hard" ] ~docv:"N" ~doc:"Outbox depth where the slow consumer is evicted (default 4096).")
  in
  let metrics_serve_arg =
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc:"Write the server's tric-metrics-v1 envelope to $(docv) at shutdown.")
  in
  let run socket journal engine_name shards snapshot_every soft hard metrics_out =
    if shards < 1 then `Error (false, "--shards must be >= 1")
    else if soft < 1 || hard < soft then
      `Error (false, "need 1 <= --outbox-soft <= --outbox-hard")
    else begin
      Logs.set_reporter (Logs.format_reporter ());
      Logs.set_level (Some Logs.Info);
      let cfg =
        {
          (Srv.Server.default_config ~sock_path:socket ~journal_path:journal) with
          Srv.Server.engine_name;
          shards;
          snapshot_every;
          outbox_soft = soft;
          outbox_hard = hard;
          metrics_out;
        }
      in
      match Srv.Server.create cfg with
      | exception Failure msg -> `Error (false, msg)
      | exception Invalid_argument msg -> `Error (false, msg)
      | t ->
        let stop _ = Srv.Server.request_stop t in
        Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
        Srv.Server.serve t;
        `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the subscription server: accept query registrations over a Unix-domain socket and stream match/retraction notifications to subscribers, with write-ahead journalling, compacting snapshots and exactly-once redelivery across crashes.")
    Term.(
      ret
        (const run $ socket_arg $ journal_arg $ engine_arg $ shards_serve_arg
       $ snapshot_every_arg $ soft_arg $ hard_arg $ metrics_serve_arg))

let emb_str (e : Srv.Wire.emb) =
  "{" ^ String.concat "," (List.map (fun (v, l) -> Printf.sprintf "%d=%s" v l) e) ^ "}"

let msg_str = function
  | Srv.Wire.Hello _ | Srv.Wire.Register _ | Srv.Wire.Unregister _ | Srv.Wire.Ack _
  | Srv.Wire.Publish _ | Srv.Wire.Stats _ | Srv.Wire.Quit ->
    "client-to-server message"
  | Srv.Wire.Welcome { cid; cursor; useq; reset } ->
    Printf.sprintf "welcome cid=%s cursor=%d useq=%d%s" cid cursor useq
      (if reset = "" then "" else " reset=" ^ reset)
  | Srv.Wire.Registered { qid } -> Printf.sprintf "registered qid=%d" qid
  | Srv.Wire.Unregistered { qid; existed } ->
    Printf.sprintf "unregistered qid=%d existed=%b" qid existed
  | Srv.Wire.Notify { useq; entries } ->
    let entry_str (en : Srv.Wire.entry) =
      Printf.sprintf "q%d%s%s" en.Srv.Wire.qid
        (String.concat "" (List.map (fun e -> " +" ^ emb_str e) en.Srv.Wire.matches))
        (String.concat "" (List.map (fun e -> " -" ^ emb_str e) en.Srv.Wire.retractions))
    in
    Printf.sprintf "notify useq=%d %s" useq (String.concat " | " (List.map entry_str entries))
  | Srv.Wire.Puback { pseq; useq } -> Printf.sprintf "puback pseq=%d useq=%d" pseq useq
  | Srv.Wire.Stats_reply { body } -> body
  | Srv.Wire.Bye { reason } -> "bye " ^ reason
  | Srv.Wire.Err { reason } -> "err " ^ reason

let client_cmd =
  let run socket =
    let c = Srv.Client.connect socket in
    let drain ?(timeout_s = 0.3) () =
      let rec go () =
        match Srv.Client.recv ~timeout_s c with
        | Some m ->
          print_endline (msg_str m);
          go ()
        | None -> ()
      in
      try go () with End_of_file -> print_endline "connection closed by server"
    in
    let split_first s =
      match String.index_opt s ' ' with
      | Some i ->
        ( String.sub s 0 i,
          String.trim (String.sub s (i + 1) (String.length s - i - 1)) )
      | None -> (s, "")
    in
    let rec loop pseq =
      match input_line stdin with
      | exception End_of_file -> ()
      | line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then loop pseq
        else begin
          let cmd, rest = split_first line in
          match cmd with
          | "hello" ->
            let cid, ls = split_first rest in
            let last_seen = match int_of_string_opt ls with Some n -> n | None -> -1 in
            Srv.Client.send c (Srv.Wire.Hello { cid; last_seen });
            drain ();
            loop pseq
          | "register" ->
            let name, pattern = split_first rest in
            Srv.Client.send c (Srv.Wire.Register { name; pattern });
            drain ();
            loop pseq
          | "unregister" -> (
            match int_of_string_opt rest with
            | Some qid ->
              Srv.Client.send c (Srv.Wire.Unregister { qid });
              drain ();
              loop pseq
            | None ->
              print_endline "usage: unregister <qid>";
              loop pseq)
          | "publish" ->
            Srv.Client.send c (Srv.Wire.Publish { pseq; update = rest });
            drain ();
            loop (pseq + 1)
          | "ack" -> (
            match int_of_string_opt rest with
            | Some useq ->
              Srv.Client.send c (Srv.Wire.Ack { useq });
              drain ();
              loop pseq
            | None ->
              print_endline "usage: ack <useq>";
              loop pseq)
          | "recv" ->
            let timeout_s =
              match float_of_string_opt rest with Some s -> s | None -> 1.0
            in
            drain ~timeout_s ();
            loop pseq
          | "stats" ->
            Srv.Client.send c (Srv.Wire.Stats { format = (if rest = "" then "json" else rest) });
            drain ~timeout_s:2.0 ();
            loop pseq
          | "quit" ->
            Srv.Client.send c Srv.Wire.Quit;
            drain ()
          | "exit" -> ()
          | _ ->
            print_endline
              "commands: hello <cid> [last_seen] | register <name> <pattern> | unregister <qid> | publish <update> | ack <useq> | recv [timeout] | stats [json|prometheus] | quit | exit";
            loop pseq
        end
    in
    (try loop 1 with End_of_file -> print_endline "connection closed by server");
    Srv.Client.close c;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Line-protocol test client for the subscription server: type commands on stdin (hello, register, publish, ack, recv, stats, quit), see server messages as lines on stdout.")
    Term.(ret (const run $ socket_arg))

let main =
  Cmd.group
    (Cmd.info "tric_cli" ~version:"1.0.0"
       ~doc:"Continuous multi-query processing over graph streams (EDBT 2020 reproduction).")
    [ list_cmd; run_cmd; demo_cmd; generate_cmd; replay_cmd; audit_cmd; stats_cmd;
      serve_cmd; client_cmd ]

let () = exit (Cmd.eval main)
