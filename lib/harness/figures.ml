open Tric_engine
module W = Tric_workloads

type t = {
  id : string;
  paper_ref : string;
  title : string;
  engines : string list;
  run : Config.t -> Format.formatter -> unit;
}

(* -- Shared helpers --------------------------------------------------------- *)

let dataset ?(source = W.Dataset.Snb) (cfg : Config.t) ?(edges = 100_000) ?(qdb = 5_000)
    ?(avg_len = 5) ?(selectivity = 0.25) ?(overlap = 0.35) () =
  W.Dataset.make source
    {
      W.Dataset.edges = Config.scaled cfg edges;
      qdb = Config.scaled cfg qdb;
      avg_len;
      selectivity;
      overlap;
      seed = cfg.Config.seed;
    }

let run_engine (cfg : Config.t) ?checkpoints name (d : W.Dataset.t) =
  Runner.run ?checkpoints ~budget_s:cfg.Config.budget_s ~engine:(Engines.by_name name)
    ~queries:d.W.Dataset.queries ~stream:d.W.Dataset.stream ()

let cell_of_result (r : Runner.result) =
  if r.Runner.timed_out then
    Printf.sprintf "%s* @%d" (Tablefmt.ms r.Runner.mean_ms) r.Runner.updates_processed
  else Tablefmt.ms r.Runner.mean_ms

(* A growth figure: one dataset, N graph-size checkpoints on the x axis,
   answering time per update within each window per engine.  Timed-out
   engines keep their reached prefix and get a '*' (as in the paper). *)
let growth_figure ~engines ~make_dataset ~points (cfg : Config.t) fmt =
  let d = make_dataset cfg in
  let total = Tric_graph.Stream.length d.W.Dataset.stream in
  (* At extreme scales [total < points] the rounded positions collide (and
     the first ones round to 0); dedup so every column corresponds to one
     reachable checkpoint — duplicates used to render as spurious '*'
     timeout cells. *)
  let checkpoints =
    List.init points (fun i -> (i + 1) * total / points)
    |> List.filter (fun cp -> cp > 0)
    |> List.sort_uniq Int.compare
  in
  let results = List.map (fun name -> run_engine cfg ~checkpoints name d) engines in
  let header =
    "engine" :: List.map (fun cp -> Printf.sprintf "%dupd" cp) checkpoints @ [ "note" ]
  in
  let rows =
    List.map
      (fun (r : Runner.result) ->
        let segs = Runner.segment_means_ms r in
        let cells =
          List.map
            (fun cp ->
              match List.find_opt (fun (n, _) -> Int.equal n cp) segs with
              | Some (_, m) -> Tablefmt.ms m
              | None -> "*")
            checkpoints
        in
        (r.Runner.engine :: cells)
        @ [
            (if r.Runner.timed_out then
               Printf.sprintf "timed out at %d/%d" r.Runner.updates_processed total
             else Printf.sprintf "mean %s ms/upd" (Tablefmt.ms r.Runner.mean_ms));
          ])
      results
  in
  Format.fprintf fmt "x axis: updates applied (graph size); cells: mean ms/update in window@.";
  Tablefmt.print fmt ~header ~rows

(* A parameter sweep: one dataset per x value, total mean per engine. *)
let sweep_figure ~engines ~xs ~label ~make_dataset (cfg : Config.t) fmt =
  let header = "engine" :: List.map label xs in
  let columns =
    List.map
      (fun x ->
        let d = make_dataset cfg x in
        List.map (fun name -> cell_of_result (run_engine cfg name d)) engines)
      xs
  in
  let rows =
    List.mapi (fun i name -> name :: List.map (fun col -> List.nth col i) columns) engines
  in
  Format.fprintf fmt "cells: mean ms/update over the full stream ('*' = budget hit)@.";
  Tablefmt.print fmt ~header ~rows

(* -- Experiments ------------------------------------------------------------ *)

let all_engines = Engines.paper_names
let trie_engines = Engines.trie_names

let fig12a =
  {
    id = "fig12a";
    paper_ref = "Fig. 12(a)";
    title = "SNB: answering time vs graph size (100K edges, QDB=5K)";
    engines = all_engines;
    run =
      growth_figure ~engines:all_engines ~points:10 ~make_dataset:(fun cfg ->
          dataset cfg ~edges:100_000 ~qdb:5_000 ());
  }

let fig12b =
  {
    id = "fig12b";
    paper_ref = "Fig. 12(b)";
    title = "SNB: influence of selectivity sigma (10..30%)";
    engines = all_engines;
    run =
      sweep_figure ~engines:all_engines
        ~xs:[ 0.10; 0.15; 0.20; 0.25; 0.30 ]
        ~label:(fun s -> Printf.sprintf "s=%.0f%%" (s *. 100.0))
        ~make_dataset:(fun cfg s -> dataset cfg ~selectivity:s ());
  }

let fig12c =
  {
    id = "fig12c";
    paper_ref = "Fig. 12(c)";
    title = "SNB: influence of query database size (1K..5K)";
    engines = all_engines;
    run =
      sweep_figure ~engines:all_engines ~xs:[ 1_000; 3_000; 5_000 ]
        ~label:(fun q -> Printf.sprintf "QDB=%d" q)
        ~make_dataset:(fun cfg q -> dataset cfg ~qdb:q ());
  }

let fig12d =
  {
    id = "fig12d";
    paper_ref = "Fig. 12(d)";
    title = "SNB: influence of average query size l (3..9)";
    engines = all_engines;
    run =
      sweep_figure ~engines:all_engines ~xs:[ 3; 5; 7; 9 ]
        ~label:(fun l -> Printf.sprintf "l=%d" l)
        ~make_dataset:(fun cfg l -> dataset cfg ~avg_len:l ());
  }

let fig12e =
  {
    id = "fig12e";
    paper_ref = "Fig. 12(e)";
    title = "SNB: influence of query overlap o (25..65%)";
    engines = all_engines;
    run =
      sweep_figure ~engines:all_engines
        ~xs:[ 0.25; 0.35; 0.45; 0.55; 0.65 ]
        ~label:(fun o -> Printf.sprintf "o=%.0f%%" (o *. 100.0))
        ~make_dataset:(fun cfg o -> dataset cfg ~overlap:o ());
  }

let fig12f =
  {
    id = "fig12f";
    paper_ref = "Fig. 12(f)";
    title = "SNB: answering time vs graph size (1M edges) with timeouts";
    engines = all_engines;
    run =
      growth_figure ~engines:all_engines ~points:10 ~make_dataset:(fun cfg ->
          dataset cfg ~edges:1_000_000 ~qdb:5_000 ());
  }

let fig13a =
  {
    id = "fig13a";
    paper_ref = "Fig. 13(a)";
    title = "SNB: answering time vs graph size (10M edges), trie engines vs GraphDB";
    engines = trie_engines @ [ "GraphDB" ];
    run =
      growth_figure
        ~engines:(trie_engines @ [ "GraphDB" ])
        ~points:10
        ~make_dataset:(fun cfg -> dataset cfg ~edges:10_000_000 ~qdb:5_000 ());
  }

let fig13b =
  {
    id = "fig13b";
    paper_ref = "Fig. 13(b)";
    title = "SNB: query insertion time per 1K-query batch as QDB grows";
    engines = all_engines;
    run =
      (fun cfg fmt ->
        let d = dataset cfg ~edges:100_000 ~qdb:5_000 () in
        let queries = Array.of_list d.W.Dataset.queries in
        let batch = max 1 (Array.length queries / 5) in
        let header =
          "engine"
          :: List.init 5 (fun i -> Printf.sprintf "+batch%d(ms/query)" (i + 1))
        in
        let rows =
          List.map
            (fun name ->
              let e = Engines.by_name name in
              let cells = ref [] in
              for b = 0 to 4 do
                let t0 = Unix.gettimeofday () in
                for i = b * batch to min ((b + 1) * batch) (Array.length queries) - 1 do
                  e.Matcher.add_query queries.(i)
                done;
                let dt = (Unix.gettimeofday () -. t0) *. 1000.0 /. float_of_int batch in
                cells := Tablefmt.ms dt :: !cells
              done;
              name :: List.rev !cells)
            all_engines
        in
        Format.fprintf fmt "cells: indexing time per query (ms) for each successive batch@.";
        Tablefmt.print fmt ~header ~rows);
  }

let fig13c =
  {
    id = "fig13c";
    paper_ref = "Fig. 13(c)";
    title = "Memory after indexing QDB=5K and streaming 100K edges (SNB/TAXI/BioGRID)";
    engines = all_engines;
    run =
      (fun cfg fmt ->
        let sources = [ W.Dataset.Snb; W.Dataset.Taxi; W.Dataset.Biogrid ] in
        let header = "engine" :: List.map W.Dataset.source_name sources in
        let columns =
          List.map
            (fun source ->
              let d = dataset ~source cfg ~edges:100_000 ~qdb:5_000 () in
              List.map
                (fun name ->
                  let r = run_engine cfg name d in
                  Tablefmt.mb_of_words r.Runner.memory_words
                  ^ (if r.Runner.timed_out then "*" else ""))
                all_engines)
            sources
        in
        let rows =
          List.mapi
            (fun i name -> name :: List.map (fun col -> List.nth col i) columns)
            all_engines
        in
        Format.fprintf fmt
          "cells: engine-reachable heap after the run ('*' = stream truncated by budget)@.";
        Tablefmt.print fmt ~header ~rows);
  }

let fig14a =
  {
    id = "fig14a";
    paper_ref = "Fig. 14(a)";
    title = "TAXI: answering time vs graph size (1M edges)";
    engines = all_engines;
    run =
      growth_figure ~engines:all_engines ~points:10 ~make_dataset:(fun cfg ->
          dataset ~source:W.Dataset.Taxi cfg ~edges:1_000_000 ~qdb:5_000 ());
  }

let fig14b =
  {
    id = "fig14b";
    paper_ref = "Fig. 14(b)";
    title = "BioGRID: answering time vs graph size (100K edges, stress test)";
    engines = all_engines;
    run =
      growth_figure ~engines:all_engines ~points:10 ~make_dataset:(fun cfg ->
          dataset ~source:W.Dataset.Biogrid cfg ~edges:100_000 ~qdb:5_000 ());
  }

let fig14c =
  {
    id = "fig14c";
    paper_ref = "Fig. 14(c)";
    title = "BioGRID: answering time vs graph size (1M edges), trie engines vs GraphDB";
    engines = trie_engines @ [ "GraphDB" ];
    run =
      growth_figure
        ~engines:(trie_engines @ [ "GraphDB" ])
        ~points:10
        ~make_dataset:(fun cfg ->
          dataset ~source:W.Dataset.Biogrid cfg ~edges:1_000_000 ~qdb:5_000 ());
  }

(* -- Ablations (DESIGN.md "design choices worth ablating") ------------------ *)

let ablation_cache =
  {
    id = "ablation-cache";
    paper_ref = "§4.2 Caching";
    title = "Ablation: hash-join structure caching (X vs X+), rebuild counts";
    engines = [ "TRIC"; "TRIC+"; "INV"; "INV+"; "INC"; "INC+" ];
    run =
      (fun cfg fmt ->
        let d = dataset cfg ~edges:100_000 ~qdb:5_000 () in
        let rows =
          List.map
            (fun name ->
              let r = run_engine cfg name d in
              [ name; cell_of_result r; Tablefmt.mb_of_words r.Runner.memory_words ])
            [ "TRIC"; "TRIC+"; "INV"; "INV+"; "INC"; "INC+" ]
        in
        Format.fprintf fmt "caching trades memory for per-update time@.";
        Tablefmt.print fmt ~header:[ "engine"; "ms/update"; "memory" ] ~rows);
  }

let ablation_sharing =
  {
    id = "ablation-sharing";
    paper_ref = "§1/§4 motivation";
    title = "Ablation: multi-query clustering vs isolated per-query evaluation";
    engines = [ "TRIC"; "ISO" ];
    run =
      (fun cfg fmt ->
        let d = dataset cfg ~edges:100_000 ~qdb:1_000 () in
        let rows =
          List.map
            (fun name ->
              let r = run_engine cfg name d in
              [ name; cell_of_result r; Tablefmt.mb_of_words r.Runner.memory_words ])
            [ "TRIC"; "ISO" ]
        in
        Format.fprintf fmt "ISO = one isolated TRIC instance per query (no sharing)@.";
        Tablefmt.print fmt ~header:[ "engine"; "ms/update"; "memory" ] ~rows);
  }

let ablation_cover =
  {
    id = "ablation-cover";
    paper_ref = "§4.1 Step 1";
    title = "Ablation: covering-path extraction strategy (upstream vs naive DFS)";
    engines = [ "TRIC"; "TRIC-naivecover" ];
    run =
      (fun cfg fmt ->
        let d = dataset cfg ~edges:100_000 ~qdb:5_000 () in
        let rows =
          List.map
            (fun name ->
              let e = Engines.by_name name in
              let r =
                Runner.run ~budget_s:cfg.Config.budget_s ~engine:e
                  ~queries:d.W.Dataset.queries ~stream:d.W.Dataset.stream ()
              in
              [ name; cell_of_result r; Tablefmt.mb_of_words r.Runner.memory_words ])
            [ "TRIC"; "TRIC-naivecover" ]
        in
        Format.fprintf fmt "upstream extension maximises shared trie prefixes@.";
        Tablefmt.print fmt ~header:[ "engine"; "ms/update"; "memory" ] ~rows);
  }

let ablation_window =
  {
    id = "ablation-window";
    paper_ref = "§4.3 deletions";
    title = "Ablation: sliding window (exact expiry via deletions) vs unbounded history";
    engines = [ "TRIC+" ];
    run =
      (fun cfg fmt ->
        let d = dataset cfg ~edges:100_000 ~qdb:1_000 () in
        let total = Tric_graph.Stream.length d.W.Dataset.stream in
        let windowed size =
          Engines.windowed_spec
            ~default:(Tric_query.Wspec.Count { shape = Sliding; size })
            (fun () -> Engines.tric ~cache:true ())
        in
        let rows =
          List.map
            (fun (label, engine) ->
              let r =
                Runner.run ~budget_s:cfg.Config.budget_s ~engine
                  ~queries:d.W.Dataset.queries ~stream:d.W.Dataset.stream ()
              in
              [
                label;
                cell_of_result r;
                Tablefmt.mb_of_words r.Runner.memory_words;
                string_of_int r.Runner.matches;
              ])
            [
              ("unbounded", Engines.tric ~cache:true ());
              (Printf.sprintf "window=%d" (total / 2), windowed (total / 2));
              (Printf.sprintf "window=%d" (total / 4), windowed (total / 4));
            ]
        in
        Format.fprintf fmt
          "windows bound state (memory); matches drop sharply because planted@.";
        Format.fprintf fmt
          "embeddings span edges far apart in the stream (temporal locality)@.";
        Tablefmt.print fmt
          ~header:[ "configuration"; "ms/update"; "memory"; "matches" ]
          ~rows);
  }

let batch_throughput =
  {
    id = "batch-throughput";
    paper_ref = "§6 + batching";
    title = "SNB add-only: updates/sec vs micro-batch size (amortised trie sweep)";
    engines = trie_engines;
    run =
      (fun cfg fmt ->
        let d = dataset cfg ~edges:100_000 ~qdb:1_000 () in
        let sizes = [ 1; 16; 64; 256 ] in
        let header =
          "engine"
          :: List.map
               (fun b -> if b = 1 then "per-update" else Printf.sprintf "batch=%d" b)
               sizes
        in
        let rows =
          List.map
            (fun name ->
              let base = ref 0.0 in
              name
              :: List.map
                   (fun b ->
                     let r =
                       Runner.run ~budget_s:cfg.Config.budget_s ~batch_size:b
                         ~engine:(Engines.by_name name) ~queries:d.W.Dataset.queries
                         ~stream:d.W.Dataset.stream ()
                     in
                     let ups = r.Runner.throughput_ups in
                     if b = 1 then base := ups;
                     Printf.sprintf "%.0f upd/s%s%s" ups
                       (if b = 1 || !base <= 0.0 then ""
                        else Printf.sprintf " (%.1fx)" (ups /. !base))
                       (if r.Runner.timed_out then "*" else ""))
                   sizes)
            trie_engines
        in
        Format.fprintf fmt
          "batched replay is state-equivalent to sequential replay (differential-tested)@.";
        Tablefmt.print fmt ~header ~rows);
  }

let table_structures =
  {
    id = "table-structures";
    paper_ref = "§4.1/§5.1 data structures";
    title = "Index-structure census after indexing QDB=5K and streaming 100K edges (SNB)";
    engines = all_engines;
    run =
      (fun cfg fmt ->
        let d = dataset cfg ~edges:100_000 ~qdb:5_000 () in
        let rows =
          List.map
            (fun name ->
              let engine = Engines.by_name name in
              let r =
                Runner.run ~budget_s:cfg.Config.budget_s ~engine
                  ~queries:d.W.Dataset.queries ~stream:d.W.Dataset.stream ()
              in
              ignore r;
              let counters =
                engine.Matcher.stats ()
                |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                |> String.concat "  "
              in
              [ name; counters ])
            all_engines
        in
        Format.fprintf fmt "engine-specific index/view counters (structure sharing visible)@.";
        Tablefmt.print fmt ~header:[ "engine"; "counters" ] ~rows);
  }

let all =
  [
    fig12a; fig12b; fig12c; fig12d; fig12e; fig12f; fig13a; fig13b; fig13c; fig14a;
    fig14b; fig14c; ablation_cache; ablation_sharing; ablation_cover; ablation_window;
    batch_throughput; table_structures;
  ]

let find id = List.find_opt (fun e -> String.equal e.id id) all

let run_one cfg fmt e =
  Format.fprintf fmt "@.== %s — %s ==@.%s@.engines: %s@.scale: 1/%d, budget: %.0fs/engine@.@."
    e.id e.paper_ref e.title (String.concat ", " e.engines) cfg.Config.scale
    cfg.Config.budget_s;
  e.run cfg fmt

let run_all cfg fmt = List.iter (run_one cfg fmt) all
