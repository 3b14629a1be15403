let tric ?(cache = false) ?(shards = 1) ?(metrics = false) () =
  Matcher.of_tric (Tric_core.Tric.create ~cache ~shards ~metrics ())

let inv ?(cache = false) ?(metrics = false) () =
  Matcher.of_invidx
    (Tric_baselines.Invidx.create ~cache ~metrics ~mode:Tric_baselines.Invidx.Full ())

let inc ?(cache = false) ?(metrics = false) () =
  Matcher.of_invidx
    (Tric_baselines.Invidx.create ~cache ~metrics ~mode:Tric_baselines.Invidx.Seeded ())

let graphdb () = Matcher.of_graphdb (Tric_graphdb.Continuous.create ())
let naive () = Matcher.of_naive (Naive.create ())

let iso () =
  let instances : (int, Tric_core.Tric.t) Hashtbl.t = Hashtbl.create 256 in
  Matcher.make ~name:"ISO"
    ~description:"one isolated TRIC per query (single-query paradigm, no sharing)"
    ~add_query:(fun p ->
      let t = Tric_core.Tric.create () in
      Tric_core.Tric.add_query t p;
      Hashtbl.add instances (Tric_query.Pattern.id p) t)
    ~remove_query:(fun qid ->
      Hashtbl.mem instances qid
      &&
      (Hashtbl.remove instances qid;
       true))
    ~num_queries:(fun () -> Hashtbl.length instances)
    ~handle_update:(fun u ->
      Hashtbl.fold
        (fun _ t acc -> Report.of_pair (Tric_core.Tric.handle_update t u) :: acc)
        instances []
      |> Report.merge)
    ~current_matches:(fun qid -> Tric_core.Tric.current_matches (Hashtbl.find instances qid) qid)
    ~memory_words:(fun () -> Obj.reachable_words (Obj.repr instances))
    ()

let tric_naive_cover () =
  Matcher.of_tric (Tric_core.Tric.create ~strategy:Tric_query.Cover.Naive ())

(* The window is lifted into the uniform Matcher.t handle, everything
   wired: the real batch path, the window-coherence audit chained into the
   inner engines' own auditors, query removal, and expiry/lateness
   counters surfaced through [stats]. *)
let windowed_spec ?slack ?default factory =
  let w = Window.make ?default ?slack factory in
  let inners () = Window.engines w in
  (* Name and shard count come from an inner engine: the default group's,
     or — without a default, when no group exists until a query registers
     — a probe the factory builds and shuts down at once. *)
  let probe =
    match inners () with
    | e :: _ -> e
    | [] ->
      let e = factory () in
      e.Matcher.shutdown ();
      e
  in
  let name =
    match default with
    | Some s -> Printf.sprintf "%s/win[%s]" probe.Matcher.name (Tric_query.Wspec.to_string s)
    | None -> Printf.sprintf "%s/win" probe.Matcher.name
  in
  Matcher.make ~name
    ~description:"windowed wrapper: per-spec query groups, watermark-driven expiry"
    ~stats:(fun () -> Window.stats w)
    ~audit:(Window.audit w)
    ~handle_batch:(Window.handle_batch w)
    ~shards:probe.Matcher.shards
    ~busy_s:(fun () -> List.fold_left (fun a e -> a +. e.Matcher.busy_s ()) 0.0 (inners ()))
    ~shard_busy:(fun () ->
      match inners () with [ e ] -> e.Matcher.shard_busy () | _ -> [||])
    ~metrics:(fun () ->
      match inners () with [ e ] -> e.Matcher.metrics () | _ -> Tric_obs.Snapshot.empty)
    ~spans:(fun () -> List.concat_map (fun e -> e.Matcher.spans ()) (inners ()))
    ~shutdown:(fun () -> Window.shutdown w)
    ~add_query:(Window.add_query w)
    ~remove_query:(Window.remove_query w)
    ~num_queries:(fun () -> Window.num_queries w)
    ~handle_update:(Window.handle_update w)
    ~current_matches:(Window.current_matches w)
    ~memory_words:(fun () -> Obj.reachable_words (Obj.repr w))
    ()

let by_name ?(shards = 1) ?(metrics = false) name =
  match name with
  | "TRIC" -> tric ~shards ~metrics ()
  | "TRIC+" -> tric ~cache:true ~shards ~metrics ()
  | "INV" -> inv ~metrics ()
  | "INV+" -> inv ~cache:true ~metrics ()
  | "INC" -> inc ~metrics ()
  | "INC+" -> inc ~cache:true ~metrics ()
  | "GraphDB" | "Neo4j" -> graphdb ()
  | "NAIVE" -> naive ()
  | "ISO" -> iso ()
  | "TRIC-naivecover" -> tric_naive_cover ()
  | name -> invalid_arg (Printf.sprintf "Engines.by_name: unknown engine %S" name)

let paper_names = [ "TRIC"; "TRIC+"; "INV"; "INV+"; "INC"; "INC+"; "GraphDB" ]
let trie_names = [ "TRIC"; "TRIC+" ]
