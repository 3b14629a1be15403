(* Harness tests: configuration, table formatting, the experiment
   registry, and one end-to-end experiment run at tiny scale. *)

module H = Tric_harness
module E = Tric_engine

let test_config () =
  let c = H.Config.default in
  Alcotest.(check int) "scaled" 4_000 (H.Config.scaled c 100_000);
  Alcotest.(check int) "scaled floors at 1" 1 (H.Config.scaled c 10);
  (* Environment override parsing. *)
  Unix.putenv "TRIC_SCALE" "7";
  Unix.putenv "TRIC_BUDGET" "2.5";
  Unix.putenv "TRIC_SEED" "99";
  let c = H.Config.from_env () in
  Alcotest.(check int) "env scale" 7 c.H.Config.scale;
  Alcotest.(check (float 1e-9)) "env budget" 2.5 c.H.Config.budget_s;
  Alcotest.(check int) "env seed" 99 c.H.Config.seed;
  (* Invalid values fall back to defaults. *)
  Unix.putenv "TRIC_SCALE" "banana";
  Unix.putenv "TRIC_BUDGET" "-3";
  let c = H.Config.from_env () in
  Alcotest.(check int) "bad scale ignored" H.Config.default.H.Config.scale c.H.Config.scale;
  Alcotest.(check (float 1e-9)) "bad budget ignored" H.Config.default.H.Config.budget_s
    c.H.Config.budget_s;
  Unix.putenv "TRIC_SCALE" "";
  Unix.putenv "TRIC_BUDGET" "";
  Unix.putenv "TRIC_SEED" ""

let test_tablefmt () =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  H.Tablefmt.print fmt ~header:[ "engine"; "ms" ]
    ~rows:[ [ "TRIC+"; "0.04" ]; [ "a-very-long-engine-name"; "12" ] ];
  Format.pp_print_flush fmt ();
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  (* header + rule + 2 rows (+ trailing empty) *)
  Alcotest.(check bool) "at least 4 lines" true (List.length lines >= 4);
  (* Columns aligned: every non-empty line has equal length. *)
  let widths =
    List.filter_map (fun l -> if l = "" then None else Some (String.length l)) lines
  in
  Alcotest.(check int) "aligned" 1 (List.length (List.sort_uniq compare widths));
  Alcotest.(check string) "ms small" "0.0042" (H.Tablefmt.ms 0.0042);
  Alcotest.(check string) "ms mid" "1.50" (H.Tablefmt.ms 1.5);
  Alcotest.(check string) "ms big" "215" (H.Tablefmt.ms 215.2);
  Alcotest.(check string) "mb" "8.0MB" (H.Tablefmt.mb_of_words (1_048_576))

let test_registry () =
  (* Every paper figure id is present exactly once. *)
  let ids = List.map (fun (e : H.Figures.t) -> e.H.Figures.id) H.Figures.all in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun id ->
      match H.Figures.find id with
      | Some e -> Alcotest.(check string) "self id" id e.H.Figures.id
      | None -> Alcotest.failf "missing experiment %s" id)
    [
      "fig12a"; "fig12b"; "fig12c"; "fig12d"; "fig12e"; "fig12f"; "fig13a"; "fig13b";
      "fig13c"; "fig14a"; "fig14b"; "fig14c";
    ];
  Alcotest.(check bool) "unknown id" true (H.Figures.find "fig99z" = None);
  (* Engines named by experiments all resolve in the registry. *)
  List.iter
    (fun (e : H.Figures.t) ->
      List.iter
        (fun name -> ignore (E.Engines.by_name name : E.Matcher.t))
        e.H.Figures.engines)
    H.Figures.all

let test_run_one_tiny () =
  (* Run the cheapest real experiment end-to-end at an extreme scale to
     exercise the full harness path. *)
  let cfg = { H.Config.scale = 2000; budget_s = 5.0; seed = 3 } in
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  (match H.Figures.find "ablation-sharing" with
  | Some e -> H.Figures.run_one cfg fmt e
  | None -> Alcotest.fail "experiment missing");
  Format.pp_print_flush fmt ();
  let out = Buffer.contents buf in
  Alcotest.(check bool) "mentions TRIC" true (Helpers.contains out "TRIC");
  Alcotest.(check bool) "mentions ISO" true (Helpers.contains out "ISO")

let suite =
  [
    Alcotest.test_case "config" `Quick test_config;
    Alcotest.test_case "table formatting" `Quick test_tablefmt;
    Alcotest.test_case "experiment registry" `Quick test_registry;
    Alcotest.test_case "run one experiment end-to-end" `Quick test_run_one_tiny;
  ]
