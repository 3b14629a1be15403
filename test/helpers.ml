(* Shared helpers for the test suites. *)

open Tric_graph
open Tric_query

let pattern ?(name = "") ~id s = Parse.pattern ~name ~id s
let edge s = Parse.edge s
let update s = Parse.update s
let updates l = List.map update l

(* Whether [needle] occurs in [hay]. *)
let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.equal (String.sub hay i m) needle || go (i + 1)) in
  go 0

(* Deterministic PRNG so failures reproduce. *)
let rng seed = Random.State.make [| seed |]

(* A random small pattern over the given label vocabularies.  Shapes follow
   the paper's query classes: chain, star (out or in), cycle. *)
let random_pattern st ~id ~elabels ~vconsts ~size =
  let b = Pattern.Builder.create ~name:"rand" ~id () in
  let pick a = a.(Random.State.int st (Array.length a)) in
  let fresh_var =
    let c = ref 0 in
    fun () ->
      incr c;
      Term.var (Printf.sprintf "x%d" !c)
  in
  let term () =
    if Random.State.int st 100 < 30 then Term.const (pick vconsts) else fresh_var ()
  in
  let elabel () = Label.intern (pick elabels) in
  (match Random.State.int st 3 with
  | 0 ->
    (* chain *)
    let prev = ref (Pattern.Builder.vertex b (term ())) in
    for _ = 1 to size do
      let v = Pattern.Builder.vertex b (term ()) in
      Pattern.Builder.edge b ~label:(elabel ()) !prev v;
      prev := v
    done
  | 1 ->
    (* star: half out, half in *)
    let center = Pattern.Builder.vertex b (fresh_var ()) in
    for i = 1 to size do
      let v = Pattern.Builder.vertex b (term ()) in
      if i mod 2 = 0 then Pattern.Builder.edge b ~label:(elabel ()) center v
      else Pattern.Builder.edge b ~label:(elabel ()) v center
    done
  | _ ->
    (* cycle *)
    let first = Pattern.Builder.vertex b (fresh_var ()) in
    let prev = ref first in
    for _ = 1 to max 1 (size - 1) do
      let v = Pattern.Builder.vertex b (fresh_var ()) in
      Pattern.Builder.edge b ~label:(elabel ()) !prev v;
      prev := v
    done;
    Pattern.Builder.edge b ~label:(elabel ()) !prev first);
  Pattern.Builder.build b

let random_edge st ~elabels ~vconsts =
  let pick a = a.(Random.State.int st (Array.length a)) in
  Edge.of_strings (pick elabels) (pick vconsts) (pick vconsts)

(* Label vocabulary used by randomized tests. *)
let elabels = [| "a"; "b"; "c" |]
let vconsts = [| "v1"; "v2"; "v3"; "v4"; "v5"; "v6" |]

let check_reports_agree ~msg expected actual =
  if not (Tric_engine.Report.equal expected actual) then
    Alcotest.failf "%s:@.expected:@.%a@.actual:@.%a" msg Tric_engine.Report.pp
      (Tric_engine.Report.normalise expected)
      Tric_engine.Report.pp
      (Tric_engine.Report.normalise actual)

(* The tric_cli binary dune builds next to the test binary. *)
let cli_path () =
  let d = Filename.dirname Sys.executable_name in
  Filename.concat (Filename.concat d Filename.parent_dir_name)
    (Filename.concat "bin" "tric_cli.exe")

(* Run tric_cli with [args]; fails unless it exits 0.  Returns its
   standard output (standard error is discarded). *)
let run_cli args =
  let bin = cli_path () in
  let out = Filename.temp_file "tric_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let pid =
        Fun.protect
          ~finally:(fun () ->
            Unix.close fd;
            Unix.close null)
          (fun () -> Unix.create_process bin (Array.of_list (bin :: args)) Unix.stdin fd null)
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> In_channel.with_open_bin out In_channel.input_all
      | _ -> failwith ("tric_cli " ^ String.concat " " args ^ " failed"))

(* A sliding count window of the last [size] distinct edges over engines
   built by [factory]: the default scope of queries without a WITHIN
   clause. *)
let count_window size factory =
  Tric_engine.Window.make ~default:(Wspec.Count { shape = Sliding; size }) factory
