(* The corpus-level checker: classify every top-level binding
   (pure / local-mutating / shared-mutating) over the per-file summaries,
   then enforce the domain-safety rules, the shard-ownership rule and the
   footgun rules (polymorphic compare/hash/equality, Obj.magic, catch-all
   handlers, module-level mutable state, missing interfaces), filtered
   through typed waiver markers. *)

open Parsetree

let rules =
  [
    ("parse-error", "the file does not parse; the checker cannot certify it (unwaivable)");
    ( "domain-ownership",
      "Pool/Domain task closures must not capture or transitively call shared-mutating \
       bindings, and domain-spawning modules must hold the pool lock when mutating \
       non-owned state" );
    ( "shard-escape",
      "Shard.t / Trie.t / Relation.t / Rows.t stay inside the shard-owned modules and \
       the coordinator; everything else goes through the Shard API (row ids are only \
       meaningful inside the owning shard's arenas — batches cross as packed copies)" );
    ("poly-compare", "Stdlib/bare compare orders by memory representation");
    ("poly-hash", "Hashtbl.hash truncates and diverges from any custom equal");
    ("poly-equal", "the List.mem/assoc family uses polymorphic =");
    ("obj-magic", "Obj.magic defeats the type system");
    ("catch-all", "a catch-all exception handler swallows every exception");
    ("toplevel-mutable", "module-level mutable state is shared by every domain (lib/ only)");
    ("missing-mli", "every lib/ module must declare its interface in a companion .mli");
    ("stale-waiver", "a waiver that excuses nothing must be deleted (unwaivable)");
  ]

let rule_known rule = List.exists (fun (r, _) -> String.equal r rule) rules

let waivable rule =
  not (String.equal rule "parse-error" || String.equal rule "stale-waiver")

type outcome = {
  findings : Src.finding list;
  waivers : Src.waiver list;
}

(* Modules allowed to touch each shard-owned type directly.  [Tric] is the
   coordinator, [Shard] the slice owner; [Trie]/[Relation] sit below it and
   [Rows] is the arena floor — its row ids index a specific shard's flat
   store, so nothing outside the stack may hold one ([Embedding]/[Embjoin]
   consume by-value packed batches, and [Embjoin] reads the row-id buckets
   the coordinator lends it for one final join, never keeping one; the
   reference check cannot split a module, so they are allowed and kept
   honest by review of their Rows surface).  Anything else must carry a file waiver naming the rule
   (the audit subsystem recomputes state from scratch and legitimately
   reads the stack). *)
let owned_allow tname =
  match tname with
  | "Shard" -> [ "Shard"; "Tric" ]
  | "Trie" -> [ "Trie"; "Shard"; "Tric" ]
  | "Relation" -> [ "Relation"; "Trie"; "Shard"; "Tric" ]
  | "Rows" -> [ "Rows"; "Relation"; "Embedding"; "Embjoin"; "Trie"; "Shard"; "Tric" ]
  | _ -> []

type slot =
  | Pos of int  (* index among unlabelled parameters *)
  | Lab of string

let slot_equal a b =
  match (a, b) with
  | Pos i, Pos j -> i = j
  | Lab x, Lab y -> String.equal x y
  | _ -> false

(* Which parameter slot does [name] occupy in [params]? *)
let slot_of_param params name =
  let rec go k ps =
    match ps with
    | [] -> None
    | (lab, var) :: rest -> (
      let matches = match var with Some v -> String.equal v name | None -> false in
      match lab with
      | None -> if matches then Some (Pos k) else go (k + 1) rest
      | Some l -> if matches then Some (Lab l) else go k rest)
  in
  go 0 params

let arg_for_slot args slot =
  match slot with
  | Lab l ->
    List.find_map
      (fun (al, e) ->
        match al with
        | (Asttypes.Labelled s | Asttypes.Optional s) when String.equal s l -> Some e
        | _ -> None)
      args
  | Pos k ->
    List.nth_opt
      (List.filter_map (fun (al, e) -> if Summary.is_nolabel al then Some e else None) args)
      k

(* Chase a task identifier through the binding's local lets, so
   [let tasks = Array.map ... in Pool.run pool tasks] analyses the
   closure array, not the bare name. *)
let subst locals e =
  let rec go depth e =
    if depth = 0 then e
    else
      match e.pexp_desc with
      | Pexp_ident { txt = Longident.Lident x; _ } -> (
        match List.find_opt (fun (n, _) -> String.equal n x) locals with
        | Some (_, e') -> go (depth - 1) e'
        | None -> e)
      | _ -> e
  in
  go 3 e

let analyze_sources ?(has_mli = fun _ -> true) sources =
  let out = ref [] in
  let finding file line rule text = out := { Src.file; line; rule; text } :: !out in
  List.iter
    (fun (path, _) ->
      if Src.in_lib path && not (has_mli path) then
        finding path 1 "missing-mli" "library module has no .mli")
    sources;
  let files =
    List.filter_map
      (fun (path, src) ->
        match Summary.summarise ~path src with
        | Ok f -> Some f
        | Error (line, what) ->
          finding path line "parse-error" ("file does not parse (" ^ what ^ ")");
          None)
      sources
  in
  List.iter (fun f -> List.iter (fun v -> out := v :: !out) f.Summary.f_findings) files;
  (* -- definition/call graph index ---------------------------------------- *)
  let idx : (string, Summary.binding list ref) Hashtbl.t = Hashtbl.create 256 in
  let add_key m name b =
    let key = m ^ "." ^ name in
    match Hashtbl.find_opt idx key with
    | Some l -> l := b :: !l
    | None -> Hashtbl.add idx key (ref [ b ])
  in
  List.iter
    (fun f ->
      List.iter
        (fun (b : Summary.binding) ->
          add_key b.b_module b.b_name b;
          match b.b_inner with
          | Some m2 when not (String.equal m2 b.b_module) -> add_key m2 b.b_name b
          | _ -> ())
        f.Summary.f_bindings)
    files;
  let lookup m name =
    match Hashtbl.find_opt idx (m ^ "." ^ name) with Some l -> !l | None -> []
  in
  (* -- mutation-effect fixpoint: shared = mutates a toplevel value, or
        references a shared binding ------------------------------------------ *)
  List.iter
    (fun f ->
      List.iter
        (fun (b : Summary.binding) ->
          if
            List.exists
              (fun mu ->
                match mu.Summary.m_target with Summary.Toplevel _ -> true | _ -> false)
              b.b_muts
          then b.b_shared <- true)
        f.Summary.f_bindings)
    files;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun f ->
        List.iter
          (fun (b : Summary.binding) ->
            if
              (not b.b_shared)
              && List.exists
                   (fun r ->
                     List.exists
                       (fun (b' : Summary.binding) -> b'.b_shared)
                       (lookup r.Summary.r_mod r.r_name))
                   b.b_refs
            then begin
              b.b_shared <- true;
              changed := true
            end)
          f.Summary.f_bindings)
      files
  done;
  (* -- domain-ownership: task closures -------------------------------------- *)
  let task_refs (f : Summary.file) (b : Summary.binding) task =
    Summary.free_refs f.f_ctx (subst b.b_locals task)
  in
  let check_task (f : Summary.file) (b : Summary.binding) line task =
    let refs, _ = task_refs f b task in
    List.iter
      (fun (r : Summary.vref) ->
        let key = r.r_mod ^ "." ^ r.r_name in
        let bs = lookup r.r_mod r.r_name in
        if List.exists (fun (b' : Summary.binding) -> b'.b_mutable_value) bs then
          finding f.f_path line "domain-ownership"
            (Printf.sprintf
               "task closure captures module-level mutable value %s; worker domains may \
                not touch module state"
               key)
        else if List.exists (fun (b' : Summary.binding) -> b'.b_shared) bs then
          finding f.f_path line "domain-ownership"
            (Printf.sprintf
               "task closure reaches shared-mutating %s; tasks may only mutate state \
                they own"
               key))
      refs
  in
  (* dispatchers: bindings that forward a parameter into a task list.
     Fixpoint first (no findings), then one reporting pass. *)
  let dispatchers : (string, slot list ref) Hashtbl.t = Hashtbl.create 16 in
  let register (b : Summary.binding) applied =
    let slots = List.filter_map (slot_of_param b.b_params) applied in
    List.fold_left
      (fun chg slot ->
        let keys =
          (b.b_module ^ "." ^ b.b_name)
          ::
          (match b.b_inner with
          | Some m2 when not (String.equal m2 b.b_module) -> [ m2 ^ "." ^ b.b_name ]
          | _ -> [])
        in
        List.fold_left
          (fun chg key ->
            match Hashtbl.find_opt dispatchers key with
            | Some l ->
              if List.exists (slot_equal slot) !l then chg
              else begin
                l := slot :: !l;
                true
              end
            | None ->
              Hashtbl.add dispatchers key (ref [ slot ]);
              true)
          chg keys)
      false slots
  in
  let dispatcher_slots (f : Summary.file) (b : Summary.binding) callee =
    let keys =
      (f.f_module ^ "." ^ callee)
      ::
      (match b.b_inner with
      | Some m2 when not (String.equal m2 f.f_module) -> [ m2 ^ "." ^ callee ]
      | _ -> [])
    in
    List.fold_left
      (fun acc key ->
        match Hashtbl.find_opt dispatchers key with
        | Some l ->
          List.fold_left
            (fun acc s -> if List.exists (slot_equal s) acc then acc else s :: acc)
            acc !l
        | None -> acc)
      [] keys
  in
  List.iter
    (fun (f : Summary.file) ->
      List.iter
        (fun (b : Summary.binding) ->
          List.iter
            (fun (ps : Summary.pool_site) ->
              ignore (register b (snd (task_refs f b ps.ps_task))))
            b.b_pool)
        f.f_bindings)
    files;
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && !rounds < 4 do
    continue_ := false;
    incr rounds;
    List.iter
      (fun (f : Summary.file) ->
        List.iter
          (fun (b : Summary.binding) ->
            List.iter
              (fun (c : Summary.call_site) ->
                List.iter
                  (fun slot ->
                    match arg_for_slot c.c_args slot with
                    | Some task ->
                      if register b (snd (task_refs f b task)) then continue_ := true
                    | None -> ())
                  (dispatcher_slots f b c.c_callee))
              b.b_calls)
          f.f_bindings)
      files
  done;
  (* reporting pass: direct pool sites + forwarded dispatcher arguments *)
  List.iter
    (fun (f : Summary.file) ->
      List.iter
        (fun (b : Summary.binding) ->
          List.iter
            (fun (ps : Summary.pool_site) -> check_task f b ps.ps_line ps.ps_task)
            b.b_pool;
          List.iter
            (fun (c : Summary.call_site) ->
              List.iter
                (fun slot ->
                  match arg_for_slot c.c_args slot with
                  | Some task -> check_task f b c.c_line task
                  | None -> ())
                (dispatcher_slots f b c.c_callee))
            b.b_calls)
        f.f_bindings)
    files;
  (* -- domain-ownership: lock discipline in domain-spawning modules --------- *)
  List.iter
    (fun (f : Summary.file) ->
      if f.f_spawns then
        List.iter
          (fun (b : Summary.binding) ->
            List.iter
              (fun (mu : Summary.mutation) ->
                match mu.m_lock with
                | Summary.Held -> ()
                | _ ->
                  let what =
                    match mu.m_target with
                    | Summary.Toplevel (m, x) -> "module-level " ^ m ^ "." ^ x
                    | Summary.Var x -> "caller-supplied " ^ x
                    | _ -> "non-owned state"
                  in
                  finding f.f_path mu.m_line "domain-ownership"
                    (Printf.sprintf
                       "mutation of %s without the pool lock held, in a module that \
                        spawns domains"
                       what))
              b.b_muts)
          f.f_bindings)
    files;
  (* -- shard-escape ---------------------------------------------------------- *)
  List.iter
    (fun (f : Summary.file) ->
      List.iter
        (fun (b : Summary.binding) ->
          List.iter
            (fun (r : Summary.vref) ->
              match owned_allow r.r_mod with
              | [] -> ()
              | allow ->
                if not (List.exists (String.equal f.f_module) allow) then
                  finding f.f_path r.r_line "shard-escape"
                    (Printf.sprintf
                       "shard-owned %s.%s used from %s; engine state crosses the \
                        coordinator boundary only through the Shard API"
                       r.r_mod r.r_name f.f_module))
            b.b_refs)
        f.f_bindings)
    files;
  (* -- waivers ---------------------------------------------------------------- *)
  let waivers =
    List.concat_map (fun (path, src) -> Src.waivers_of_source ~file:path src) sources
  in
  List.iter
    (fun (w : Src.waiver) ->
      if not (rule_known w.w_rule) then
        finding w.w_file w.w_line "stale-waiver"
          (Printf.sprintf "waiver names unknown rule %S" w.w_rule)
      else if not (waivable w.w_rule) then
        finding w.w_file w.w_line "stale-waiver"
          (Printf.sprintf "rule %s cannot be waived" w.w_rule))
    waivers;
  let all = List.sort_uniq Src.compare_finding !out in
  let kept =
    List.filter
      (fun (v : Src.finding) ->
        (not (waivable v.rule))
        || not
             (List.exists
                (fun (w : Src.waiver) ->
                  String.equal w.w_file v.file
                  && String.equal w.w_rule v.rule
                  && rule_known w.w_rule
                  && (match w.w_scope with
                     | Src.File -> true
                     | Src.Line -> w.w_line = v.line)
                  &&
                  (w.w_used <- true;
                   true))
                waivers))
      all
  in
  let stale =
    List.filter_map
      (fun (w : Src.waiver) ->
        if rule_known w.w_rule && waivable w.w_rule && not w.w_used then
          Some
            {
              Src.file = w.w_file;
              line = w.w_line;
              rule = "stale-waiver";
              text =
                Printf.sprintf
                  "waiver for %s excuses nothing %s; delete it"
                  w.w_rule
                  (match w.w_scope with
                  | Src.Line -> "on this line"
                  | Src.File -> "in this file");
            }
        else None)
      waivers
  in
  { findings = List.sort Src.compare_finding (kept @ stale); waivers }

let companion_mli path = Filename.remove_extension path ^ ".mli"

let run_tree dirs =
  analyze_sources
    ~has_mli:(fun p -> Sys.file_exists (companion_mli p))
    (List.map (fun p -> (p, Src.read_file p)) (Src.ml_files dirs))

(* -- Self-test ---------------------------------------------------------------- *)

(* Fixture corpus: every [bad_<rule>*.ml] must produce at least one
   finding, all of them of exactly that rule; every [good_*.ml] must be
   clean; and every rule must be covered by at least one bad fixture.
   Fixtures whose name mentions toplevel_mutable or missing_mli are
   analysed under a synthetic lib/ path (those rules are lib-scoped); the
   rest under bin/.  Only missing_mli fixtures are checked against their
   real companion .mli; the others are taken to have one. *)
let self_test dir =
  let files = Src.ml_files [ dir ] in
  let ok = ref true in
  let fail fmt = Printf.ksprintf (fun s -> Printf.eprintf "tric_check self-test FAILED: %s\n" s; ok := false) fmt in
  (match files with [] -> fail "no fixtures found under %s" dir | _ -> ());
  let covered = ref [] in
  let expected_rule stem =
    let dashed = String.map (fun c -> if c = '_' then '-' else c) stem in
    List.fold_left
      (fun best (r, _) ->
        let rl = String.length r in
        if String.length dashed >= rl && String.equal (String.sub dashed 0 rl) r then
          match best with
          | Some b when String.length b >= rl -> best
          | _ -> Some r
        else best)
      None rules
  in
  List.iter
    (fun path ->
      let base = Filename.remove_extension (Filename.basename path) in
      let mentions s = Option.is_some (Src.find_sub base s 0) in
      let synth =
        if mentions "toplevel_mutable" || mentions "missing_mli" then
          "lib/fixture/" ^ base ^ ".ml"
        else "bin/fixture/" ^ base ^ ".ml"
      in
      let has_mli _ =
        (not (mentions "missing_mli")) || Sys.file_exists (companion_mli path)
      in
      let o = analyze_sources ~has_mli [ (synth, Src.read_file path) ] in
      if String.starts_with ~prefix:"bad_" base then begin
        match expected_rule (String.sub base 4 (String.length base - 4)) with
        | None -> fail "%s: cannot derive an expected rule from the name" base
        | Some rule -> (
          covered := rule :: !covered;
          match o.findings with
          | [] -> fail "%s did not trigger %s" base rule
          | fs ->
            List.iter
              (fun (v : Src.finding) ->
                if not (String.equal v.rule rule) then
                  fail "%s tripped %s (line %d), expected only %s" base v.rule v.line
                    rule)
              fs)
      end
      else if String.starts_with ~prefix:"good_" base then
        List.iter
          (fun (v : Src.finding) -> fail "%s flagged: %s" base (Src.pp_finding v))
          o.findings
      else fail "%s: fixture names must start with bad_ or good_" base)
    files;
  List.iter
    (fun (r, _) ->
      if not (List.exists (String.equal r) !covered) then
        fail "rule %s has no bad fixture" r)
    rules;
  !ok
