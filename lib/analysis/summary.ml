(* Per-file Parsetree summaries.

   One pass over a parsed implementation produces, per top-level binding:
   its parameters, the toplevel values it references (resolved through
   module aliases), every mutation it performs (with the inferred target
   class and the Mutex lock state at that point), the Pool/Domain task
   submission sites it contains, its local let-bindings (for task-array
   substitution) and whether its right-hand side allocates module-level
   mutable state.  Check.ml turns these summaries into findings.

   The walk also emits the footgun rules (poly-compare / poly-hash /
   poly-equal / obj-magic / catch-all / toplevel-mutable): resolution
   through [env] and the alias table is what makes them precise where a
   token scan could only pattern-match names. *)

open Parsetree
module SMap = Map.Make (String)
module SSet = Set.Make (String)

type vref = { r_mod : string; r_name : string; r_line : int }

type target =
  | Owned  (* locally allocated in this binding: record/array literal, create/make/... *)
  | Var of string  (* a parameter or non-owning local: caller-supplied state *)
  | Toplevel of string * string  (* a module-level value: shared across domains *)
  | Opaque

type lock =
  | Held
  | Unheld
  | Mixed

type mutation = { m_line : int; m_target : target; m_lock : lock }
type pool_site = { ps_kind : string; ps_task : expression; ps_line : int }

type call_site = {
  c_callee : string;
  c_args : (Asttypes.arg_label * expression) list;
  c_line : int;
}

type binding = {
  b_module : string;
  b_inner : string option;  (* enclosing nested module, if any *)
  b_name : string;
  b_line : int;
  b_params : (string option * string option) list;  (* (label, var) per parameter *)
  b_mutable_value : bool;
  b_refs : vref list;
  b_muts : mutation list;
  b_pool : pool_site list;
  b_calls : call_site list;
  b_locals : (string * expression) list;
  mutable b_shared : bool;
}

type ctx = {
  cx_path : string;
  cx_in_lib : bool;
  cx_module : string;
  cx_top : SSet.t;
  cx_aliases : string SMap.t;
}

type file = {
  f_path : string;
  f_module : string;
  f_in_lib : bool;
  f_spawns : bool;
  f_bindings : binding list;
  f_findings : Src.finding list;
  f_ctx : ctx;
}

type acc = {
  mutable a_refs : vref list;
  mutable a_muts : mutation list;
  mutable a_pool : pool_site list;
  mutable a_calls : call_site list;
  mutable a_locals : (string * expression) list;
  mutable a_applied : string list;
  mutable a_spawns : bool;
  mutable a_findings : Src.finding list;
}

let fresh_acc () =
  {
    a_refs = [];
    a_muts = [];
    a_pool = [];
    a_calls = [];
    a_locals = [];
    a_applied = [];
    a_spawns = false;
    a_findings = [];
  }

let line_of (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

(* Longident.flatten raises on functor applications; fold them away. *)
let rec flat acc li =
  match li with
  | Longident.Lident s -> s :: acc
  | Longident.Ldot (l, s) -> flat (s :: acc) l
  | Longident.Lapply (_, l) -> flat acc l

(* Resolve a long identifier to (module, name), where [module] is the
   last qualifier after chasing [module M = Path.To.M'] aliases; bare
   identifiers resolve to ("", name). *)
let resolve ctx li =
  match List.rev (flat [] li) with
  | [] -> ("", "")
  | [ x ] -> ("", x)
  | x :: m :: _ ->
    let m = match SMap.find_opt m ctx.cx_aliases with Some r -> r | None -> m in
    (m, x)

let last_component li =
  match List.rev (flat [] li) with [] -> "" | x :: _ -> x

let is_nolabel = function Asttypes.Nolabel -> true | _ -> false

let nolabel_args args =
  List.filter_map (fun (l, a) -> if is_nolabel l then Some a else None) args

(* -- Patterns ---------------------------------------------------------------- *)

let rec pat_vars p acc =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> txt :: acc
  | Ppat_alias (p, { txt; _ }) -> pat_vars p (txt :: acc)
  | Ppat_tuple ps | Ppat_array ps -> List.fold_left (fun a p -> pat_vars p a) acc ps
  | Ppat_construct (_, Some (_, p)) -> pat_vars p acc
  | Ppat_variant (_, Some p) -> pat_vars p acc
  | Ppat_record (fields, _) -> List.fold_left (fun a (_, p) -> pat_vars p a) acc fields
  | Ppat_or (a, b) -> pat_vars a (pat_vars b acc)
  | Ppat_constraint (p, _) | Ppat_lazy p | Ppat_open (_, p) | Ppat_exception p ->
    pat_vars p acc
  | _ -> acc

let rec simple_var p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) -> simple_var p
  | _ -> None

(* Does this pattern match every exception?  [_], [_name], or an
   or/alias/constraint wrapper around one. *)
let rec is_catch_all p =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_var { txt; _ } -> String.length txt > 0 && txt.[0] = '_'
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> is_catch_all p
  | Ppat_or (a, b) -> is_catch_all a || is_catch_all b
  | _ -> false

(* -- Effect tables ----------------------------------------------------------- *)

(* Known mutators: (module, name) -> index of the mutated operand among
   the positional arguments. *)
let mutator_index m x =
  match (m, x) with
  | ("Hashtbl" | "Tbl"), ("add" | "replace" | "remove" | "reset" | "clear") -> Some 0
  | ("Hashtbl" | "Tbl"), "filter_map_inplace" -> Some 1
  | ("Array" | "Bytes"), ("set" | "unsafe_set" | "fill") -> Some 0
  | ("Array" | "Bytes"), "blit" -> Some 2
  | "Array", ("sort" | "fast_sort") -> Some 1
  | "Queue", ("push" | "add") -> Some 1
  | "Queue", ("pop" | "take" | "take_opt" | "clear" | "transfer") -> Some 0
  | "Stack", "push" -> Some 1
  | "Stack", ("pop" | "pop_opt" | "clear") -> Some 0
  | ( "Buffer",
      ( "add_string" | "add_char" | "add_bytes" | "add_substring" | "clear" | "reset"
      | "truncate" ) ) -> Some 0
  | "Atomic", ("set" | "exchange" | "compare_and_set" | "fetch_and_add" | "incr" | "decr")
    -> Some 0
  (* The server's per-client outboxes: single-writer by contract (the
     event loop owns every outbox); any pool task reaching one is a
     domain-ownership violation. *)
  | "Outbox", ("push" | "ack" | "rewind" | "take_to_send") -> Some 0
  | "", (":=" | "incr" | "decr") -> Some 0
  | _ -> None

(* Allocators of module-level mutable state, for the toplevel-mutable
   rule and for classifying let-bound locals as Owned. *)
let alloc_module m =
  match m with
  | "Hashtbl" | "Tbl" | "Queue" | "Buffer" | "Stack" | "Mutex" | "Condition" | "Atomic"
  | "Array" | "Bytes" | "Weak" | "Registry" | "Span" | "Histogram" | "Dynarray" | "Outbox"
    -> true
  | _ -> false

let allocator m x =
  (String.equal m "" && String.equal x "ref")
  || (String.equal m "Domain" && String.equal x "spawn")
  || alloc_module m
     &&
     match x with
     | "create" | "make" | "init" | "create_float" | "of_list" | "of_seq" | "copy" -> true
     | _ -> false

(* Right-hand sides whose value is freshly allocated by this binding
   (so mutating through the bound name stays binding-local). *)
let owning_call x =
  match x with
  | "ref" | "create" | "make" | "init" | "copy" | "of_list" | "of_seq" | "create_float"
  | "sub" | "map" | "mapi" | "of_array" | "concat" | "append" -> true
  | _ -> false

let rec owning_rhs e =
  match e.pexp_desc with
  | Pexp_record _ | Pexp_tuple _ | Pexp_array _ | Pexp_function _ | Pexp_fun _
  | Pexp_lazy _ | Pexp_constant _ | Pexp_construct _ | Pexp_variant _ -> true
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> owning_rhs e
  | Pexp_sequence (_, e) | Pexp_let (_, _, e) | Pexp_open (_, e) -> owning_rhs e
  | Pexp_ifthenelse (_, t, Some e) -> owning_rhs t && owning_rhs e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    owning_call (last_component txt)
  | _ -> false

(* First mutable allocation in a toplevel right-hand side, skipping
   function/lazy abstractions (those allocate per call, not at module
   initialisation). *)
let rec mutable_alloc ctx e =
  let first f xs = List.find_map f xs in
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ -> None
  | Pexp_apply (({ pexp_desc = Pexp_ident { txt; _ }; _ } as f), args) ->
    let m, x = resolve ctx txt in
    if allocator m x then Some (line_of e.pexp_loc)
    else first (mutable_alloc ctx) (f :: List.map snd args)
  | Pexp_apply (f, args) -> first (mutable_alloc ctx) (f :: List.map snd args)
  | Pexp_array (_ :: _) -> Some (line_of e.pexp_loc)
  | Pexp_tuple es -> first (mutable_alloc ctx) es
  | Pexp_record (fields, base) ->
    first (mutable_alloc ctx)
      (List.map snd fields @ match base with Some b -> [ b ] | None -> [])
  | Pexp_construct (_, Some e) | Pexp_variant (_, Some e) | Pexp_constraint (e, _) ->
    mutable_alloc ctx e
  | Pexp_let (_, vbs, body) ->
    first (mutable_alloc ctx) (List.map (fun vb -> vb.pvb_expr) vbs @ [ body ])
  | Pexp_sequence (a, b) -> first (mutable_alloc ctx) [ a; b ]
  | Pexp_ifthenelse (_, t, eo) ->
    first (mutable_alloc ctx) (t :: (match eo with Some e -> [ e ] | None -> []))
  | _ -> None

(* -- Divergence and lock joins ----------------------------------------------- *)

let rec diverges e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
    match last_component txt with
    | "raise" | "raise_notrace" | "failwith" | "invalid_arg" | "exit" -> true
    | _ -> false)
  | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ } ->
    true
  | Pexp_unreachable -> true
  | Pexp_sequence (_, e)
  | Pexp_let (_, _, e)
  | Pexp_open (_, e)
  | Pexp_constraint (e, _) -> diverges e
  | Pexp_ifthenelse (_, t, Some e) -> diverges t && diverges e
  | _ -> false

let join a b =
  match (a, b) with Held, Held -> Held | Unheld, Unheld -> Unheld | _ -> Mixed

(* -- The walk ----------------------------------------------------------------- *)

type kind =
  | Kowned
  | Klocal

let walk_expr ctx acc env0 lock0 e0 =
  let finding line rule text =
    acc.a_findings <- { Src.file = ctx.cx_path; line; rule; text } :: acc.a_findings
  in
  let add_ref m x line = acc.a_refs <- { r_mod = m; r_name = x; r_line = line } :: acc.a_refs in
  let add_applied x =
    if not (List.exists (String.equal x) acc.a_applied) then
      acc.a_applied <- x :: acc.a_applied
  in
  let bind_pat env p = List.fold_left (fun ev x -> SMap.add x Klocal ev) env (pat_vars p []) in
  let rec head_target env e =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident x; _ } -> (
      match SMap.find_opt x env with
      | Some Kowned -> Owned
      | Some Klocal -> Var x
      | None -> if SSet.mem x ctx.cx_top then Toplevel (ctx.cx_module, x) else Opaque)
    | Pexp_ident { txt; _ } -> (
      match resolve ctx txt with ("", _) -> Opaque | m, x -> Toplevel (m, x))
    | Pexp_field (e, _) | Pexp_constraint (e, _) -> head_target env e
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
      let deref =
        match resolve ctx txt with
        | "", "!" -> true
        | ("Array" | "Bytes" | "String"), "get" -> true
        | ("Hashtbl" | "Tbl"), "find" -> true
        | _ -> false
      in
      if not deref then Opaque
      else
        match nolabel_args args with a :: _ -> head_target env a | [] -> Opaque)
    | _ -> Opaque
  in
  let rec go env lock e =
    let lnum = line_of e.pexp_loc in
    match e.pexp_desc with
    | Pexp_ident { txt; _ } ->
      (let m, x = resolve ctx txt in
       if String.equal m "" then begin
         if not (SMap.mem x env) then
           if SSet.mem x ctx.cx_top then add_ref ctx.cx_module x lnum
           else if String.equal x "compare" then
             finding lnum "poly-compare"
               "bare compare resolves to Stdlib.compare (memory-representation order); \
                use a typed compare"
       end
       else begin
         add_ref m x lnum;
         match (m, x) with
         | ("Stdlib" | "Pervasives"), "compare" ->
           finding lnum "poly-compare"
             "Stdlib.compare orders by memory representation; use a typed compare"
         | "Hashtbl", ("hash" | "seeded_hash") ->
           finding lnum "poly-hash"
             "Hashtbl.hash is polymorphic (and truncating); use a typed hash"
         | "Obj", "magic" -> finding lnum "obj-magic" "Obj.magic defeats the type system"
         | "List", ("mem" | "assoc" | "mem_assoc" | "remove_assoc" | "assoc_opt") ->
           finding lnum "poly-equal"
             ("List." ^ x
            ^ " uses polymorphic =; use List.exists/find_opt with an explicit equality")
         | _ -> ()
       end);
      lock
    | Pexp_constant _ -> lock
    | Pexp_let (rf, vbs, body) ->
      let is_rec = match rf with Asttypes.Recursive -> true | _ -> false in
      let env_rhs =
        if is_rec then List.fold_left (fun ev vb -> bind_pat ev vb.pvb_pat) env vbs
        else env
      in
      let lock = List.fold_left (fun lk vb -> go env_rhs lk vb.pvb_expr) lock vbs in
      List.iter
        (fun vb ->
          match simple_var vb.pvb_pat with
          | Some x -> acc.a_locals <- (x, vb.pvb_expr) :: acc.a_locals
          | None -> ())
        vbs;
      let env' =
        List.fold_left
          (fun ev vb ->
            match simple_var vb.pvb_pat with
            | Some x ->
              SMap.add x (if owning_rhs vb.pvb_expr then Kowned else Klocal) ev
            | None -> bind_pat ev vb.pvb_pat)
          env vbs
      in
      go env' lock body
    | Pexp_fun (_, default, pat, body) ->
      let lock = match default with Some d -> go env lock d | None -> lock in
      ignore (go (bind_pat env pat) Unheld body);
      lock
    | Pexp_function cases ->
      List.iter
        (fun c ->
          let env' = bind_pat env c.pc_lhs in
          (match c.pc_guard with Some g -> ignore (go env' Unheld g) | None -> ());
          ignore (go env' Unheld c.pc_rhs))
        cases;
      lock
    | Pexp_apply (f, args) ->
      (* structural notes first: pool sites, local calls, applied params *)
      (match f.pexp_desc with
      | Pexp_ident { txt; _ } -> (
        let m, x = resolve ctx txt in
        if String.equal m "" && (SMap.mem x env || not (SSet.mem x ctx.cx_top)) then
          add_applied x
        else begin
          if String.equal m "" && SSet.mem x ctx.cx_top then
            acc.a_calls <- { c_callee = x; c_args = args; c_line = lnum } :: acc.a_calls;
          if String.equal m "Pool" && (String.equal x "run" || String.equal x "run_seq")
          then (
            match List.rev (nolabel_args args) with
            | task :: _ ->
              acc.a_pool <- { ps_kind = x; ps_task = task; ps_line = lnum } :: acc.a_pool
            | [] -> ());
          if String.equal m "Domain" && String.equal x "spawn" then begin
            acc.a_spawns <- true;
            match nolabel_args args with
            | task :: _ ->
              acc.a_pool <-
                { ps_kind = "spawn"; ps_task = task; ps_line = lnum } :: acc.a_pool
            | [] -> ()
          end
        end)
      | _ -> ());
      let lock' = List.fold_left (fun lk (_, a) -> go env lk a) (go env lock f) args in
      (match f.pexp_desc with
      | Pexp_ident { txt; _ } -> (
        let m, x = resolve ctx txt in
        let shadowed = String.equal m "" && (SMap.mem x env || SSet.mem x ctx.cx_top) in
        if shadowed then lock'
        else if String.equal m "Mutex" && String.equal x "lock" then Held
        else if String.equal m "Mutex" && String.equal x "unlock" then Unheld
        else begin
          (match mutator_index m x with
          | Some k -> (
            match List.nth_opt (nolabel_args args) k with
            | Some tgt -> (
              match head_target env tgt with
              | Owned -> ()
              | target ->
                acc.a_muts <-
                  { m_line = lnum; m_target = target; m_lock = lock' } :: acc.a_muts)
            | None -> ())
          | None -> ());
          lock'
        end)
      | _ -> lock')
    | Pexp_match (scr, cases) | Pexp_try (scr, cases) ->
      List.iter
        (fun c ->
          let bad =
            match (e.pexp_desc, c.pc_lhs.ppat_desc) with
            | Pexp_try _, _ -> is_catch_all c.pc_lhs
            | _, Ppat_exception p -> is_catch_all p
            | _ -> false
          in
          if bad then
            finding
              (line_of c.pc_lhs.ppat_loc)
              "catch-all"
              "handler swallows every exception (Out_of_memory, Stack_overflow, asserts); \
               name the ones you mean")
        cases;
      let ls = go env lock scr in
      let final =
        List.fold_left
          (fun st c ->
            let env' = bind_pat env c.pc_lhs in
            (match c.pc_guard with Some g -> ignore (go env' ls g) | None -> ());
            let lb = go env' ls c.pc_rhs in
            if diverges c.pc_rhs then st
            else match st with None -> Some lb | Some s -> Some (join s lb))
          None cases
      in
      (match final with None -> ls | Some s -> s)
    | Pexp_tuple es | Pexp_array es -> List.fold_left (fun lk x -> go env lk x) lock es
    | Pexp_construct (_, Some e) | Pexp_variant (_, Some e) -> go env lock e
    | Pexp_construct (_, None) | Pexp_variant (_, None) -> lock
    | Pexp_record (fields, base) ->
      let lock = List.fold_left (fun lk (_, x) -> go env lk x) lock fields in
      (match base with Some b -> go env lock b | None -> lock)
    | Pexp_field (e, _) -> go env lock e
    | Pexp_setfield (e1, _, e2) ->
      let lock = go env (go env lock e1) e2 in
      (match head_target env e1 with
      | Owned -> ()
      | target ->
        acc.a_muts <- { m_line = lnum; m_target = target; m_lock = lock } :: acc.a_muts);
      lock
    | Pexp_ifthenelse (c, t, eo) -> (
      let lc = go env lock c in
      let lt = go env lc t in
      match eo with
      | None -> if diverges t then lc else join lc lt
      | Some e ->
        let le = go env lc e in
        if diverges t then le else if diverges e then lt else join lt le)
    | Pexp_sequence (a, b) -> go env (go env lock a) b
    | Pexp_while (c, b) ->
      ignore (go env lock c);
      ignore (go env lock b);
      lock
    | Pexp_for (p, lo, hi, _, b) ->
      let lock = go env (go env lock lo) hi in
      ignore (go (bind_pat env p) lock b);
      lock
    | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> go env lock e
    | Pexp_lazy e ->
      ignore (go env Unheld e);
      lock
    | Pexp_assert e -> go env lock e
    | Pexp_letmodule (_, _, body) | Pexp_letexception (_, body) -> go env lock body
    | Pexp_open (_, body) | Pexp_newtype (_, body) -> go env lock body
    | Pexp_letop { let_; ands; body } ->
      let ops = let_ :: ands in
      let lock = List.fold_left (fun lk op -> go env lk op.pbop_exp) lock ops in
      let env' = List.fold_left (fun ev op -> bind_pat ev op.pbop_pat) env ops in
      go env' lock body
    | _ -> lock
  in
  go env0 lock0 e0

(* Free references of an expression: toplevel/qualified values it touches
   plus the bare non-toplevel names it applies (candidate forwarded
   parameters of the enclosing binding). *)
let free_refs ctx e =
  let acc = fresh_acc () in
  ignore (walk_expr ctx acc SMap.empty Unheld e);
  (acc.a_refs, acc.a_applied)

(* -- File summaries ----------------------------------------------------------- *)

let module_binding_name mb = match mb.pmb_name.txt with Some s -> s | None -> "_"

let rec top_names str (names, aliases) =
  List.fold_left
    (fun (names, aliases) item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        ( List.fold_left
            (fun ns vb -> SSet.union ns (SSet.of_list (pat_vars vb.pvb_pat [])))
            names vbs,
          aliases )
      | Pstr_primitive vd -> (SSet.add vd.pval_name.txt names, aliases)
      | Pstr_module mb -> (
        let mname = module_binding_name mb in
        match mb.pmb_expr.pmod_desc with
        | Pmod_ident { txt; _ } -> (names, SMap.add mname (last_component txt) aliases)
        | Pmod_structure inner -> top_names inner (names, aliases)
        | _ -> (names, aliases))
      | Pstr_recmodule mbs ->
        List.fold_left
          (fun st mb ->
            match mb.pmb_expr.pmod_desc with
            | Pmod_structure inner -> top_names inner st
            | _ -> st)
          (names, aliases) mbs
      | _ -> (names, aliases))
    (names, aliases) str

let rec peel_params acc e =
  match e.pexp_desc with
  | Pexp_fun (lab, _, pat, body) ->
    let lname =
      match lab with
      | Asttypes.Nolabel -> None
      | Asttypes.Labelled s | Asttypes.Optional s -> Some s
    in
    peel_params ((lname, simple_var pat) :: acc) body
  | Pexp_newtype (_, body) | Pexp_constraint (body, _) -> peel_params acc body
  | _ -> List.rev acc

let summarise ~path src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with
  | exception Syntaxerr.Error err ->
    Error (line_of (Syntaxerr.location_of_error err), "syntax error")
  | exception Lexer.Error (_, loc) -> Error (line_of loc, "lexical error")
  | exception exn -> Error (1, Printexc.to_string exn)
  | str ->
    let modname =
      String.capitalize_ascii (Filename.remove_extension (Filename.basename path))
    in
    let tops, aliases = top_names str (SSet.empty, SMap.empty) in
    let ctx =
      {
        cx_path = path;
        cx_in_lib = Src.in_lib path;
        cx_module = modname;
        cx_top = tops;
        cx_aliases = aliases;
      }
    in
    let findings = ref [] in
    let spawns = ref false in
    let bindings = ref [] in
    let do_expr inner name line e =
      let acc = fresh_acc () in
      ignore (walk_expr ctx acc SMap.empty Unheld e);
      if acc.a_spawns then spawns := true;
      findings := acc.a_findings @ !findings;
      let mut = mutable_alloc ctx e in
      (match mut with
      | Some aline when ctx.cx_in_lib ->
        findings :=
          {
            Src.file = path;
            line = aline;
            rule = "toplevel-mutable";
            text =
              "module-level mutable state is shared across engine instances and domains; \
               own it in Shard.t / a coordinator record";
          }
          :: !findings
      | _ -> ());
      bindings :=
        {
          b_module = modname;
          b_inner = inner;
          b_name = name;
          b_line = line;
          b_params = peel_params [] e;
          b_mutable_value = Option.is_some mut;
          b_refs = acc.a_refs;
          b_muts = acc.a_muts;
          b_pool = acc.a_pool;
          b_calls = acc.a_calls;
          b_locals = acc.a_locals;
          b_shared = false;
        }
        :: !bindings
    in
    let rec do_structure inner str =
      List.iter
        (fun item ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                let line = line_of vb.pvb_loc in
                let name =
                  match simple_var vb.pvb_pat with
                  | Some x -> x
                  | None -> Printf.sprintf "(init:%d)" line
                in
                do_expr inner name line vb.pvb_expr)
              vbs
          | Pstr_eval (e, _) ->
            do_expr inner (Printf.sprintf "(eval:%d)" (line_of e.pexp_loc))
              (line_of e.pexp_loc) e
          | Pstr_module mb -> (
            match mb.pmb_expr.pmod_desc with
            | Pmod_structure s -> do_structure (Some (module_binding_name mb)) s
            | _ -> ())
          | Pstr_recmodule mbs ->
            List.iter
              (fun mb ->
                match mb.pmb_expr.pmod_desc with
                | Pmod_structure s -> do_structure (Some (module_binding_name mb)) s
                | _ -> ())
              mbs
          | _ -> ())
        str
    in
    do_structure None str;
    Ok
      {
        f_path = path;
        f_module = modname;
        f_in_lib = ctx.cx_in_lib;
        f_spawns = !spawns;
        f_bindings = List.rev !bindings;
        f_findings = List.rev !findings;
        f_ctx = ctx;
      }
