(* Shared plumbing for the AST checker: findings, file IO, tree walking,
   a strings-only blanker and waiver-marker extraction.

   The blanker erases string literals (normal and quoted) but KEEPS
   comments, because the checker's waiver markers live in comments while
   the marker text itself must never be discoverable inside a string
   constant (the checker scans its own source, whose rule tables are
   string literals). *)

type finding = {
  file : string;
  line : int;
  rule : string;
  text : string;
}

type scope =
  | Line
  | File

type waiver = {
  w_file : string;
  w_line : int;
  w_rule : string;
  w_scope : scope;
  mutable w_used : bool;
}

let pp_finding v = Printf.sprintf "%s:%d: [%s] %s" v.file v.line v.rule v.text

let compare_finding a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = String.compare a.rule b.rule in
      if c <> 0 then c else String.compare a.text b.text

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let rec walk dir acc =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then
          if String.equal entry "_build" || (String.length entry > 0 && entry.[0] = '.')
          then acc
          else walk path acc
        else if Filename.check_suffix entry ".ml" then path :: acc
        else acc)
      acc (Sys.readdir dir)
  else acc

let ml_files dirs =
  List.sort String.compare (List.concat_map (fun d -> walk d []) dirs)

let in_lib path =
  String.length path >= 4 && String.equal (String.sub path 0 4) "lib/"

(* -- Strings-only blanking --------------------------------------------------- *)

let is_delim_char c = (c >= 'a' && c <= 'z') || c = '_'

let blank_strings src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  (* consume a normal string literal whose opening quote is at [i0];
     erase it (quotes included) when [erase]; return the index just past
     the closing quote. *)
  let eat_string erase i0 =
    if erase then blank i0;
    let i = ref (i0 + 1) in
    let stop = ref false in
    while (not !stop) && !i < n do
      (match src.[!i] with
      | '\\' when !i + 1 < n ->
        if erase then begin
          blank !i;
          blank (!i + 1)
        end;
        i := !i + 2
      | '"' ->
        if erase then blank !i;
        stop := true;
        incr i
      | _ ->
        if erase then blank !i;
        incr i)
    done;
    !i
  in
  (* Does a quoted-string opener (brace, delimiter ident, pipe) start
     at [i]? *)
  let quoted_opener i =
    src.[i] = '{'
    && begin
         let j = ref (i + 1) in
         while !j < n && is_delim_char src.[!j] do
           incr j
         done;
         !j < n && src.[!j] = '|'
       end
  in
  let eat_quoted erase i0 =
    let j = ref (i0 + 1) in
    while !j < n && is_delim_char src.[!j] do
      incr j
    done;
    let id = String.sub src (i0 + 1) (!j - i0 - 1) in
    let close = "|" ^ id ^ "}" in
    let cl = String.length close in
    if erase then
      for k = i0 to !j do
        blank k
      done;
    let i = ref (!j + 1) in
    let stop = ref false in
    while (not !stop) && !i < n do
      if !i + cl <= n && String.equal (String.sub src !i cl) close then begin
        if erase then
          for k = !i to !i + cl - 1 do
            blank k
          done;
        i := !i + cl;
        stop := true
      end
      else begin
        if erase then blank !i;
        incr i
      end
    done;
    !i
  in
  let i = ref 0 in
  let depth = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
      incr depth;
      i := !i + 2
    end
    else if !depth > 0 then begin
      (* Inside a comment: keep the text, but skip over string literals so
         a stray close-comment inside them cannot terminate the comment. *)
      if c = '*' && !i + 1 < n && src.[!i + 1] = ')' then begin
        decr depth;
        i := !i + 2
      end
      else if c = '\'' && !i + 2 < n && src.[!i + 1] = '"' && src.[!i + 2] = '\'' then
        (* the lexer accepts the char literal '"' inside comments too *)
        i := !i + 3
      else if c = '"' then i := eat_string false !i
      else if quoted_opener !i then i := eat_quoted false !i
      else incr i
    end
    else if c = '"' then i := eat_string true !i
    else if quoted_opener !i then i := eat_quoted true !i
    else if c = '\'' && !i + 2 < n && src.[!i + 1] = '"' && src.[!i + 2] = '\'' then
      (* the char literal '"' must not open a string *)
      i := !i + 3
    else incr i
  done;
  Bytes.to_string out

(* -- Waiver markers ---------------------------------------------------------- *)

(* A waiver is a comment marker naming the rule it excuses:
   line scope  -> marker, a space, then the rule name on the waived line;
   file scope  -> the marker with a "-file" suffix, then the rule name.
   The marker spelling is kept out of every comment in this library so the
   checker's own sources never parse as waived. *)
let marker = "check: allow"

let find_sub hay needle from =
  let hl = String.length hay and nl = String.length needle in
  let rec go i =
    if i + nl > hl then None
    else if String.equal (String.sub hay i nl) needle then Some i
    else go (i + 1)
  in
  go from

let is_rule_char c = (c >= 'a' && c <= 'z') || c = '-'

let waivers_of_source ~file src =
  let residue = blank_strings src in
  let lines = String.split_on_char '\n' residue in
  List.concat
    (List.mapi
       (fun idx line ->
         match find_sub line marker 0 with
         | None -> []
         | Some j ->
           let after = j + String.length marker in
           let scope, after =
             match find_sub line "-file" after with
             | Some k when k = after -> (File, after + 5)
             | _ -> (Line, after)
           in
           let k = ref after in
           let n = String.length line in
           while !k < n && line.[!k] = ' ' do
             incr k
           done;
           let r0 = !k in
           while !k < n && is_rule_char line.[!k] do
             incr k
           done;
           let rule = String.sub line r0 (!k - r0) in
           [ { w_file = file; w_line = idx + 1; w_rule = rule; w_scope = scope; w_used = false } ])
       lines)
