type t = int

(* Global intern table — the one sanctioned piece of module-level mutable
   state.  Interning happens exclusively on the main domain (parsing and
   query registration); shard tasks only read already-interned ints, so
   no synchronisation is needed.  See DESIGN.md "Sharding". *)
let by_string : (string, int) Hashtbl.t = Hashtbl.create 4096 (* check: allow toplevel-mutable — interner, main domain only *)
let names : string array ref = ref (Array.make 4096 "") (* check: allow toplevel-mutable — interner, main domain only *)
let next = ref 0 (* check: allow toplevel-mutable — interner, main domain only *)

let intern s =
  match Hashtbl.find_opt by_string s with
  | Some id -> id
  | None ->
    let id = !next in
    incr next;
    if id >= Array.length !names then begin
      let bigger = Array.make (2 * Array.length !names) "" in
      Array.blit !names 0 bigger 0 (Array.length !names);
      names := bigger
    end;
    !names.(id) <- s;
    Hashtbl.add by_string s id;
    id

let to_string l = !names.(l)
let to_int l = l

let of_int i =
  if i < 0 || i >= !next then invalid_arg "Label.of_int: not interned";
  i

let fresh_counter = ref 0 (* check: allow toplevel-mutable — interner, main domain only *)

let rec fresh prefix =
  let candidate = Printf.sprintf "%s#%d" prefix !fresh_counter in
  incr fresh_counter;
  if Hashtbl.mem by_string candidate then fresh prefix else intern candidate

let count () = !next
let equal (a : t) b = a = b
let compare (a : t) b = Int.compare a b
let hash (l : t) = l land max_int
let pp fmt l = Format.pp_print_string fmt (to_string l)

module Key = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
  let compare = compare
end

module Tbl = Hashtbl.Make (Key)
module Set = Set.Make (Key)
module Map = Map.Make (Key)
