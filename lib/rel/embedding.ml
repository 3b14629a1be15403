open Tric_graph

(* -1 encodes "unbound"; label ids are non-negative. *)
type t = int array

let unbound = -1
let empty width = Array.make width unbound
let width = Array.length
let get e vid = if e.(vid) = unbound then None else Some (Label.of_int e.(vid))
let is_bound e vid = e.(vid) <> unbound
let is_total e = Array.for_all (fun x -> x <> unbound) e

let bind e vid l =
  let li = Label.to_int l in
  if e.(vid) = unbound then begin
    let e' = Array.copy e in
    e'.(vid) <- li;
    Some e'
  end
  else if e.(vid) = li then Some e
  else None

let bind_tuple e ~vids tuple =
  if Array.length vids <> Tuple.width tuple then
    invalid_arg "Embedding.bind_tuple: length mismatch";
  let e' = Array.copy e in
  let ok = ref true in
  Array.iteri
    (fun i vid ->
      let li = Label.to_int (Tuple.get tuple i) in
      if e'.(vid) = unbound then e'.(vid) <- li else if e'.(vid) <> li then ok := false)
    vids;
  if !ok then Some e' else None

let of_tuple ~width ~vids tuple = bind_tuple (empty width) ~vids tuple

(* Packed-row counterpart of [bind_tuple]: the arena already stores
   interned label ints, so binding is a straight copy — no Label round
   trip, no boxed tuple on the hot path. *)
let bind_packed e ~vids p i =
  let w = Rows.packed_width p in
  if Array.length vids <> w then invalid_arg "Embedding.bind_packed: length mismatch";
  let e' = Array.copy e in
  let ok = ref true in
  for c = 0 to w - 1 do
    let li = Rows.packed_get p i c in
    let vid = vids.(c) in
    if e'.(vid) = unbound then e'.(vid) <- li else if e'.(vid) <> li then ok := false
  done;
  if !ok then Some e' else None

let of_packed ~width ~vids p i = bind_packed (empty width) ~vids p i

(* Row-reader counterpart: check every column before copying, so a join
   hit that conflicts (a shared vid, or a repeated variable within the
   path) allocates nothing. *)
let bind_cells e ~vids cell src row =
  let ok = ref true and fresh = ref false in
  Array.iteri
    (fun c vid ->
      let li = Label.to_int (cell src row c) in
      if e.(vid) = unbound then fresh := true else if e.(vid) <> li then ok := false)
    vids;
  if not !ok then None
  else if not !fresh then Some e
  else begin
    let e' = Array.copy e in
    let ok = ref true in
    Array.iteri
      (fun c vid ->
        let li = Label.to_int (cell src row c) in
        if e'.(vid) = unbound then e'.(vid) <- li else if e'.(vid) <> li then ok := false)
      vids;
    if !ok then Some e' else None
  end

let bound e vid =
  if e.(vid) = unbound then invalid_arg "Embedding.bound: unbound vid";
  Label.of_int e.(vid)

let merge a b =
  if Array.length a <> Array.length b then invalid_arg "Embedding.merge: width mismatch";
  let out = Array.copy a in
  let ok = ref true in
  Array.iteri
    (fun i x ->
      if x <> unbound then
        if out.(i) = unbound then out.(i) <- x else if out.(i) <> x then ok := false)
    b;
  if !ok then Some out else None

let bound_vids e =
  let acc = ref [] in
  for i = Array.length e - 1 downto 0 do
    if e.(i) <> unbound then acc := i :: !acc
  done;
  !acc

(* Join keys: the projection of an embedding onto the shared vids, as a
   raw int array with a typed table — replaces the old string-building
   [key] (one Buffer + string allocation per probe). *)
module Key = struct
  type emb = t
  type t = int array

  let of_embedding (e : emb) vids : t =
    Array.map
      (fun vid ->
        assert (e.(vid) <> unbound);
        e.(vid))
      vids

  module Tbl = Hashtbl.Make (struct
    type nonrec t = t

    let equal (a : t) b = a = b
    let hash (k : t) = Array.fold_left (fun h v -> ((h * 31) + v + 1) land max_int) 17 k
  end)
end

let equal (a : t) b = a = b

(* Typed hash/compare over the full int array: the polymorphic pair hashes
   only a bounded prefix and orders by representation. *)
let hash (e : t) = Array.fold_left (fun h v -> ((h * 31) + v + 1) land max_int) 17 e

let compare (a : t) b =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c
  else begin
    let rec go i =
      if i >= Array.length a then 0
      else
        let c = Int.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  end

let to_alist e =
  List.filter_map
    (fun vid -> match get e vid with Some l -> Some (vid, l) | None -> None)
    (List.init (Array.length e) Fun.id)

let pp fmt e =
  Format.fprintf fmt "{";
  List.iter (fun (vid, l) -> Format.fprintf fmt "v%d=%a " vid Label.pp l) (to_alist e);
  Format.fprintf fmt "}"

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
