open Tric_graph
module Int_set = Set.Make (Int)

let bound_set = function
  | [] -> Int_set.empty
  | e :: _ -> Int_set.of_list (Embedding.bound_vids e)

let dedup es =
  let seen = Embedding.Tbl.create ((List.length es * 2) + 1) in
  List.filter
    (fun e ->
      if Embedding.Tbl.mem seen e then false
      else begin
        Embedding.Tbl.add seen e ();
        true
      end)
    es

let of_packed ~width ~vids packs =
  List.concat_map
    (fun p ->
      let out = ref [] in
      for i = Rows.packed_count p - 1 downto 0 do
        match Embedding.of_packed ~width ~vids p i with
        | Some e -> out := e :: !out
        | None -> ()
      done;
      !out)
    packs

let join left right =
  match (left, right) with
  | [], _ | _, [] -> []
  | _ ->
    let shared = Int_set.elements (Int_set.inter (bound_set left) (bound_set right)) in
    if shared = [] then
      (* Cartesian product; rare (paths of a connected pattern normally
         intersect) but required for completeness. *)
      dedup
        (List.concat_map
           (fun a -> List.filter_map (fun b -> Embedding.merge a b) right)
           left)
    else begin
      (* Build on the smaller side; key by the typed int-array projection
         onto the shared vids. *)
      let shared = Array.of_list shared in
      let build, probe, flip =
        if List.length left <= List.length right then (left, right, false)
        else (right, left, true)
      in
      let table = Embedding.Key.Tbl.create (List.length build * 2) in
      List.iter
        (fun e ->
          let k = Embedding.Key.of_embedding e shared in
          Embedding.Key.Tbl.replace table k
            (e :: Option.value ~default:[] (Embedding.Key.Tbl.find_opt table k)))
        build;
      let results =
        List.concat_map
          (fun e ->
            let k = Embedding.Key.of_embedding e shared in
            match Embedding.Key.Tbl.find_opt table k with
            | None -> []
            | Some mates ->
              List.filter_map
                (fun m -> if flip then Embedding.merge m e else Embedding.merge e m)
                mates)
          probe
      in
      dedup results
    end

(* Join-order heuristic shared by both multi-way joins: maximise shared
   vids (selective joins first), break ties towards the smaller operand
   (cheaper join) — cardinality-aware ordering in the spirit of the
   paper's workload-statistics outlook.  Earlier operands win ties. *)
let pick_next ~vids ~size acc_vids remaining =
  let score x = (Int_set.cardinal (Int_set.inter (vids x) acc_vids), -size x) in
  let better (s1, n1) (s2, n2) = s1 > s2 || (s1 = s2 && n1 > n2) in
  List.fold_left
    (fun best cand ->
      match best with
      | None -> Some cand
      | Some b -> if better (score cand) (score b) then Some cand else best)
    None remaining

let join_many operands =
  match operands with
  | [] -> []
  | first :: rest ->
    if List.exists (fun l -> l = []) operands then []
    else begin
      let remaining = ref (List.mapi (fun i l -> (i, l, bound_set l)) rest) in
      let acc = ref first in
      let acc_vids = ref (bound_set first) in
      while !remaining <> [] do
        match
          pick_next
            ~vids:(fun (_, _, v) -> v)
            ~size:(fun (_, l, _) -> List.length l)
            !acc_vids !remaining
        with
        | None -> remaining := []
        | Some (i, l, vids) ->
          acc := join !acc l;
          acc_vids := Int_set.union !acc_vids vids;
          remaining := List.filter (fun (j, _, _) -> j <> i) !remaining;
          if !acc = [] then remaining := []
      done;
      !acc
    end

(* -- Joins against views read in place ---------------------------------------- *)

type 'r view = {
  src : 'r;
  vids : int array;
  size : int;
  cell : 'r -> int -> int -> Label.t;
  iter : (int -> unit) -> 'r -> unit;
  probe : ('r -> col:int -> Label.t -> Rows.Vec.t option) option;
  plus : Embedding.t list;
  minus : unit Embedding.Tbl.t option;
}

let view ?(plus = []) ?minus ?probe ~vids ~size ~cell ~iter src =
  { src; vids; size = size + List.length plus; cell; iter; probe; plus; minus }

(* The view's last column whose vid the accumulated side binds: the
   probe column of TRIC+ and the table key of TRIC.  Taking the last one
   favours a terminal's hinge column, whose index the trie descent may
   already maintain. *)
let key_col v acc_vids =
  let c = ref (-1) in
  Array.iteri (fun i vid -> if Int_set.mem vid acc_vids then c := i) v.vids;
  !c

(* One join step: every accumulated embedding against [v]'s live rows
   (less [minus], plus [plus]).  All embeddings of [acc] bind the same
   vids and view rows are distinct, so a merged result determines its
   (embedding, row) pair: no step produces a duplicate. *)
let join_view acc acc_vids v =
  let out = ref [] in
  let keep row =
    match v.minus with
    | None -> true
    | Some minus -> (
      let none = Embedding.empty (Embedding.width (List.hd acc)) in
      match Embedding.bind_cells none ~vids:v.vids v.cell v.src row with
      | Some own -> not (Embedding.Tbl.mem minus own)
      | None -> true)
  in
  let merge e row =
    match Embedding.bind_cells e ~vids:v.vids v.cell v.src row with
    | Some m when keep row -> out := m :: !out
    | Some _ | None -> ()
  in
  let col = key_col v acc_vids in
  (if col < 0 then
     (* Cartesian product; rare (paths of a connected pattern normally
        intersect) but required for completeness. *)
     v.iter (fun row -> List.iter (fun e -> merge e row) acc) v.src
   else
     let vid = v.vids.(col) in
     match v.probe with
     | Some probe ->
       (* TRIC+: probe the view's maintained column index per embedding. *)
       List.iter
         (fun e ->
           match probe v.src ~col (Embedding.bound e vid) with
           | None -> ()
           | Some bucket ->
             for i = 0 to Rows.Vec.length bucket - 1 do
               merge e (Rows.Vec.get bucket i)
             done)
         acc
     | None ->
       (* TRIC: build on the accumulated (delta) side, scan the view. *)
       let table = Label.Tbl.create (2 * List.length acc) in
       List.iter
         (fun e ->
           let k = Embedding.bound e vid in
           Label.Tbl.replace table k
             (e :: Option.value ~default:[] (Label.Tbl.find_opt table k)))
         acc;
       v.iter
         (fun row ->
           match Label.Tbl.find_opt table (v.cell v.src row col) with
           | None -> ()
           | Some mates -> List.iter (fun e -> merge e row) mates)
         v.src);
  match v.plus with [] -> !out | plus -> join acc plus @ !out

let join_views acc views =
  if views = [] then acc
  else if acc = [] || List.exists (fun v -> v.size = 0) views then []
  else begin
    let acc = ref acc and acc_vids = ref (bound_set acc) in
    let remaining =
      ref (List.mapi (fun i v -> (i, v, Int_set.of_list (Array.to_list v.vids))) views)
    in
    while !remaining <> [] do
      match
        pick_next ~vids:(fun (_, _, s) -> s) ~size:(fun (_, v, _) -> v.size) !acc_vids
          !remaining
      with
      | None -> remaining := []
      | Some (i, v, vids) ->
        acc := join_view !acc !acc_vids v;
        acc_vids := Int_set.union !acc_vids vids;
        remaining := List.filter (fun (j, _, _) -> j <> i) !remaining;
        if !acc = [] then remaining := []
    done;
    !acc
  end
