open Tric_graph
open Tric_query

(* Queries are grouped by their window spec; each group owns a private
   inner engine built by the factory, so expiry removals for one window
   shape never disturb queries scoped by another.  Retention bookkeeping
   (queues, deadlines, the watermark) lives here; all matching work stays
   in the inner engines, which see expiry as ordinary §4.3 removals. *)
type group = {
  spec : Wspec.t option;  (* None = unbounded pass-through *)
  inner : Matcher.t;
  (* Count windows: arrival order as a queue of stamped cells plus each
     live edge's newest stamp.  Refreshing a duplicate enqueues a newer
     cell; a cell whose stamp is not its edge's current one is stale
     (refreshed, or removed and perhaps re-added since) and is skipped on
     eviction (lazy deletion) instead of scanning. *)
  order : (int * Edge.t) Queue.t;
  cells : int Edge.Tbl.t;
  mutable stamp : int;  (* last stamp issued *)
  mutable bucket : int;  (* tumbling count: additions in the open bucket *)
  (* Time windows: edge -> expiry deadline, plus a lazily-invalidated
     min-heap of (deadline, edge) so each watermark advance pops exactly
     the expired suffix. *)
  deadline : int Edge.Tbl.t;
  mutable heap : (int * Edge.t) array;
  mutable heap_len : int;
}

type t = {
  factory : unit -> Matcher.t;
  default : Wspec.t option;  (* spec for queries without their own *)
  mutable groups : group list;  (* creation order *)
  owner : (int, group) Hashtbl.t;  (* qid -> its group *)
  slack : int;  (* allowed out-of-orderness, seconds *)
  mutable wm : int;  (* event-time watermark; min_int = none yet *)
  mutable late_dropped : int;
  mutable expired_edges : int;
  mutable expiry_batches : int;
  mutable suppress_expiry : bool;  (* Corrupt hook: audit must catch this *)
}

(* --- binary min-heap on deadline ------------------------------------- *)

let heap_swap h i j =
  let tmp = h.(i) in
  h.(i) <- h.(j);
  h.(j) <- tmp

let heap_push g d e =
  if g.heap_len = Array.length g.heap then begin
    let grown = Array.make (max 8 (2 * Array.length g.heap)) (d, e) in
    Array.blit g.heap 0 grown 0 g.heap_len;
    g.heap <- grown
  end;
  g.heap.(g.heap_len) <- (d, e);
  let i = ref g.heap_len in
  g.heap_len <- g.heap_len + 1;
  while !i > 0 && fst g.heap.((!i - 1) / 2) > fst g.heap.(!i) do
    let p = (!i - 1) / 2 in
    heap_swap g.heap !i p;
    i := p
  done

let heap_pop g =
  let root = g.heap.(0) in
  g.heap_len <- g.heap_len - 1;
  g.heap.(0) <- g.heap.(g.heap_len);
  let i = ref 0 in
  let sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let s = ref !i in
    if l < g.heap_len && fst g.heap.(l) < fst g.heap.(!s) then s := l;
    if r < g.heap_len && fst g.heap.(r) < fst g.heap.(!s) then s := r;
    if !s = !i then sifting := false
    else begin
      heap_swap g.heap !i !s;
      i := !s
    end
  done;
  root

(* --- groups ----------------------------------------------------------- *)

let new_group t spec =
  let g =
    {
      spec;
      inner = t.factory ();
      order = Queue.create ();
      cells = Edge.Tbl.create 256;
      stamp = 0;
      bucket = 0;
      deadline = Edge.Tbl.create 256;
      heap = [||];
      heap_len = 0;
    }
  in
  t.groups <- t.groups @ [ g ];
  g

let group_for t spec =
  match List.find_opt (fun g -> Option.equal Wspec.equal g.spec spec) t.groups with
  | Some g -> g
  | None -> new_group t spec

let is_time g =
  match g.spec with Some (Wspec.Time _) -> true | Some (Wspec.Count _) | None -> false

let group_live_edges g =
  if is_time g then Edge.Tbl.fold (fun e _ acc -> e :: acc) g.deadline []
  else Edge.Tbl.fold (fun e _ acc -> e :: acc) g.cells []

let group_live_count g =
  if is_time g then Edge.Tbl.length g.deadline else Edge.Tbl.length g.cells

(* --- constructor ------------------------------------------------------- *)

let make ?default ?(slack = 0) factory =
  if slack < 0 then invalid_arg "Window.make: slack < 0";
  let t =
    {
      factory;
      default;
      groups = [];
      owner = Hashtbl.create 64;
      slack;
      wm = min_int;
      late_dropped = 0;
      expired_edges = 0;
      expiry_batches = 0;
      suppress_expiry = false;
    }
  in
  (* A windowed default group exists from the start so updates preceding
     the first query registration are retained (and [engine] works).
     Without a default spec, clause-less queries run unwindowed and their
     group — like every spec group — is created at registration: an eager
     unbounded group would shadow the whole stream for nobody. *)
  (match default with Some _ -> ignore (group_for t default) | None -> ());
  t

(* --- query registry ---------------------------------------------------- *)

let add_query t p =
  let spec = match Pattern.window p with Some w -> Some w | None -> t.default in
  let g = group_for t spec in
  g.inner.Matcher.add_query p;
  Hashtbl.replace t.owner (Pattern.id p) g

let remove_query t qid =
  match Hashtbl.find_opt t.owner qid with
  | None -> false
  | Some g ->
    Hashtbl.remove t.owner qid;
    g.inner.Matcher.remove_query qid

let num_queries t = Hashtbl.length t.owner
let spec_of t qid = Option.map (fun g -> g.spec) (Hashtbl.find_opt t.owner qid)

let current_matches t qid =
  match Hashtbl.find_opt t.owner qid with
  | Some g -> g.inner.Matcher.current_matches qid
  | None -> raise Not_found

(* --- retention bookkeeping --------------------------------------------- *)

(* Pop stale/overflow queue cells until the distinct live set fits;
   returns the evicted edges, oldest first. *)
let rec evict_excess g size acc =
  if Edge.Tbl.length g.cells <= size then List.rev acc
  else
    match Queue.take_opt g.order with
    | None -> List.rev acc
    | Some (s, e) -> (
      match Edge.Tbl.find_opt g.cells e with
      | Some s' when s' = s ->
        Edge.Tbl.remove g.cells e;
        evict_excess g size (e :: acc)
      | Some _ | None -> evict_excess g size acc)

let flush_bucket g =
  let expired = Edge.Tbl.fold (fun e _ acc -> e :: acc) g.cells [] in
  Edge.Tbl.reset g.cells;
  Queue.clear g.order;
  g.bucket <- 0;
  expired

(* Bookkeep one update in [g]; returns the expiry removals it forces, in
   eviction order, to be applied to the inner engine {e before} it. *)
let retain t g (u : Update.t) =
  match u.Update.op with
  | Update.Remove e ->
    (* Explicit removal frees the slot; count-window queue cells stay
       behind as stale entries that [evict_excess] skips. *)
    Edge.Tbl.remove g.cells e;
    Edge.Tbl.remove g.deadline e;
    []
  | Update.Add e -> (
    match g.spec with
    | None ->
      Edge.Tbl.replace g.cells e 1;
      []
    | Some (Wspec.Count { shape = Wspec.Sliding; size }) ->
      g.stamp <- g.stamp + 1;
      Queue.add (g.stamp, e) g.order;
      let fresh = not (Edge.Tbl.mem g.cells e) in
      (* A refresh's newer stamp supersedes the older cell. *)
      Edge.Tbl.replace g.cells e g.stamp;
      if fresh && not t.suppress_expiry then evict_excess g size [] else []
    | Some (Wspec.Count { shape = Wspec.Tumbling; size }) ->
      let expired =
        if g.bucket >= size && not t.suppress_expiry then flush_bucket g else []
      in
      g.bucket <- g.bucket + 1;
      Edge.Tbl.replace g.cells e 1;
      expired
    | Some (Wspec.Time _ as spec) ->
      let d = Wspec.deadline spec ~ts:u.Update.ts in
      Edge.Tbl.replace g.deadline e d;
      heap_push g d e;
      [])

(* Time-window expiry at the current watermark: pop every heap entry at or
   past it, skipping entries invalidated by a refresh or explicit removal. *)
let expired_now t g =
  if t.suppress_expiry then []
  else begin
    let acc = ref [] in
    while g.heap_len > 0 && fst g.heap.(0) <= t.wm do
      let d, e = heap_pop g in
      match Edge.Tbl.find_opt g.deadline e with
      | Some d' when d' = d ->
        Edge.Tbl.remove g.deadline e;
        acc := e :: !acc
      | Some _ | None -> ()
    done;
    List.rev !acc
  end

let has_time_group t = List.exists is_time t.groups

(* Late = an addition whose event time sits behind the watermark.  Late
   removals still apply: the edge they name may well be live, and dropping
   them would desynchronize the window from the stream's ground truth.
   Without any time window there is no watermark and nothing is late. *)
let is_late t (u : Update.t) =
  Update.is_addition u && has_time_group t && t.wm > min_int && u.Update.ts < t.wm

let advance t ts =
  if has_time_group t then begin
    let candidate = ts - t.slack in
    if candidate > t.wm then t.wm <- candidate
  end

(* --- update processing ------------------------------------------------- *)

let feed g ops =
  match ops with
  | [] -> Report.empty
  | [ u ] -> g.inner.Matcher.handle_update u
  | ops -> g.inner.Matcher.handle_batch ops

let note_expiry t = function
  | [] -> ()
  | expired ->
    t.expired_edges <- t.expired_edges + List.length expired;
    t.expiry_batches <- t.expiry_batches + 1

let handle_update t u =
  if is_late t u then begin
    t.late_dropped <- t.late_dropped + 1;
    Report.empty
  end
  else begin
    advance t u.Update.ts;
    Report.merge
      (List.map
         (fun g ->
           let timed_out = expired_now t g in
           let evicted = retain t g u in
           let expired = timed_out @ evicted in
           note_expiry t expired;
           (* One net-op removal batch per expiry wave; its retractions
              come back merged into the triggering update's report. *)
           feed g (List.map Update.remove expired @ [ u ]))
         t.groups)
  end

let handle_batch t updates =
  (* Retention and the watermark run eagerly, update by update, so count
     eviction and expiry interleave at the right positions; the engine
     work is deferred to one net-op batch per group. *)
  let acc = List.map (fun g -> (g, ref [])) t.groups in
  List.iter
    (fun u ->
      if is_late t u then t.late_dropped <- t.late_dropped + 1
      else begin
        advance t u.Update.ts;
        List.iter
          (fun (g, ops) ->
            let timed_out = expired_now t g in
            let evicted = retain t g u in
            let expired = timed_out @ evicted in
            note_expiry t expired;
            ops := (u :: List.rev_map Update.remove expired) @ !ops)
          acc
      end)
    updates;
  Report.merge (List.map (fun (g, ops) -> feed g (List.rev !ops)) acc)

(* --- observation -------------------------------------------------------- *)

let live_edges t = List.fold_left (fun n g -> n + group_live_count g) 0 t.groups
let watermark t = if t.wm = min_int then None else Some t.wm
let late_dropped t = t.late_dropped
let expired_edges t = t.expired_edges
let expiry_batches t = t.expiry_batches

let engine t =
  match t.groups with
  | [ g ] -> g.inner
  | _ -> invalid_arg "Window.engine: not a single-group window"

let engines t = List.map (fun g -> g.inner) t.groups
let shutdown t = List.iter (fun g -> g.inner.Matcher.shutdown ()) t.groups

let stats t =
  let inner =
    match t.groups with
    | [ g ] -> g.inner.Matcher.stats ()
    | groups ->
      (* Key-wise counter sum across the groups' engines. *)
      let tbl : (string, int ref) Hashtbl.t = Hashtbl.create 32 in
      let order = ref [] in
      List.iter
        (fun g ->
          List.iter
            (fun (k, v) ->
              match Hashtbl.find_opt tbl k with
              | Some cell -> cell := !cell + v
              | None ->
                Hashtbl.add tbl k (ref v);
                order := k :: !order)
            (g.inner.Matcher.stats ()))
        groups;
      List.rev_map (fun k -> (k, !(Hashtbl.find tbl k))) !order
  in
  inner
  @ [
      ("win_groups", List.length t.groups);
      ("win_live_edges", live_edges t);
      ("win_late_dropped", t.late_dropped);
      ("win_expired_edges", t.expired_edges);
      ("win_expiry_batches", t.expiry_batches);
    ]

(* --- audit -------------------------------------------------------------- *)

let audit t edges =
  let module A = Tric_audit.Audit in
  let findings = ref [] in
  let flag detail =
    findings :=
      { A.severity = A.Error; location = A.Window; invariant = "window-coherence"; detail }
      :: !findings
  in
  let ground =
    Option.map
      (fun es ->
        let tbl = Edge.Tbl.create (max 16 (List.length es)) in
        List.iter (fun e -> Edge.Tbl.replace tbl e ()) es;
        tbl)
      edges
  in
  List.iter
    (fun g ->
      let live = group_live_edges g in
      (* Retention state obeys the spec: no edge outlives its deadline or
         its window's capacity. *)
      (match g.spec with
      | Some (Wspec.Time _) ->
        if t.wm > min_int then
          Edge.Tbl.iter
            (fun e d ->
              if d <= t.wm then
                flag
                  (Format.asprintf
                     "edge %a expired at deadline %d but is still live at watermark %d"
                     Edge.pp e d t.wm))
            g.deadline
      | Some (Wspec.Count { shape = Wspec.Sliding; size }) ->
        let n = Edge.Tbl.length g.cells in
        if n > size then
          flag
            (Printf.sprintf "sliding count window holds %d distinct edges, capacity %d" n
               size)
      | Some (Wspec.Count { shape = Wspec.Tumbling; size }) ->
        if g.bucket > size then
          flag
            (Printf.sprintf "tumbling count bucket reached %d additions, capacity %d"
               g.bucket size)
      | None -> ());
      (* The window never retains an edge the stream has dropped. *)
      (match ground with
      | Some tbl ->
        List.iter
          (fun e ->
            if not (Edge.Tbl.mem tbl e) then
              flag
                (Format.asprintf "edge %a is window-live but absent from the stream"
                   Edge.pp e))
          live
      | None -> ());
      (* The inner engine is certified against the window's own live set —
         an expiry removal that never reached it surfaces here as a
         base-coherence divergence. *)
      findings := g.inner.Matcher.audit (Some live) @ !findings)
    t.groups;
  List.rev !findings

module Corrupt = struct
  let suppress_expiry t = t.suppress_expiry <- true
end
