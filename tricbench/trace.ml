(* In-memory span recorder for traced runs.

   Spans are recorded only by the benchmark, around its calls into each
   layer's public functions; the program under test carries no extra
   instrumentation.  A span has a name, a start, an end, the span that
   caused it and a request id (the call index, the query id, or the
   publish's pseq).
   Storage is growable parallel arrays, so a span costs two clock reads
   and a few stores; the file is written once, when the run ends. *)

type t = {
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable n : int;
  mutable name : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;
  mutable rid : int array;
  mutable current : int; (* innermost open span; -1 when none is open *)
}

let create () =
  let cap = 1024 in
  {
    names = Hashtbl.create 16;
    name_of = [||];
    n = 0;
    name = Array.make cap 0;
    start = Array.make cap 0.0;
    stop = Array.make cap 0.0;
    parent = Array.make cap (-1);
    rid = Array.make cap 0;
    current = -1;
  }

let length t = t.n

let intern t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
    let i = Array.length t.name_of in
    Hashtbl.replace t.names s i;
    t.name_of <- Array.append t.name_of [| s |];
    i

let grow t =
  let cap = 2 * Array.length t.start in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- ext t.name 0;
  t.start <- ext t.start 0.0;
  t.stop <- ext t.stop 0.0;
  t.parent <- ext t.parent (-1);
  t.rid <- ext t.rid 0

(* Open a span as a child of the innermost open one.  [name] comes from
   {!intern}, so the hot path never hashes a string. *)
let open_ t name ~rid =
  if t.n = Array.length t.start then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- name;
  t.parent.(i) <- t.current;
  t.rid.(i) <- rid;
  t.current <- i;
  t.start.(i) <- Unix.gettimeofday ();
  i

(* A child of the innermost open span, sharing its request id. *)
let open_child t name = open_ t name ~rid:(if t.current >= 0 then t.rid.(t.current) else -1)

let close t i =
  t.stop.(i) <- Unix.gettimeofday ();
  t.current <- t.parent.(i)

(* Record a span measured outside [open_]/[close] (tests, synthetic
   trees).  Parents must be recorded before their children. *)
let record t name ~rid ~parent ~start ~stop =
  if t.n = Array.length t.start then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- intern t name;
  t.parent.(i) <- parent;
  t.rid.(i) <- rid;
  t.start.(i) <- start;
  t.stop.(i) <- stop;
  i

let duration t i = t.stop.(i) -. t.start.(i)

(* Self time of every span: its duration minus the part of that interval
   its children cover — children clipped to the parent, overlapping
   children counted once. *)
let self_times t =
  let children = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 then children.(p) <- i :: children.(p)
  done;
  Array.init t.n (fun i ->
      let lo = t.start.(i) and hi = t.stop.(i) in
      let ivs =
        List.filter_map
          (fun c ->
            let a = Float.max lo t.start.(c) and b = Float.min hi t.stop.(c) in
            if b > a then Some (a, b) else None)
          children.(i)
        |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0.0, lo) ivs
      in
      hi -. lo -. covered)

(* For every root span, the self times of its whole tree sum to the
   root's duration exactly when children nest inside their parents
   without overlapping.  Returns the worst absolute difference over all
   roots, in seconds — 0 up to rounding for a well-formed trace. *)
let self_sum_error t =
  let self = self_times t in
  let root = Array.make t.n 0 in
  let sum = Array.make t.n 0.0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    root.(i) <- (if p < 0 then i else root.(p));
    sum.(root.(i)) <- sum.(root.(i)) +. self.(i)
  done;
  let worst = ref 0.0 in
  for i = 0 to t.n - 1 do
    if t.parent.(i) < 0 then
      worst := Float.max !worst (Float.abs (sum.(i) -. duration t i))
  done;
  !worst

(* Per-span values of one name, in recording order. *)
let select t name f =
  match Hashtbl.find_opt t.names name with
  | None -> [||]
  | Some id ->
    let out = ref [] in
    for i = t.n - 1 downto 0 do
      if t.name.(i) = id then out := f i :: !out
    done;
    Array.of_list !out

let durations t name = select t name (duration t)

(* [self] is {!self_times}' result, computed once per trace. *)
let self_of t ~self name = select t name (fun i -> self.(i))

let total a = Array.fold_left ( +. ) 0.0 a

(* Mean of per-span values in microseconds; 0 for none.  A mean, not a
   median: many layers take under the clock's 1 us resolution, and only
   an average over many spans resolves them. *)
let mean_us a = if Array.length a = 0 then 0.0 else 1e6 *. total a /. float_of_int (Array.length a)

(* One JSON document: times in microseconds from the first span's start,
   span ids are array indexes, [parent] is -1 for a root. *)
let write t ~path ~workload ~seed =
  let b = Buffer.create (64 + (t.n * 72)) in
  let t0 = if t.n > 0 then t.start.(0) else 0.0 in
  let us x = (x -. t0) *. 1e6 in
  Printf.bprintf b "{\"workload\":%S,\"seed\":%d,\"time_unit\":\"us\",\"spans\":[" workload seed;
  for i = 0 to t.n - 1 do
    if i > 0 then Buffer.add_char b ',';
    Printf.bprintf b "\n{\"id\":%d,\"name\":%S,\"start\":%.3f,\"end\":%.3f,\"parent\":%d,\"rid\":%d}" i
      t.name_of.(t.name.(i)) (us t.start.(i)) (us t.stop.(i)) t.parent.(i) t.rid.(i)
  done;
  Buffer.add_string b "\n]}\n";
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc b)
