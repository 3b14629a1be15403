open Tric_engine
open Tric_query
module Binio = Tric_engine.Binio
module Registry = Tric_obs.Registry
module Snapshot = Tric_obs.Snapshot
module Json = Tric_obs.Json

let log_src = Logs.Src.create "tric.server" ~doc:"subscription server"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  sock_path : string;
  journal_path : string;
  engine_name : string;
  shards : int;
  snapshot_every : int;
  outbox_soft : int;
  outbox_hard : int;
  max_frame : int;
  metrics_out : string option;
}

let default_config ~sock_path ~journal_path =
  {
    sock_path;
    journal_path;
    engine_name = "TRIC+";
    shards = 1;
    snapshot_every = 10_000;
    outbox_soft = 1024;
    outbox_hard = 4096;
    max_frame = Frame.default_max_frame;
    metrics_out = None;
  }

type conn = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  out : Buffer.t;
  mutable opos : int; (* written prefix of [out] *)
  mutable owner : client option;
  mutable closing : bool; (* flush pending output, then close *)
  mutable dead : bool;
}

and client = {
  cid : string;
  mutable cursor : int; (* highest acked useq *)
  mutable outbox : Outbox.t;
  mutable qids : int list;
  mutable evicted : string option;
  mutable conn : conn option;
}

type t = {
  cfg : config;
  mutable jr : Journal.t option; (* set right after the journal opens; the
                                    recovery hooks close over [t] before it *)
  useq : int ref;
  next_qid : int ref;
  replaying : bool ref;
  clients : (string, client) Hashtbl.t;
  subs : (int, string list) Hashtbl.t; (* qid -> subscriber cids *)
  pat_qid : (string, int) Hashtbl.t; (* canonical pattern text -> qid *)
  qid_pat : (int, string) Hashtbl.t;
  mutable conns : conn list;
  listen_fd : Unix.file_descr;
  stop : bool Atomic.t;
  scratch : Bytes.t;
  started : float;
  mutable last_snapshot : float;
  reg : Registry.t;
  g_clients_live : Registry.gauge;
  g_clients_known : Registry.gauge;
  g_outbox_hwm : Registry.gauge;
  g_coalesced : Registry.gauge;
  g_snapshot_age : Registry.gauge;
  g_useq : Registry.gauge;
  c_snapshots : Registry.counter;
  c_evict_overflow : Registry.counter;
  c_evict_protocol : Registry.counter;
  c_evict_oversize : Registry.counter;
  c_notifications : Registry.counter;
  c_published : Registry.counter;
  c_acks : Registry.counter;
  c_registers : Registry.counter;
  c_frames_in : Registry.counter;
  c_frames_out : Registry.counter;
}

let journal_of t = match t.jr with Some jr -> jr | None -> invalid_arg "Server: journal not open"

let journal_aux t payload = if not !(t.replaying) then Journal.log_aux (journal_of t) payload

let send t conn msg =
  Frame.encode_into conn.out (Wire.encode msg);
  Registry.incr t.c_frames_out

let fresh_outbox t = Outbox.create ~soft:t.cfg.outbox_soft ~hard:t.cfg.outbox_hard

(* -- subscription bookkeeping ---------------------------------------------- *)

(* Remove [c]'s subscription to [qid].  When the last subscriber leaves, the
   query is removed from the engine and journalled as a [W] record; during
   replay the journal's own [W] record (which follows) performs that part. *)
let unsubscribe t c ~log_d qid =
  if List.exists (Int.equal qid) c.qids then begin
    c.qids <- List.filter (fun q -> not (Int.equal q qid)) c.qids;
    (match Hashtbl.find_opt t.subs qid with
    | Some cids ->
      Hashtbl.replace t.subs qid (List.filter (fun x -> not (String.equal x c.cid)) cids)
    | None -> ());
    if log_d then journal_aux t (Printf.sprintf "D\t%s\t%d" c.cid qid);
    (match Hashtbl.find_opt t.subs qid with
    | Some [] ->
      Hashtbl.remove t.subs qid;
      (match Hashtbl.find_opt t.qid_pat qid with
      | Some canon ->
        Hashtbl.remove t.pat_qid canon;
        Hashtbl.remove t.qid_pat qid
      | None -> ());
      if not !(t.replaying) then ignore (Journal.remove_query (journal_of t) qid)
    | Some _ | None -> ());
    true
  end
  else false

let subscribe t c qid =
  if not (List.exists (Int.equal qid) c.qids) then begin
    c.qids <- qid :: c.qids;
    let cids = match Hashtbl.find_opt t.subs qid with Some l -> l | None -> [] in
    if not (List.exists (String.equal c.cid) cids) then
      Hashtbl.replace t.subs qid (c.cid :: cids);
    journal_aux t (Printf.sprintf "R\t%s\t%d" c.cid qid)
  end

(* Reset [c] to a blank slate at cursor [cursor]: no subscriptions, empty
   outbox, not evicted.  This is exactly the semantics of a [C] aux record,
   for both fresh and returning-after-eviction clients. *)
let reset_client t c cursor =
  List.iter (fun qid -> ignore (unsubscribe t c ~log_d:false qid)) c.qids;
  c.qids <- [];
  c.cursor <- cursor;
  c.outbox <- fresh_outbox t;
  c.evicted <- None

let find_or_create_client t cid cursor =
  match Hashtbl.find_opt t.clients cid with
  | Some c -> c
  | None ->
    let c = { cid; cursor; outbox = fresh_outbox t; qids = []; evicted = None; conn = None } in
    Hashtbl.replace t.clients cid c;
    c

let evict t c reason =
  match c.evicted with
  | Some _ -> ()
  | None ->
    c.evicted <- Some reason;
    Registry.incr
      (match reason with
      | "overflow" -> t.c_evict_overflow
      | "protocol" -> t.c_evict_protocol
      | _ -> t.c_evict_oversize);
    journal_aux t (Printf.sprintf "E\t%s\t%s" c.cid reason);
    Log.warn (fun m -> m "evicting client %s: %s" c.cid reason);
    (match c.conn with
    | Some conn ->
      send t conn (Wire.Bye { reason });
      conn.closing <- true
    | None -> ())

let apply_ack t c useq =
  let applied = min useq !(t.useq) in
  if applied > c.cursor then begin
    c.cursor <- applied;
    Outbox.ack c.outbox applied;
    Registry.incr t.c_acks;
    journal_aux t (Printf.sprintf "A\t%s\t%d" c.cid applied)
  end

(* -- fan-out ---------------------------------------------------------------- *)

let fanout t (report : Report.t) =
  if not (Report.is_empty report) then begin
    let by_qid = Hashtbl.create 16 in
    List.iter (fun (qid, embs) -> Hashtbl.replace by_qid qid (embs, [])) report.Report.matches;
    List.iter
      (fun (qid, embs) ->
        let ms = match Hashtbl.find_opt by_qid qid with Some (ms, _) -> ms | None -> [] in
        Hashtbl.replace by_qid qid (ms, embs))
      report.Report.retractions;
    let per_client = Hashtbl.create 8 in
    Hashtbl.iter
      (fun qid (ms, rs) ->
        match Hashtbl.find_opt t.subs qid with
        | None | Some [] -> ()
        | Some cids ->
          let entry =
            {
              Wire.qid;
              matches = List.map Wire.of_embedding ms;
              retractions = List.map Wire.of_embedding rs;
            }
          in
          List.iter
            (fun cid ->
              let prev = match Hashtbl.find_opt per_client cid with Some e -> e | None -> [] in
              Hashtbl.replace per_client cid (entry :: prev))
            cids)
      by_qid;
    Hashtbl.iter
      (fun cid entries ->
        match Hashtbl.find_opt t.clients cid with
        | None -> ()
        | Some c ->
          if c.evicted = None then begin
            (* Sort within the item so each client's stream is deterministic
               regardless of hash-table iteration order. *)
            let entries =
              List.sort (fun a b -> Int.compare a.Wire.qid b.Wire.qid) entries
            in
            match Outbox.push c.outbox { Outbox.useq = !(t.useq); entries } with
            | `Ok -> ()
            | `Overflow -> evict t c "overflow"
          end)
      per_client
  end

(* -- recovery hooks --------------------------------------------------------- *)

let on_query t p =
  let canon = Parse.pattern_to_string p in
  let qid = Tric_query.Pattern.id p in
  Hashtbl.replace t.pat_qid canon qid;
  Hashtbl.replace t.qid_pat qid canon;
  if qid >= !(t.next_qid) then t.next_qid := qid + 1

let on_remove t qid =
  (match Hashtbl.find_opt t.qid_pat qid with
  | Some canon ->
    Hashtbl.remove t.pat_qid canon;
    Hashtbl.remove t.qid_pat qid
  | None -> ());
  Hashtbl.remove t.subs qid

let on_replay t _u report =
  incr t.useq;
  fanout t report

let on_aux t payload =
  let bad () = failwith ("Server: malformed aux record: " ^ payload) in
  let num s = match int_of_string_opt s with Some n -> n | None -> bad () in
  match String.split_on_char '\t' payload with
  | [ "C"; cid; cursor ] ->
    let cursor = num cursor in
    let c = find_or_create_client t cid cursor in
    reset_client t c cursor
  | [ "R"; cid; qid ] -> (
    match Hashtbl.find_opt t.clients cid with
    | Some c -> subscribe t c (num qid)
    | None -> bad ())
  | [ "D"; cid; qid ] -> (
    match Hashtbl.find_opt t.clients cid with
    | Some c -> ignore (unsubscribe t c ~log_d:false (num qid))
    | None -> bad ())
  | [ "A"; cid; useq ] -> (
    match Hashtbl.find_opt t.clients cid with
    | Some c -> apply_ack t c (num useq)
    | None -> bad ())
  | [ "E"; cid; reason ] -> (
    match Hashtbl.find_opt t.clients cid with
    | Some c -> evict t c reason
    | None -> bad ())
  | _ -> bad ()

let restore_aux t blob =
  if String.length blob > 0 then begin
    match
      let r = Binio.reader blob in
      (match Binio.u8 r with
      | 1 -> ()
      | v -> raise (Binio.Corrupt (Printf.sprintf "unsupported server blob version %d" v)));
      t.useq := Binio.i64 r;
      let next_qid = Binio.i64 r in
      if next_qid > !(t.next_qid) then t.next_qid := next_qid;
      let nclients = Binio.u32 r in
      for _ = 1 to nclients do
        let cid = Binio.str r in
        let cursor = Binio.i64 r in
        let was_evicted = Binio.bool r in
        let reason = Binio.str r in
        let nq = Binio.u32 r in
        let qids = List.init nq (fun _ -> Binio.i64 r) in
        let nitems = Binio.u32 r in
        let items =
          List.init nitems (fun _ ->
              let useq = Binio.i64 r in
              let entries = Wire.get_entries r in
              { Outbox.useq; entries })
        in
        let c =
          {
            cid;
            cursor;
            outbox = Outbox.of_items ~soft:t.cfg.outbox_soft ~hard:t.cfg.outbox_hard items;
            qids;
            evicted = (if was_evicted then Some reason else None);
            conn = None;
          }
        in
        Hashtbl.replace t.clients cid c;
        List.iter
          (fun qid ->
            let cids = match Hashtbl.find_opt t.subs qid with Some l -> l | None -> [] in
            if not (List.exists (String.equal cid) cids) then
              Hashtbl.replace t.subs qid (cid :: cids))
          qids
      done;
      if not (Binio.eof r) then raise (Binio.Corrupt "trailing bytes in server blob")
    with
    | () -> ()
    | exception Binio.Corrupt e -> failwith ("Server: corrupt snapshot blob: " ^ e)
  end

let aux_state t () =
  let b = Buffer.create 4096 in
  Binio.put_u8 b 1;
  Binio.put_i64 b !(t.useq);
  Binio.put_i64 b !(t.next_qid);
  let cids = Hashtbl.fold (fun cid _ acc -> cid :: acc) t.clients [] |> List.sort String.compare in
  Binio.put_u32 b (List.length cids);
  List.iter
    (fun cid ->
      let c = Hashtbl.find t.clients cid in
      Binio.put_str b cid;
      Binio.put_i64 b c.cursor;
      (match c.evicted with
      | Some reason ->
        Binio.put_bool b true;
        Binio.put_str b reason
      | None ->
        Binio.put_bool b false;
        Binio.put_str b "");
      let qids = List.sort Int.compare c.qids in
      Binio.put_u32 b (List.length qids);
      List.iter (Binio.put_i64 b) qids;
      let items = Outbox.items c.outbox in
      Binio.put_u32 b (List.length items);
      List.iter
        (fun (it : Outbox.item) ->
          Binio.put_i64 b it.Outbox.useq;
          Wire.put_entries b it.Outbox.entries)
        items)
    cids;
  Buffer.contents b

(* -- construction ----------------------------------------------------------- *)

let create cfg =
  (* A peer closing mid-write must surface as EPIPE, not kill the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Sys.remove cfg.sock_path with Sys_error _ -> ());
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.sock_path);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let reg = Registry.create () in
  let t =
    {
      cfg;
      jr = None;
      useq = ref 0;
      next_qid = ref 1;
      replaying = ref true;
      clients = Hashtbl.create 64;
      subs = Hashtbl.create 256;
      pat_qid = Hashtbl.create 256;
      qid_pat = Hashtbl.create 256;
      conns = [];
      listen_fd;
      stop = Atomic.make false;
      scratch = Bytes.create 65536;
      started = Unix.gettimeofday ();
      last_snapshot = 0.;
      reg;
      g_clients_live = Registry.gauge reg "srv_clients_live";
      g_clients_known = Registry.gauge reg "srv_clients_known";
      g_outbox_hwm = Registry.gauge reg "srv_outbox_depth_hwm";
      g_coalesced = Registry.gauge reg "srv_coalesced_pairs";
      g_snapshot_age = Registry.gauge reg "srv_snapshot_age_s";
      g_useq = Registry.gauge reg "srv_useq";
      c_snapshots = Registry.counter reg "srv_snapshots_total";
      c_evict_overflow = Registry.counter reg "srv_evictions_overflow_total";
      c_evict_protocol = Registry.counter reg "srv_evictions_protocol_total";
      c_evict_oversize = Registry.counter reg "srv_evictions_oversize_total";
      c_notifications = Registry.counter reg "srv_notifications_total";
      c_published = Registry.counter reg "srv_published_total";
      c_acks = Registry.counter reg "srv_acks_total";
      c_registers = Registry.counter reg "srv_registers_total";
      c_frames_in = Registry.counter reg "srv_frames_in_total";
      c_frames_out = Registry.counter reg "srv_frames_out_total";
    }
  in
  let jr =
    Journal.open_ ~path:cfg.journal_path ~on_query:(on_query t) ~on_replay:(on_replay t)
      ~on_remove:(on_remove t) ~on_aux:(on_aux t) ~restore_aux:(restore_aux t)
      ~aux_state:(aux_state t)
      (fun () -> Engines.by_name ~shards:cfg.shards cfg.engine_name)
  in
  t.jr <- Some jr;
  t.replaying := false;
  Log.info (fun m ->
      m "listening on %s (engine %s, %d shard(s); recovered %d record(s), restored %d)"
        cfg.sock_path cfg.engine_name cfg.shards (Journal.recovered jr) (Journal.restored jr));
  t

(* -- stats ------------------------------------------------------------------ *)

let refresh_gauges t =
  let live = List.length (List.filter (fun conn -> conn.owner <> None) t.conns) in
  Registry.set t.g_clients_live (float_of_int live);
  Registry.set t.g_clients_known (float_of_int (Hashtbl.length t.clients));
  let hwm, coal =
    Hashtbl.fold
      (fun _ c (h, k) -> (max h (Outbox.hwm c.outbox), k + Outbox.coalesced c.outbox))
      t.clients (0, 0)
  in
  Registry.set t.g_outbox_hwm (float_of_int hwm);
  Registry.set t.g_coalesced (float_of_int coal);
  let since = if t.last_snapshot > 0. then t.last_snapshot else t.started in
  Registry.set t.g_snapshot_age (Unix.gettimeofday () -. since);
  Registry.set t.g_useq (float_of_int !(t.useq))

let stats_envelope t =
  refresh_gauges t;
  Snapshot.envelope ~engine:"tric_server" (Snapshot.of_registry t.reg)

let stats_body t format =
  refresh_gauges t;
  let snap = Snapshot.of_registry t.reg in
  match format with
  | "prometheus" -> Snapshot.to_prometheus snap
  | _ -> Json.to_string (Snapshot.envelope ~engine:"tric_server" snap)

(* -- message handling ------------------------------------------------------- *)

let maybe_snapshot t =
  if t.cfg.snapshot_every > 0 && Journal.entries (journal_of t) >= t.cfg.snapshot_every
  then begin
    Journal.snapshot (journal_of t);
    Registry.incr t.c_snapshots;
    t.last_snapshot <- Unix.gettimeofday ()
  end

let handle_hello t conn cid last_seen =
  if String.length cid = 0 || String.contains cid '\t' || String.contains cid '\n' then
    send t conn (Wire.Err { reason = "invalid client id" })
  else begin
    let c, reset =
      match Hashtbl.find_opt t.clients cid with
      | None ->
        let c = find_or_create_client t cid !(t.useq) in
        journal_aux t (Printf.sprintf "C\t%s\t%d" cid c.cursor);
        (c, "")
      | Some c -> (
        match c.evicted with
        | Some reason ->
          (* The eviction cost this client its subscriptions; hand it a
             clean slate and tell it why, so it re-registers. *)
          reset_client t c !(t.useq);
          journal_aux t (Printf.sprintf "C\t%s\t%d" cid c.cursor);
          (c, reason)
        | None ->
          if last_seen >= 0 then apply_ack t c last_seen;
          Outbox.rewind c.outbox c.cursor;
          (c, ""))
    in
    (match c.conn with
    | Some old when old != conn ->
      old.owner <- None;
      old.closing <- true
    | Some _ | None -> ());
    (match conn.owner with
    | Some prev when prev != c -> prev.conn <- None
    | Some _ | None -> ());
    conn.owner <- Some c;
    c.conn <- Some conn;
    send t conn (Wire.Welcome { cid; cursor = c.cursor; useq = !(t.useq); reset })
  end

let handle_register t conn c name pattern_s =
  match Parse.pattern ~name ~id:0 pattern_s with
  | exception Parse.Syntax_error msg -> send t conn (Wire.Err { reason = "bad pattern: " ^ msg })
  | p0 when Option.is_some (Pattern.window p0) ->
    (* The server's engine is unwindowed: refuse rather than drop the clause. *)
    send t conn (Wire.Err { reason = "WITHIN clauses are not supported by the server" })
  | p0 ->
    let canon = Parse.pattern_to_string p0 in
    let qid =
      match Hashtbl.find_opt t.pat_qid canon with
      | Some qid -> qid
      | None ->
        let qid = !(t.next_qid) in
        incr t.next_qid;
        Journal.add_query (journal_of t) (Parse.pattern ~name ~id:qid pattern_s);
        Hashtbl.replace t.pat_qid canon qid;
        Hashtbl.replace t.qid_pat qid canon;
        qid
    in
    subscribe t c qid;
    Registry.incr t.c_registers;
    send t conn (Wire.Registered { qid })

let handle_publish t conn pseq update =
  match Parse.update update with
  | exception Parse.Syntax_error msg -> send t conn (Wire.Err { reason = "bad update: " ^ msg })
  | u ->
    let report = Journal.handle_update (journal_of t) u in
    incr t.useq;
    Registry.incr t.c_published;
    fanout t report;
    maybe_snapshot t;
    send t conn (Wire.Puback { pseq; useq = !(t.useq) })

let protocol_error t conn reason =
  send t conn (Wire.Err { reason });
  (match conn.owner with
  | Some c -> evict t c "protocol"
  | None -> Registry.incr t.c_evict_protocol);
  conn.closing <- true

let handle_msg t conn (msg : Wire.msg) =
  let with_owner f =
    match conn.owner with
    | Some c when c.evicted = None -> f c
    | Some _ -> send t conn (Wire.Err { reason = "client is evicted; hello again to reset" })
    | None -> send t conn (Wire.Err { reason = "hello required" })
  in
  match msg with
  | Wire.Hello { cid; last_seen } -> handle_hello t conn cid last_seen
  | Wire.Register { name; pattern } -> with_owner (fun c -> handle_register t conn c name pattern)
  | Wire.Unregister { qid } ->
    with_owner (fun c ->
        let existed = unsubscribe t c ~log_d:true qid in
        send t conn (Wire.Unregistered { qid; existed }))
  | Wire.Ack { useq } -> with_owner (fun c -> apply_ack t c useq)
  | Wire.Publish { pseq; update } -> handle_publish t conn pseq update
  | Wire.Stats { format } -> send t conn (Wire.Stats_reply { body = stats_body t format })
  | Wire.Quit ->
    send t conn (Wire.Bye { reason = "server stopping" });
    conn.closing <- true;
    Atomic.set t.stop true
  | Wire.Welcome _ | Wire.Registered _ | Wire.Unregistered _ | Wire.Notify _
  | Wire.Puback _ | Wire.Stats_reply _ | Wire.Bye _ | Wire.Err _ ->
    protocol_error t conn "unexpected server-to-client message"

(* -- event loop ------------------------------------------------------------- *)

let rec drain_frames t conn =
  if not conn.closing then begin
    match Frame.next conn.dec with
    | Error reason ->
      send t conn (Wire.Err { reason });
      (match conn.owner with
      | Some c -> evict t c "oversize"
      | None -> Registry.incr t.c_evict_oversize);
      conn.closing <- true
    | Ok None -> ()
    | Ok (Some payload) ->
      Registry.incr t.c_frames_in;
      (match Wire.decode payload with
      | Error e -> protocol_error t conn ("bad frame: " ^ e)
      | Ok msg -> handle_msg t conn msg);
      drain_frames t conn
  end

(* Move due notifications from the owner's outbox into the connection's
   output buffer, bounded so one firehose subscriber cannot balloon the
   buffer: unsent items stay in the outbox where backpressure applies. *)
let pump t conn =
  match conn.owner with
  | None -> ()
  | Some c ->
    if c.evicted = None && not conn.closing then begin
      let rec go () =
        if Buffer.length conn.out - conn.opos < 262_144 then begin
          match Outbox.take_to_send c.outbox with
          | None -> ()
          | Some it ->
            send t conn (Wire.Notify { useq = it.Outbox.useq; entries = it.Outbox.entries });
            Registry.incr t.c_notifications;
            go ()
        end
      in
      go ()
    end

let flush_conn conn =
  if not conn.dead then begin
    let len = Buffer.length conn.out - conn.opos in
    if len > 0 then begin
      match Unix.write_substring conn.fd (Buffer.contents conn.out) conn.opos len with
      | n ->
        conn.opos <- conn.opos + n;
        if conn.opos = Buffer.length conn.out then begin
          Buffer.clear conn.out;
          conn.opos <- 0
        end
        else if conn.opos > 65_536 then begin
          let rest = Buffer.sub conn.out conn.opos (Buffer.length conn.out - conn.opos) in
          Buffer.clear conn.out;
          Buffer.add_string conn.out rest;
          conn.opos <- 0
        end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> conn.dead <- true
    end
  end

let read_conn t conn =
  if not conn.dead then begin
    match Unix.read conn.fd t.scratch 0 (Bytes.length t.scratch) with
    | 0 -> conn.dead <- true
    | n ->
      Frame.feed conn.dec t.scratch 0 n;
      drain_frames t conn
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> conn.dead <- true
  end

let rec accept_conns t =
  match Unix.accept ~cloexec:true t.listen_fd with
  | fd, _ ->
    Unix.set_nonblock fd;
    t.conns <-
      {
        fd;
        dec = Frame.decoder ~max_frame:t.cfg.max_frame ();
        out = Buffer.create 4096;
        opos = 0;
        owner = None;
        closing = false;
        dead = false;
      }
      :: t.conns;
    accept_conns t
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let close_fd fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let cull t =
  let keep, drop =
    List.partition
      (fun conn -> not (conn.dead || (conn.closing && Buffer.length conn.out = conn.opos)))
      t.conns
  in
  t.conns <- keep;
  List.iter
    (fun conn ->
      (match conn.owner with
      | Some c ->
        c.conn <- None;
        conn.owner <- None
      | None -> ());
      close_fd conn.fd)
    drop

let request_stop t = Atomic.set t.stop true

let shutdown t =
  List.iter
    (fun conn ->
      if not conn.closing then send t conn (Wire.Bye { reason = "server stopping" });
      flush_conn conn;
      close_fd conn.fd)
    t.conns;
  t.conns <- [];
  close_fd t.listen_fd;
  (try Sys.remove t.cfg.sock_path with Sys_error _ -> ());
  (match t.cfg.metrics_out with
  | Some path ->
    let doc = stats_envelope t in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Json.to_string ~pretty:true doc))
  | None -> ());
  let jr = journal_of t in
  Journal.close jr;
  (Journal.engine jr).Matcher.shutdown ();
  Log.info (fun m -> m "server stopped")

let serve t =
  while not (Atomic.get t.stop) do
    List.iter (pump t) t.conns;
    let rds = t.listen_fd :: List.map (fun conn -> conn.fd) t.conns in
    let wrs =
      List.filter_map
        (fun conn -> if Buffer.length conn.out > conn.opos then Some conn.fd else None)
        t.conns
    in
    (match Unix.select rds wrs [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
      if List.memq t.listen_fd readable then accept_conns t;
      List.iter
        (fun conn -> if List.memq conn.fd readable then read_conn t conn)
        t.conns;
      List.iter
        (fun conn -> if List.memq conn.fd writable then flush_conn conn)
        t.conns);
    cull t;
    refresh_gauges t
  done;
  shutdown t

let run cfg =
  let t = create cfg in
  serve t

let useq t = !(t.useq)
let registry t = t.reg
