(* Subscription-server tests: framing codec, wire protocol, outbox
   semantics, live in-process sessions, and the kill -9 torture run
   against the real binary. *)

open Tric_server
module E = Tric_engine

(* -- frame codec ------------------------------------------------------------- *)

(* Drain every complete frame the decoder currently holds. *)
let rec drain_dec dec acc =
  match Frame.next dec with
  | Ok (Some p) -> drain_dec dec (p :: acc)
  | Ok None -> List.rev acc
  | Error e -> Alcotest.failf "decoder poisoned: %s" e

let feed_str dec s =
  let b = Bytes.of_string s in
  Frame.feed dec b 0 (Bytes.length b)

let test_frame_split_reassembly () =
  let payloads = [ ""; "a"; "hello world"; String.make 100_000 'x'; "\x00\xff\ttail\n" ] in
  let stream = String.concat "" (List.map Frame.encode payloads) in
  (* Worst case: the stream arrives one byte at a time. *)
  let dec = Frame.decoder () in
  let got = ref [] in
  String.iter
    (fun c ->
      feed_str dec (String.make 1 c);
      got := !got @ drain_dec dec [])
    stream;
  Alcotest.(check (list string)) "byte-by-byte reassembly" payloads !got;
  Alcotest.(check int) "nothing left buffered" 0 (Frame.pending dec);
  (* And in one gulp: several frames per feed. *)
  let dec = Frame.decoder () in
  feed_str dec stream;
  Alcotest.(check (list string)) "all frames in one feed" payloads (drain_dec dec [])

let test_frame_oversized_poisons () =
  let dec = Frame.decoder ~max_frame:16 () in
  feed_str dec (Frame.encode (String.make 16 'y'));
  Alcotest.(check (list string)) "at the cap is fine" [ String.make 16 'y' ]
    (drain_dec dec []);
  feed_str dec (Frame.encode (String.make 17 'z'));
  (match Frame.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized frame accepted");
  (* Permanently poisoned: later well-formed bytes change nothing. *)
  feed_str dec (Frame.encode "ok");
  match Frame.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoder recovered from poison"

let test_frame_garbage_header () =
  let dec = Frame.decoder () in
  feed_str dec "\xff\xff\xff\xff";
  match Frame.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage length prefix accepted"

let qcheck_frame_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"frame roundtrip under random chunking"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 8) (string_size (int_range 0 64)))
        (list_size (int_range 1 16) (int_range 1 23)))
    (fun (payloads, cuts) ->
      let stream = String.concat "" (List.map Frame.encode payloads) in
      let dec = Frame.decoder () in
      let got = ref [] in
      let pos = ref 0 and cut = ref 0 in
      let ncuts = List.length cuts in
      while !pos < String.length stream do
        let n = min (List.nth cuts (!cut mod ncuts)) (String.length stream - !pos) in
        incr cut;
        feed_str dec (String.sub stream !pos n);
        pos := !pos + n;
        got := !got @ drain_dec dec []
      done;
      List.equal String.equal payloads !got)

(* -- wire protocol ----------------------------------------------------------- *)

let gen_msg =
  QCheck2.Gen.(
    let str = string_size (int_range 0 24) in
    let emb = list_size (int_range 0 4) (pair small_nat str) in
    let entry =
      map
        (fun (qid, matches, retractions) -> { Wire.qid; matches; retractions })
        (triple small_nat (list_size (int_range 0 3) emb) (list_size (int_range 0 3) emb))
    in
    oneof
      [
        map2 (fun cid last_seen -> Wire.Hello { cid; last_seen }) str (int_range (-1) 1000);
        map2 (fun name pattern -> Wire.Register { name; pattern }) str str;
        map (fun qid -> Wire.Unregister { qid }) int;
        map (fun useq -> Wire.Ack { useq }) int;
        map2 (fun pseq update -> Wire.Publish { pseq; update }) int str;
        map (fun format -> Wire.Stats { format }) str;
        return Wire.Quit;
        map2
          (fun (cid, reset) (cursor, useq) -> Wire.Welcome { cid; cursor; useq; reset })
          (pair str str) (pair int int);
        map (fun qid -> Wire.Registered { qid }) int;
        map2 (fun qid existed -> Wire.Unregistered { qid; existed }) int bool;
        map2 (fun useq entries -> Wire.Notify { useq; entries }) int
          (list_size (int_range 0 4) entry);
        map2 (fun pseq useq -> Wire.Puback { pseq; useq }) int int;
        map (fun body -> Wire.Stats_reply { body }) str;
        map (fun reason -> Wire.Bye { reason }) str;
        map (fun reason -> Wire.Err { reason }) str;
      ])

let qcheck_wire_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"wire roundtrip" gen_msg (fun m ->
      match Wire.decode (Wire.encode m) with Ok m' -> m = m' | Error _ -> false)

let test_wire_rejects_malformed () =
  let reject what s =
    match Wire.decode s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "decoded %s" what
  in
  reject "empty payload" "";
  reject "bad version" "\x02\x07";
  reject "unknown tag" "\x01\x63";
  let enc = Wire.encode (Wire.Welcome { cid = "abc"; cursor = 3; useq = 9; reset = "" }) in
  (* Every proper prefix is a truncation; every extension is trailing
     garbage. *)
  for n = 0 to String.length enc - 1 do
    reject (Printf.sprintf "truncation to %d byte(s)" n) (String.sub enc 0 n)
  done;
  reject "trailing garbage" (enc ^ "z")

(* -- outbox ------------------------------------------------------------------ *)

let emb_a : Wire.emb = [ (0, "u1"); (1, "v") ]
let emb_b : Wire.emb = [ (0, "u2"); (1, "v") ]

let match_item useq e : Outbox.item =
  { Outbox.useq; entries = [ { Wire.qid = 1; matches = [ e ]; retractions = [] } ] }

let retract_item useq e : Outbox.item =
  { Outbox.useq; entries = [ { Wire.qid = 1; matches = []; retractions = [ e ] } ] }

let useq_of = function Some i -> i.Outbox.useq | None -> -1

let test_outbox_basic () =
  let t = Outbox.create ~soft:4 ~hard:8 in
  List.iter
    (fun u -> Alcotest.(check bool) "push ok" true (Outbox.push t (match_item u emb_a) = `Ok))
    [ 1; 2; 3 ];
  Alcotest.(check int) "depth" 3 (Outbox.depth t);
  Alcotest.(check int) "unsent" 3 (Outbox.unsent t);
  Alcotest.(check int) "first out" 1 (useq_of (Outbox.take_to_send t));
  Alcotest.(check int) "sent but retained" 3 (Outbox.depth t);
  (* Ack drops retained items and leaves the send pointer sane. *)
  Outbox.ack t 1;
  Alcotest.(check int) "acked item dropped" 2 (Outbox.depth t);
  Alcotest.(check int) "second out" 2 (useq_of (Outbox.take_to_send t));
  Alcotest.(check int) "third out" 3 (useq_of (Outbox.take_to_send t));
  Alcotest.(check bool) "drained" true (Outbox.take_to_send t = None);
  (* Rewind re-sends everything after the resume cursor. *)
  Outbox.rewind t 1;
  Alcotest.(check int) "rewound unsent" 2 (Outbox.unsent t);
  Alcotest.(check int) "resent from cursor" 2 (useq_of (Outbox.take_to_send t));
  Outbox.ack t 3;
  Alcotest.(check int) "all acked" 0 (Outbox.depth t);
  Alcotest.(check int) "hwm sticks" 3 (Outbox.hwm t);
  (* Items with no entries are never queued. *)
  Alcotest.(check bool) "empty item ok" true (Outbox.push t { Outbox.useq = 9; entries = [] } = `Ok);
  Alcotest.(check int) "empty item not queued" 0 (Outbox.depth t)

let test_outbox_coalesce () =
  let t = Outbox.create ~soft:1 ~hard:10 in
  ignore (Outbox.push t (match_item 1 emb_a));
  ignore (Outbox.push t (match_item 2 emb_b));
  (* Past the soft cap a retraction annihilates the matching unsent
     match; the pair never reaches the subscriber. *)
  ignore (Outbox.push t (retract_item 3 emb_b));
  Alcotest.(check int) "one pair coalesced" 1 (Outbox.coalesced t);
  let remaining = Outbox.items t in
  Alcotest.(check (list int)) "only the un-coalesced match remains" [ 1 ]
    (List.map (fun i -> i.Outbox.useq) remaining);
  Alcotest.(check int) "take skips hollowed items" 1 (useq_of (Outbox.take_to_send t));
  (* Sent items are off-limits to coalescing — exactly-once resend must
     still see them — so this retraction queues normally. *)
  ignore (Outbox.push t (retract_item 4 emb_a));
  Alcotest.(check int) "sent match not coalesced" 1 (Outbox.coalesced t);
  Alcotest.(check (list int)) "retraction of a sent match queued" [ 1; 4 ]
    (List.map (fun i -> i.Outbox.useq) (Outbox.items t));
  Alcotest.(check int) "then the retraction goes out" 4 (useq_of (Outbox.take_to_send t))

let test_outbox_overflow () =
  let t = Outbox.create ~soft:1 ~hard:2 in
  Alcotest.(check bool) "1st ok" true (Outbox.push t (match_item 1 emb_a) = `Ok);
  Alcotest.(check bool) "2nd ok" true (Outbox.push t (match_item 2 emb_b) = `Ok);
  Alcotest.(check bool) "hard cap refuses" true
    (Outbox.push t (match_item 3 emb_a) = `Overflow);
  Alcotest.(check int) "dropped, not queued" 2 (Outbox.depth t);
  (match Outbox.create ~soft:0 ~hard:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "soft=0 accepted");
  match Outbox.create ~soft:4 ~hard:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "hard < soft accepted"

let test_outbox_snapshot_roundtrip () =
  let t = Outbox.create ~soft:4 ~hard:8 in
  List.iter (fun u -> ignore (Outbox.push t (match_item u emb_a))) [ 1; 2; 3 ];
  ignore (Outbox.take_to_send t);
  let t' = Outbox.of_items ~soft:4 ~hard:8 (Outbox.items t) in
  Alcotest.(check int) "depth restored" 3 (Outbox.depth t');
  Alcotest.(check int) "everything unsent again" 3 (Outbox.unsent t');
  Alcotest.(check (list int)) "same items in order" [ 1; 2; 3 ]
    (List.map (fun i -> i.Outbox.useq) (Outbox.items t'))

(* -- live in-process server -------------------------------------------------- *)

let fresh_paths name =
  let dir = Filename.get_temp_dir_name () in
  let tag = Printf.sprintf "%s_%d" name (Unix.getpid ()) in
  ( Filename.concat dir (Printf.sprintf "tric_%s.sock" tag),
    Filename.concat dir (Printf.sprintf "tric_%s.journal" tag) )

let cleanup_paths (sock, journal) =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ sock; journal; journal ^ ".snap"; journal ^ ".snap.tmp" ]

(* Run [f sock journal] against an in-process server on its own domain;
   [f] is responsible for stopping it (Quit) — the finally is a backstop. *)
let with_server ?(snapshot_every = 0) ?(outbox_soft = 64) ?(outbox_hard = 256) name f =
  let sock, journal = fresh_paths name in
  cleanup_paths (sock, journal);
  let cfg =
    {
      (Server.default_config ~sock_path:sock ~journal_path:journal) with
      Server.snapshot_every;
      outbox_soft;
      outbox_hard;
    }
  in
  let t = Server.create cfg in
  let d = Domain.spawn (fun () -> Server.serve t) in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop t;
      Domain.join d;
      cleanup_paths (sock, journal))
    (fun () -> f sock journal)

(* Wait for the Puback of [pseq], collecting any Notifys that arrive
   before it on the same connection. *)
let publish_wait cl pseq update =
  Client.send cl (Wire.Publish { pseq; update });
  let rec go notifies =
    match Client.recv_exn ~timeout_s:10.0 cl with
    | Wire.Puback { pseq = p; useq } ->
      Alcotest.(check int) "puback echoes pseq" pseq p;
      (List.rev notifies, useq)
    | Wire.Notify { useq; entries } -> go ((useq, entries) :: notifies)
    | m -> Alcotest.failf "unexpected reply to publish: %s" (Wire.encode m |> String.escaped)
  in
  go []

let register_wait cl name pattern =
  Client.send cl (Wire.Register { name; pattern });
  match Client.recv_exn ~timeout_s:10.0 cl with
  | Wire.Registered { qid } -> qid
  | Wire.Err { reason } -> Alcotest.failf "register rejected: %s" reason
  | _ -> Alcotest.fail "unexpected reply to register"

let test_server_basic_session () =
  with_server "basic" (fun sock _journal ->
      let cl = Client.connect sock in
      let cursor, useq0, reset = Client.hello cl "alice" in
      Alcotest.(check int) "fresh cursor" 0 cursor;
      Alcotest.(check int) "fresh useq" 0 useq0;
      Alcotest.(check string) "no reset" "" reset;
      let qid = register_wait cl "edges" "?x -a-> ?y" in
      Alcotest.(check int) "same pattern, same qid" qid
        (register_wait cl "edges2" "?x -a-> ?y");
      let _, useq = publish_wait cl 7 "u -a-> v" in
      Alcotest.(check int) "useq advanced" 1 useq;
      (* The Puback is written before the outbox pump runs, so the
         notification follows it. *)
      (match Client.recv_exn ~timeout_s:10.0 cl with
      | Wire.Notify { useq = 1; entries = [ e ] } ->
        Alcotest.(check int) "notify names the query" qid e.Wire.qid;
        Alcotest.(check int) "one new match" 1 (List.length e.Wire.matches);
        Alcotest.(check int) "no retractions" 0 (List.length e.Wire.retractions)
      | _ -> Alcotest.fail "expected exactly one notify for the match");
      (* The retraction flows on the second channel. *)
      ignore (publish_wait cl 8 "- u -a-> v");
      (match Client.recv_exn ~timeout_s:10.0 cl with
      | Wire.Notify { useq = 2; entries = [ e ] } ->
        Alcotest.(check int) "no new matches" 0 (List.length e.Wire.matches);
        Alcotest.(check int) "one retraction" 1 (List.length e.Wire.retractions)
      | _ -> Alcotest.fail "expected exactly one retraction notify");
      (* A non-matching update is acked but notifies nobody. *)
      let _, useq = publish_wait cl 9 "u -c-> v" in
      Alcotest.(check int) "silent update still sequenced" 3 useq;
      (match Client.recv ~timeout_s:0.3 cl with
      | None -> ()
      | Some _ -> Alcotest.fail "silent update produced a notification");
      Client.send cl (Wire.Ack { useq = 3 });
      (* A second distinct pattern gets its own qid; unregistering it twice
         reports existence honestly. *)
      let qid2 = register_wait cl "pairs" "?x -b-> ?y" in
      Alcotest.(check bool) "distinct qid" true (qid2 <> qid);
      Client.send cl (Wire.Unregister { qid = qid2 });
      (match Client.recv_exn ~timeout_s:10.0 cl with
      | Wire.Unregistered { qid = q; existed } ->
        Alcotest.(check int) "unregistered qid" qid2 q;
        Alcotest.(check bool) "existed" true existed
      | _ -> Alcotest.fail "expected Unregistered");
      Client.send cl (Wire.Unregister { qid = qid2 });
      (match Client.recv_exn ~timeout_s:10.0 cl with
      | Wire.Unregistered { existed; _ } -> Alcotest.(check bool) "gone" false existed
      | _ -> Alcotest.fail "expected Unregistered");
      (* Stats in both formats. *)
      Client.send cl (Wire.Stats { format = "prometheus" });
      (match Client.recv_exn ~timeout_s:10.0 cl with
      | Wire.Stats_reply { body } ->
        Alcotest.(check bool) "prometheus text" true
          (Helpers.contains body "srv_useq")
      | _ -> Alcotest.fail "expected Stats_reply");
      Client.send cl (Wire.Stats { format = "json" });
      (match Client.recv_exn ~timeout_s:10.0 cl with
      | Wire.Stats_reply { body } ->
        Alcotest.(check bool) "envelope json" true
          (Helpers.contains body "tric-metrics-v1")
      | _ -> Alcotest.fail "expected Stats_reply");
      Client.send cl Wire.Quit;
      (match Client.recv_exn ~timeout_s:10.0 cl with
      | Wire.Bye _ -> ()
      | _ -> Alcotest.fail "expected Bye");
      Client.close cl)

(* The server's engine is unwindowed, so a WITHIN registration is refused
   rather than run with its clause dropped; the session stays usable. *)
let test_server_refuses_within () =
  with_server "within" (fun sock _journal ->
      let cl = Client.connect sock in
      ignore (Client.hello cl "wendy");
      Client.send cl (Wire.Register { name = "w"; pattern = "?x -a-> ?y WITHIN 2 EVENTS" });
      (match Client.recv_exn ~timeout_s:10.0 cl with
      | Wire.Err { reason } ->
        Alcotest.(check bool) "reason names WITHIN" true (Helpers.contains reason "WITHIN")
      | _ -> Alcotest.fail "expected Err for a WITHIN registration");
      ignore (register_wait cl "plain" "?x -a-> ?y");
      Client.send cl Wire.Quit;
      (match Client.recv_exn ~timeout_s:10.0 cl with
      | Wire.Bye _ -> ()
      | _ -> Alcotest.fail "expected Bye");
      Client.close cl)

(* A subscriber whose notification is already on the socket (and not yet
   in its decoder) gets it from a zero-timeout recv: a passed deadline
   still polls once. *)
let test_client_recv_zero_timeout () =
  with_server "recv0" (fun sock _journal ->
      let sub = Client.connect sock in
      ignore (Client.hello sub "sub");
      ignore (register_wait sub "q" "?x -a-> ?y");
      let pub = Client.connect sock in
      ignore (Client.hello pub "pub");
      ignore (publish_wait pub 1 "u -a-> v");
      (match Unix.select [ Client.fd sub ] [] [] 10.0 with
      | [], _, _ -> Alcotest.fail "notification never reached the subscriber socket"
      | _ -> ());
      (match Client.recv ~timeout_s:0. sub with
      | Some (Wire.Notify { useq = 1; _ }) -> ()
      | Some _ -> Alcotest.fail "expected the notification"
      | None -> Alcotest.fail "recv ~timeout_s:0. ignored a message on the socket");
      Client.send pub Wire.Quit;
      ignore (Client.recv_exn pub);
      Client.close pub;
      Client.close sub)

let test_server_overflow_evicts () =
  with_server "overflow" ~outbox_soft:1 ~outbox_hard:2 (fun sock _journal ->
      let bob = Client.connect sock in
      ignore (Client.hello bob "bob");
      ignore (register_wait bob "q" "?x -a-> ?y");
      let pub = Client.connect sock in
      (* Three unacked notifications against a hard cap of two: the third
         push overflows and bob is evicted. *)
      List.iteri
        (fun i u -> ignore (publish_wait pub (i + 1) u))
        [ "u1 -a-> v"; "u2 -a-> v"; "u3 -a-> v" ];
      let rec read_to_bye seen =
        match Client.recv_exn ~timeout_s:10.0 bob with
        | Wire.Bye { reason } ->
          Alcotest.(check string) "eviction names the cause" "overflow" reason;
          seen
        | Wire.Notify { useq; _ } -> read_to_bye (useq :: seen)
        | _ -> Alcotest.fail "unexpected message before Bye"
      in
      let delivered = read_to_bye [] in
      Alcotest.(check bool) "undelivered work was dropped" true (List.length delivered <= 2);
      Client.close bob;
      (* The next hello gets a clean slate and is told why. *)
      let bob2 = Client.connect sock in
      let _, _, reset = Client.hello bob2 "bob" in
      Alcotest.(check string) "welcome carries the eviction cause" "overflow" reset;
      (* Subscriptions were reset: a new publish notifies nothing. *)
      let notifies, _ = publish_wait pub 4 "u4 -a-> v" in
      Alcotest.(check int) "no notify to publisher" 0 (List.length notifies);
      (match Client.recv ~timeout_s:0.3 bob2 with
      | None -> ()
      | Some _ -> Alcotest.fail "evicted client still subscribed after reset");
      Client.send pub Wire.Quit;
      Client.close bob2;
      Client.close pub)

let test_server_resume_exactly_once () =
  with_server "resume" (fun sock _journal ->
      let pub = Client.connect sock in
      let carol = Client.connect sock in
      ignore (Client.hello carol "carol");
      ignore (register_wait carol "q" "?x -a-> ?y");
      ignore (publish_wait pub 1 "u1 -a-> v");
      (match Client.recv_exn ~timeout_s:10.0 carol with
      | Wire.Notify { useq = 1; _ } -> ()
      | _ -> Alcotest.fail "expected first notify");
      Client.send carol (Wire.Ack { useq = 1 });
      (* Carol drops off without closing the books; the stream keeps
         flowing, including a publisher resend of u2 (a set-semantics
         no-op that must not produce a duplicate notification). *)
      Client.close carol;
      ignore (publish_wait pub 2 "u2 -a-> v");
      ignore (publish_wait pub 3 "u3 -a-> v");
      ignore (publish_wait pub 2 "u2 -a-> v");
      (* On resume from her cursor she gets exactly the missed window. *)
      let carol2 = Client.connect sock in
      let cursor, _, reset = Client.hello ~last_seen:1 carol2 "carol" in
      Alcotest.(check int) "cursor at resume token" 1 cursor;
      Alcotest.(check string) "not a reset" "" reset;
      let missed =
        List.map
          (fun _ ->
            match Client.recv_exn ~timeout_s:10.0 carol2 with
            | Wire.Notify { useq; entries } -> (useq, entries)
            | _ -> Alcotest.fail "expected replayed notify")
          [ (); () ]
      in
      Alcotest.(check (list int)) "missed window replayed in order" [ 2; 3 ]
        (List.map fst missed);
      (match Client.recv ~timeout_s:0.3 carol2 with
      | None -> ()
      | Some _ -> Alcotest.fail "replay overshot the pending window");
      (* Acking through the replay empties the pending window: a fresh
         resume has nothing to deliver. *)
      Client.send carol2 (Wire.Ack { useq = 3 });
      Client.close carol2;
      let carol3 = Client.connect sock in
      let cursor, _, _ = Client.hello ~last_seen:3 carol3 "carol" in
      Alcotest.(check int) "cursor advanced" 3 cursor;
      (match Client.recv ~timeout_s:0.3 carol3 with
      | None -> ()
      | Some _ -> Alcotest.fail "acked notifications redelivered");
      Client.send carol3 Wire.Quit;
      Client.close carol3;
      Client.close pub)

(* -- kill -9 torture against the real binary --------------------------------- *)

let norm_entry (e : Wire.entry) =
  let cmp_pair (a, b) (c, d) =
    match Int.compare a c with 0 -> String.compare b d | n -> n
  in
  let cmp_emb x y = List.compare cmp_pair x y in
  {
    e with
    Wire.matches = List.sort cmp_emb e.Wire.matches;
    retractions = List.sort cmp_emb e.Wire.retractions;
  }

let norm_entries es = List.map norm_entry es

(* Pull every notification currently deliverable on [cl] (bounded by
   [timeout_s] of quiet), tolerating the peer dying mid-read. *)
let drain_notifies ?(timeout_s = 0.3) cl =
  let rec go acc =
    match Client.recv ~timeout_s cl with
    | Some (Wire.Notify { useq; entries }) -> go ((useq, entries) :: acc)
    | Some _ -> go acc
    | None -> List.rev acc
    | exception End_of_file -> List.rev acc
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> List.rev acc
  in
  go []

let test_server_torture () =
  let bin = Helpers.cli_path () in
  if not (Sys.file_exists bin) then
    Alcotest.failf "tric_cli.exe not built next to the test binary (%s)" bin;
  let dir = Filename.temp_file "tric_torture" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "s.sock" in
  let journal = Filename.concat dir "j.log" in
  let server_log = Filename.concat dir "server.log" in
  let start_server () =
    let log =
      Unix.openfile server_log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
    in
    let pid =
      Unix.create_process bin
        [|
          bin; "serve"; "--socket"; sock; "--journal"; journal; "--shards"; "4";
          "--snapshot-every"; "40";
        |]
        Unix.stdin log log
    in
    Unix.close log;
    pid
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f ->
          let p = Filename.concat dir f in
          if Sys.file_exists p then Sys.remove p)
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      (* The workload: seeded adds with periodic removals of live edges,
         over a vocabulary small enough to force shared structure. *)
      let st = Helpers.rng 7 in
      let nodes = [| "n1"; "n2"; "n3"; "n4"; "n5" |] in
      let labels = [| "a"; "b" |] in
      let pick a = a.(Random.State.int st (Array.length a)) in
      let live = ref [] in
      let total = 160 in
      let updates =
        List.init total (fun i ->
            if (i + 1) mod 4 = 0 && !live <> [] then begin
              let e = List.nth !live (Random.State.int st (List.length !live)) in
              live := List.filter (fun x -> not (String.equal x e)) !live;
              "- " ^ e
            end
            else begin
              let e = Printf.sprintf "%s -%s-> %s" (pick nodes) (pick labels) (pick nodes) in
              if not (List.exists (String.equal e) !live) then live := e :: !live;
              e
            end)
      in
      let patterns =
        [
          ("s0", [ "?x -a-> ?y" ]);
          ("s1", [ "?x -a-> ?y -b-> ?z"; "?x -b-> ?y" ]);
          ("s2", [ "?x -b-> ?y" ]);
          ("s3", [ "?x -a-> ?y" ]);
        ]
      in
      let pid = ref (start_server ()) in
      let subs =
        List.map
          (fun (cid, pats) ->
            let cl = Client.connect sock in
            ignore (Client.hello cl cid);
            let qids = List.map (fun p -> register_wait cl cid p) pats in
            (cid, ref cl, qids, ref []))
          patterns
      in
      (* s0 and s3 share a pattern — the server must dedupe the query. *)
      (match subs with
      | (_, _, [ q0 ], _) :: _ ->
        let _, _, q3, _ = List.nth subs 3 in
        Alcotest.(check (list int)) "shared pattern shares its qid" [ q0 ] q3
      | _ -> Alcotest.fail "unexpected subscription shape");
      let pub = ref (Client.connect sock) in
      let drain_all ?timeout_s () =
        List.iter
          (fun (_, cl, _, got) -> got := !got @ drain_notifies ?timeout_s !cl)
          subs
      in
      let publish_one i u =
        ignore (publish_wait !pub i u);
        if i mod 8 = 0 then drain_all ~timeout_s:0.05 ();
        if i mod 16 = 0 then
          List.iter
            (fun (_, cl, _, got) ->
              match List.rev !got with
              | (useq, _) :: _ -> Client.send !cl (Wire.Ack { useq })
              | [] -> ())
            subs
      in
      let kill_at = 90 in
      List.iteri (fun i u -> if i + 1 <= kill_at then publish_one (i + 1) u) updates;
      (* The crash: one more update goes out with no Puback awaited, then
         kill -9.  Whether or not it landed, the resend below must leave
         every subscriber with exactly one copy. *)
      let inflight = List.nth updates kill_at in
      Client.send !pub (Wire.Publish { pseq = kill_at + 1; update = inflight });
      Unix.kill !pid Sys.sigkill;
      ignore (Unix.waitpid [] !pid);
      (* Collect whatever made it into the socket buffers pre-crash. *)
      drain_all ();
      (try Client.close !pub with Unix.Unix_error _ -> ());
      (* Restart and resume: subscriptions must survive without
         re-registering; each client resumes from the last useq it saw. *)
      pid := start_server ();
      List.iter
        (fun (cid, cl, _, got) ->
          (try Client.close !cl with Unix.Unix_error _ -> ());
          let c = Client.connect sock in
          let last_seen =
            match List.rev !got with (useq, _) :: _ -> useq | [] -> -1
          in
          let _, _, reset = Client.hello ~last_seen c cid in
          Alcotest.(check string) (cid ^ " not evicted across crash") "" reset;
          cl := c)
        subs;
      pub := Client.connect sock;
      (* Publisher redelivers the unacked in-flight update, then finishes
         the stream. *)
      List.iteri
        (fun i u -> if i + 1 > kill_at then publish_one (i + 1) u)
        updates;
      drain_all ~timeout_s:0.5 ();
      (* Graceful shutdown so the journal closes cleanly. *)
      Client.send !pub Wire.Quit;
      (match Client.recv_exn ~timeout_s:10.0 !pub with
      | Wire.Bye _ -> ()
      | _ -> Alcotest.fail "expected Bye");
      ignore (Unix.waitpid [] !pid);
      (try Client.close !pub with Unix.Unix_error _ -> ());
      List.iter (fun (_, cl, _, _) -> try Client.close !cl with Unix.Unix_error _ -> ()) subs;
      (* Oracle: a sequential engine over the same logical stream.  The
         resent update is applied once here — set semantics made the
         server's second application a silent no-op. *)
      let oracle = E.Engines.tric ~cache:true () in
      let qid_of = Hashtbl.create 8 in
      List.iter
        (fun (_, _, qids, _) -> List.iter (fun q -> Hashtbl.replace qid_of q ()) qids)
        subs;
      List.iter
        (fun (cid, pats) ->
          let _, _, qids, _ = List.find (fun (c, _, _, _) -> String.equal c cid) subs in
          List.iter2
            (fun p qid ->
              if Hashtbl.mem qid_of qid then begin
                Hashtbl.remove qid_of qid;
                oracle.E.Matcher.add_query (Helpers.pattern ~name:cid ~id:qid p)
              end)
            pats qids)
        patterns;
      let expected = Hashtbl.create 8 in
      List.iter (fun (cid, _, _, _) -> Hashtbl.replace expected cid []) subs;
      List.iter
        (fun u ->
          let r = oracle.E.Matcher.handle_update (Helpers.update u) in
          List.iter
            (fun (cid, _, qids, _) ->
              let entries =
                List.filter_map
                  (fun qid ->
                    let ms = E.Report.matches_of r qid in
                    let rs = E.Report.retractions_of r qid in
                    if ms = [] && rs = [] then None
                    else
                      Some
                        {
                          Wire.qid;
                          matches = List.map Wire.of_embedding ms;
                          retractions = List.map Wire.of_embedding rs;
                        })
                  (List.sort Int.compare qids)
              in
              if entries <> [] then
                Hashtbl.replace expected cid (entries :: Hashtbl.find expected cid))
            subs)
        updates;
      (* Exactly-once, in order, bit-for-bit content: each subscriber's
         pre-crash + post-resume stream equals the oracle's, with strictly
         increasing useqs and no duplicates or gaps. *)
      List.iter
        (fun (cid, _, _, got) ->
          let useqs = List.map fst !got in
          let rec strictly_inc = function
            | a :: (b :: _ as tl) -> a < b && strictly_inc tl
            | _ -> true
          in
          Alcotest.(check bool) (cid ^ " useqs strictly increase") true (strictly_inc useqs);
          let actual = List.map (fun (_, es) -> norm_entries es) !got in
          let want = List.rev_map norm_entries (Hashtbl.find expected cid) in
          Alcotest.(check int)
            (Printf.sprintf "%s stream length (%d notifications)" cid (List.length want))
            (List.length want) (List.length actual);
          if actual <> want then Alcotest.failf "%s stream diverges from the oracle" cid)
        subs;
      (* The journal compacted: recovery is snapshot + bounded tail, far
         fewer records than the stream, and the recovered state is
         audit-clean. *)
      let j = E.Journal.open_ ~path:journal (fun () -> E.Engines.tric ~cache:true ()) in
      Alcotest.(check bool) "snapshot exists" true (E.Journal.has_snapshot j);
      let log_text =
        let ic = open_in_bin server_log in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let snapshot_lines =
        List.length
          (List.filter (fun l -> Helpers.contains l "written to") (String.split_on_char '\n' log_text))
      in
      Alcotest.(check bool)
        (Printf.sprintf "compacted repeatedly (%d snapshots logged)" snapshot_lines)
        true (snapshot_lines >= 2);
      Alcotest.(check bool)
        (Printf.sprintf "replay bounded by the tail (%d records)" (E.Journal.recovered j))
        true
        (E.Journal.recovered j < 100);
      Alcotest.(check bool) "state restored from snapshot" true (E.Journal.restored j > 0);
      let eng = E.Journal.engine j in
      let findings = eng.E.Matcher.audit None in
      if not (Tric_audit.Audit.is_clean findings) then
        Alcotest.failf "recovered server state unclean:@.%a" Tric_audit.Audit.pp_report
          findings;
      E.Journal.close j)

let suite =
  [
    Alcotest.test_case "frame split-read reassembly" `Quick test_frame_split_reassembly;
    Alcotest.test_case "frame oversized poisons decoder" `Quick test_frame_oversized_poisons;
    Alcotest.test_case "frame garbage header rejected" `Quick test_frame_garbage_header;
    QCheck_alcotest.to_alcotest qcheck_frame_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_wire_roundtrip;
    Alcotest.test_case "wire rejects malformed input" `Quick test_wire_rejects_malformed;
    Alcotest.test_case "outbox retain/ack/rewind" `Quick test_outbox_basic;
    Alcotest.test_case "outbox coalesces under soft backpressure" `Quick test_outbox_coalesce;
    Alcotest.test_case "outbox overflow at hard cap" `Quick test_outbox_overflow;
    Alcotest.test_case "outbox snapshot roundtrip" `Quick test_outbox_snapshot_roundtrip;
    Alcotest.test_case "server basic session" `Quick test_server_basic_session;
    Alcotest.test_case "server evicts on overflow" `Quick test_server_overflow_evicts;
    Alcotest.test_case "server exactly-once resume" `Quick test_server_resume_exactly_once;
    Alcotest.test_case "server kill -9 torture" `Slow test_server_torture;
    Alcotest.test_case "client recv polls at a zero timeout" `Quick
      test_client_recv_zero_timeout;
    Alcotest.test_case "server refuses WITHIN registrations" `Quick test_server_refuses_within;
  ]
