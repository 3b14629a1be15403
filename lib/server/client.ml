type t = { fd : Unix.file_descr; dec : Frame.decoder; scratch : Bytes.t }

let connect ?(retries = 100) sock_path =
  let rec go n =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock_path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when n > 0 ->
      Unix.close fd;
      Unix.sleepf 0.05;
      go (n - 1)
    | exception e ->
      Unix.close fd;
      raise e
  in
  { fd = go retries; dec = Frame.decoder (); scratch = Bytes.create 65536 }

let fd t = t.fd

let send t msg =
  let frame = Frame.encode (Wire.encode msg) in
  let n = String.length frame in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring t.fd frame !written (n - !written)
  done

let recv ?timeout_s t =
  let deadline =
    match timeout_s with Some s -> Some (Unix.gettimeofday () +. s) | None -> None
  in
  let rec go () =
    match Frame.next t.dec with
    | Error e -> failwith ("Client: framing error: " ^ e)
    | Ok (Some payload) -> (
      match Wire.decode payload with
      | Ok msg -> Some msg
      | Error e -> failwith ("Client: bad frame: " ^ e))
    | Ok None -> (
      (* A passed deadline still polls the socket once (timeout 0), so a
         message already there is returned rather than reported missing. *)
      let wait =
        match deadline with
        | None -> -1.
        | Some d -> Float.max 0. (d -. Unix.gettimeofday ())
      in
      match Unix.select [ t.fd ] [] [] wait with
      | [], _, _ -> None
      | _ :: _, _, _ -> (
        match Unix.read t.fd t.scratch 0 (Bytes.length t.scratch) with
        | 0 -> raise End_of_file
        | n ->
          Frame.feed t.dec t.scratch 0 n;
          go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let recv_exn ?(timeout_s = 10.) t =
  match recv ~timeout_s t with
  | Some msg -> msg
  | None -> failwith "Client: timed out waiting for a message"

let hello ?(last_seen = -1) t cid =
  send t (Wire.Hello { cid; last_seen });
  let rec wait () =
    match recv_exn t with
    | Wire.Welcome { cursor; useq; reset; _ } -> (cursor, useq, reset)
    | Wire.Err { reason } -> failwith ("Client: hello rejected: " ^ reason)
    | _ -> wait ()
  in
  wait ()

let close t = try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ()
