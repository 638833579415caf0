(* Minimal HTTP/1.0 exposition endpoint over plain [Unix] sockets — no
   web framework in the image, and none needed: a metrics scrape is one
   GET, one response, connection closed. This is deliberately NOT a
   general web server: GET only, no keep-alive, no chunking, request
   line + headers capped at 8 KiB, one connection served at a time
   (scrapes are serial and sub-millisecond; a stuck client can delay
   the next scrape but not wedge the process, thanks to a socket
   timeout). The listener half ([create_raw]/[accept]) is also the
   daemon's connection front end: [Daemon] reuses the resilient accept
   loop and runs its own newline-delimited JSON protocol over the
   accepted descriptors. *)

type response = { status : int; content_type : string; body : string }

let text ?(status = 200) body =
  { status; content_type = "text/plain; version=0.0.4; charset=utf-8"; body }

let json ?(status = 200) body =
  { status; content_type = "application/json"; body }

type t = {
  sock : Unix.file_descr;
  port : int;
  addr : Unix.inet_addr;
  routes : (string * (unit -> response)) list;
  timeout : float;
  mutable closed : bool;
  (* transient-failure accounting: accept errors must not kill the
     loop, but they must not be invisible either *)
  mutable accept_errors : int;
  mutable oversize_requests : int;
  mutable sources : Metrics.source list; (* the registry's view of both *)
}

let reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 429 -> "Too Many Requests"
  | 431 -> "Request Header Fields Too Large"
  | 503 -> "Service Unavailable"
  | _ -> "Response"

let create_gen ?(host = "127.0.0.1") ?(timeout = 5.0) ~port routes =
  let addr = Unix.inet_addr_of_string host in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (addr, port));
     Unix.listen sock 64
   with e ->
     (try Unix.close sock with _ -> ());
     raise e);
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  {
    sock;
    port;
    addr;
    routes;
    timeout;
    closed = false;
    accept_errors = 0;
    oversize_requests = 0;
    sources = [];
  }

let create ?host ~port routes = create_gen ?host ~port routes
let create_raw ?host ?timeout ~port () = create_gen ?host ?timeout ~port []
let port s = s.port
let accept_errors s = s.accept_errors
let oversize_requests s = s.oversize_requests

let set_metrics s reg =
  List.iter Metrics.release s.sources;
  s.sources <- [];
  match reg with
  | None -> ()
  | Some reg ->
    s.sources <-
      [
        Metrics.source reg `Counter "serve_accept_errors_total"
          ~help:"transient accept(2) failures survived by the listener"
          (fun () -> s.accept_errors);
        Metrics.source reg `Counter "serve_oversize_requests_total"
          ~help:"requests rejected with 431 (over the 8 KiB cap)" (fun () ->
            s.oversize_requests);
      ]

(* Accept one connection, surviving the transient failures a hostile
   network hands a long-running listener: EINTR (signals), ECONNABORTED
   (client gave up between SYN and accept), EAGAIN/EWOULDBLOCK (kernel
   race), and descriptor exhaustion (EMFILE/ENFILE — backs off instead
   of spinning). Returns [None] once the listener is closed. A blocked
   accept is woken by [close]'s self-connection, so shutdown does not
   wait for a real client. *)
let rec accept s =
  if s.closed then None
  else
    match Unix.accept s.sock with
    | fd, _ ->
      if s.closed then begin
        (try Unix.close fd with _ -> ());
        None
      end
      else begin
        (* a stalled client must not wedge the serving loop *)
        (try
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO s.timeout;
           Unix.setsockopt_float fd Unix.SO_SNDTIMEO s.timeout
         with _ -> ());
        Some fd
      end
    | exception
        Unix.Unix_error
          ((EINTR | ECONNABORTED | EAGAIN | EWOULDBLOCK), _, _) ->
      s.accept_errors <- s.accept_errors + 1;
      accept s
    | exception Unix.Unix_error ((EMFILE | ENFILE), _, _) ->
      s.accept_errors <- s.accept_errors + 1;
      if not s.closed then (try Unix.sleepf 0.05 with _ -> ());
      accept s
    | exception _ when s.closed -> None
    | exception Unix.Unix_error ((EBADF | EINVAL), _, _) ->
      (* closed under us by another thread *)
      None

(* Read until the end of the header block (we ignore bodies: GET only).
   Bounded: a client streaming garbage past 8 KiB is answered 431 and
   cut off instead of having its prefix parsed as a request. *)
let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let read_request fd =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 512 in
  let rec go () =
    if Buffer.length buf > 8192 then `Oversize
    else
      let n = try Unix.read fd chunk 0 (Bytes.length chunk) with _ -> 0 in
      if n = 0 then `Request (Buffer.contents buf)
      else begin
        Buffer.add_subbytes buf chunk 0 n;
        let s = Buffer.contents buf in
        (* tolerate bare-LF clients *)
        if contains_substring s "\r\n\r\n" || contains_substring s "\n\n"
        then `Request s
        else go ()
      end
  in
  go ()

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      match Unix.write fd b off (len - off) with
      | 0 -> ()
      | n -> go (off + n)
      | exception _ -> ()
  in
  go 0

let respond fd { status; content_type; body } =
  write_all fd
    (Printf.sprintf
       "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
        Connection: close\r\n\r\n%s"
       status (reason status) content_type (String.length body) body)

let handle s fd =
  let resp =
    match read_request fd with
    | `Oversize ->
      s.oversize_requests <- s.oversize_requests + 1;
      text ~status:431 "request header fields too large\n"
    | `Request req -> (
      match String.index_opt req '\n' with
      | None -> text ~status:405 "bad request\n"
      | Some nl -> (
        let line = String.trim (String.sub req 0 nl) in
        match String.split_on_char ' ' line with
        | "GET" :: target :: _ -> (
          (* strip any query string: routes are bare paths *)
          let path =
            match String.index_opt target '?' with
            | None -> target
            | Some q -> String.sub target 0 q
          in
          match List.assoc_opt path s.routes with
          | Some f -> ( try f () with _ -> text ~status:503 "handler failed\n")
          | None -> text ~status:404 "not found\n")
        | _ -> text ~status:405 "method not allowed\n"))
  in
  respond fd resp

let serve_one s =
  match accept s with
  | None -> ()
  | Some fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with _ -> ())
      (fun () -> try handle s fd with _ -> ())

let serve ~max_requests s =
  for _ = 1 to max_requests do
    if not s.closed then serve_one s
  done

let serve_forever s =
  while not s.closed do
    serve_one s
  done

let close s =
  if not s.closed then begin
    s.closed <- true;
    (* wake any accept blocked in another thread: closing a descriptor
       does not reliably unblock a concurrent accept(2) on Linux, so
       poke the listener with a throwaway connection first *)
    (try
       let w = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try Unix.connect w (Unix.ADDR_INET (s.addr, s.port)) with _ -> ());
       (try Unix.close w with _ -> ())
     with _ -> ());
    try Unix.close s.sock with _ -> ()
  end
