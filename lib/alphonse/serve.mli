(** Minimal HTTP/1.0 exposition endpoint over plain [Unix] sockets.

    Serves a fixed route table — typically [/metrics] (Prometheus
    text), [/metrics.json], [/healthz] and [/readyz] — to scrapers and
    probes. Deliberately not a general web server: GET only (405
    otherwise), no keep-alive, one connection at a time, 8 KiB request
    cap (431 beyond it), 5 s socket timeouts so a stalled client cannot
    wedge the scrape loop. Handlers run per request, so a [/metrics]
    handler rendering {!Metrics.to_prometheus} always serves current
    values.

    The accept loop survives the transient failures a long-running
    listener meets — [EINTR], [ECONNABORTED], [EAGAIN]/[EWOULDBLOCK],
    descriptor exhaustion — counting them ({!accept_errors}, and
    [serve_accept_errors_total] when metrics are attached) instead of
    dying. The listener half ({!create_raw}/{!accept}) doubles as the
    {!Daemon}'s connection front end. *)

type response = { status : int; content_type : string; body : string }

val text : ?status:int -> string -> response
(** Plain-text response (content type
    [text/plain; version=0.0.4; charset=utf-8] — the Prometheus
    exposition type). Default status 200. *)

val json : ?status:int -> string -> response
(** [application/json] response. Default status 200. *)

type t

val create :
  ?host:string -> port:int -> (string * (unit -> response)) list -> t
(** [create ~port routes] binds and listens (default host
    [127.0.0.1]). [port = 0] picks a free port — read it back with
    {!port} (tests do this to avoid collisions). Routes map bare paths
    (query strings are stripped) to handlers; a handler that raises
    answers 503, an unknown path 404, a request exceeding the 8 KiB
    cap 431. *)

val create_raw : ?host:string -> ?timeout:float -> port:int -> unit -> t
(** A bare listener with no routes, for callers that speak their own
    protocol over {!accept}ed descriptors (the daemon's NDJSON front
    end). [timeout] is the per-connection socket send/receive timeout
    stamped on accepted descriptors (default 5 s; the daemon uses a
    longer one so a think-pause between request lines is not a
    disconnect). *)

val port : t -> int
(** The bound port (useful with [port:0]). *)

val accept : t -> Unix.file_descr option
(** Accept one connection, retrying transient failures (counted in
    {!accept_errors}) and backing off briefly on descriptor
    exhaustion. The descriptor comes with the listener's send/receive
    timeouts already set. [None] once the listener is {!close}d —
    including a close issued from another thread while this call was
    blocked. *)

val accept_errors : t -> int
(** Transient accept failures survived so far. *)

val oversize_requests : t -> int
(** Requests answered 431 so far. *)

val set_metrics : t -> Metrics.t option -> unit
(** Attach a registry: it reads {!accept_errors} and
    {!oversize_requests} since attach, at scrape time, as
    [serve_accept_errors_total] and [serve_oversize_requests_total].
    [None] detaches, freezing both series. *)

val serve : max_requests:int -> t -> unit
(** Accept and answer exactly [max_requests] connections, then return.
    Used by tests and by [alphonsec serve --max-requests]. *)

val serve_forever : t -> unit
(** Accept loop until {!close} is called from another thread/domain (or
    the process dies). *)

val write_all : Unix.file_descr -> string -> unit
(** Best-effort full write (short writes retried, errors swallowed —
    the peer owns its half of the connection). Exposed for protocol
    code layered on {!accept}. *)

val close : t -> unit
(** Stop accepting and release the socket, waking any {!accept} blocked
    in another thread. Idempotent. *)
