(** alphonsed: a supervised multi-tenant daemon hosting many
    independent Alphonse engines — one per tenant — behind a
    newline-delimited JSON protocol on the {!Serve} socket layer.

    {2 Wire protocol}

    One request per line, one response line per request, in order:

    {v
    → {"id":1,"tenant":"acme","deadline_ms":250,
       "ops":[{"op":"set","cell":"A1","v":"4"},
              {"op":"get","cell":"A1"}]}
    ← {"id":1,"status":200,"results":[{"ok":true},
              {"cell":"A1","value":4}]}
    v}

    The batch runs atomically ({!Engine.transact}) under an
    {!Engine.Budget} derived from [deadline_ms] (defaulting to the
    configured deadline) and optional [max_steps]. Responses reuse HTTP
    status vocabulary: [200] results; [400] malformed request or op
    (batch rolled back), or an ill-typed field — [ops] not an array,
    [deadline_ms] not a number, [max_steps] not a positive integer —
    answered before the tenant is touched; [408] budget tripped — the batch was
    cancelled at a settle step or a demand execution and {e rolled
    back}, state unchanged; [503] shed, draining, tenant restarting or parked — with
    [retry_after_ms]. [{"op":"ping"}] answers without touching any
    tenant. Ops themselves are interpreted by the hosted
    {!Tenant.workload} ([Sheet.workload] in [alphonsec daemon]).

    {2 Robustness}

    - {e Admission control}: at most [d_global_queue] requests in
      flight and [d_tenant_queue] pending per tenant; beyond either the
      request is shed immediately (503 + [retry_after_ms]) — the daemon
      degrades by answering fast, not by queueing without bound.
    - {e Settle gate}: at most [d_max_settles] batches execute
      concurrently; the rest wait (their deadlines still running).
    - {e Per-tenant supervision}: crash → restart from that tenant's
      own WAL/snapshot directory with exponential backoff + jitter;
      flapping → circuit breaker parks the tenant (503 for it alone).
    - {e Drain}: {!drain} (or SIGTERM via
      {!install_signal_handlers}) stops accepting, finishes in-flight
      requests (bounded by [d_drain_grace]), checkpoints every tenant,
      and {!run} returns.

    The health surface rides the same {!Serve} layer on
    [d_metrics_port]: [/metrics], [/metrics.json], [/healthz],
    [/readyz] (503 until every tenant directory found on disk has been
    recovered, and while draining), [/tenantz] (per-tenant status
    JSON). *)

type config = {
  d_host : string;
  d_port : int;  (** NDJSON protocol port; 0 picks a free one *)
  d_metrics_port : int option;
      (** HTTP health/metrics port; [None] disables the surface *)
  d_root : string;  (** state root; tenants live in [root/tenants/<id>] *)
  d_durable : bool;  (** [false] disables WAL/snapshots (benches) *)
  d_wal_policy : Wal.policy;
  d_max_tenants : int;
  d_tenant_queue : int;  (** pending-per-tenant bound (incl. running) *)
  d_global_queue : int;  (** global in-flight bound *)
  d_max_settles : int;  (** concurrent batch executions *)
  d_default_deadline : float option;
      (** seconds, for requests without [deadline_ms]; [None] = none *)
  d_max_restarts : int;  (** per-tenant circuit-breaker threshold *)
  d_backoff_base : float;
  d_backoff_cap : float;
  d_cooldown : float;
  d_seed : int;
  d_conn_timeout : float;  (** per-connection socket timeout, seconds *)
  d_drain_grace : float;  (** max wait for in-flight work on drain *)
}

val default_config : root:string -> unit -> config
(** Ephemeral port, no HTTP surface, durable, commit-fsync WAL, 4096
    tenants, 16-per-tenant / 1024-global queues, 8 concurrent settles,
    30 s default deadline. Override with record update syntax. *)

type t

val create : ?metrics:Metrics.t -> config -> Tenant.workload -> t
(** Binds the protocol listener (and the HTTP surface when
    [d_metrics_port] is set) and prepares the tenant table. No traffic
    is served until {!run} (or in-process {!submit}). *)

val run : t -> unit
(** Serve until drained: recover every tenant directory under the
    state root (gating [/readyz] meanwhile), then accept connections —
    one thread per connection — until {!drain}. Then finish in-flight
    requests, checkpoint + stop every tenant, close the health
    surface, and return. *)

val start : t -> Thread.t
(** {!run} on a fresh thread (tests; join after {!drain}). *)

val drain : t -> unit
(** Begin graceful shutdown: stop accepting (in-flight requests finish,
    new ones answer 503 "draining"). Safe from a signal handler —
    {!install_signal_handlers} routes SIGTERM/SIGINT here. *)

val install_signal_handlers : t -> unit

val submit : t -> Json.t -> Json.t
(** Process one request through the full admission path (shedding,
    budgets, supervision included) without a socket. The connection
    threads call this; benches and tests drive it directly. *)

val port : t -> int
val metrics_port : t -> int option
val metrics : t -> Metrics.t
val ready : t -> bool
val preload : t -> int
(** Recover every tenant directory now (normally {!run}'s first step);
    returns how many were found. Idempotent. *)

val find_tenant : t -> string -> Tenant.t option
val tenant_ids : t -> string list
val served : t -> int
val inflight : t -> int
val draining : t -> bool
