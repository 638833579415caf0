(** One supervised tenant: an isolated {!Engine.t} + domain instance
    with its own durable state directory
    ([<root>/tenants/<id>]), supervised with restart-on-crash,
    exponential backoff with deterministic jitter, and a circuit
    breaker that parks a flapping tenant without touching its
    neighbours.

    Fault isolation boundaries:
    - {e state}: each tenant journals to its own WAL and snapshots into
      its own directory; recovery after a crash replays only that
      tenant's log.
    - {e failure}: a crash during a batch tears down only this tenant's
      session; the supervisor rebuilds it from disk after a backoff.
      [crashes] consecutive crashes beyond [c_max_restarts] open the
      circuit: the tenant answers "unavailable" (the daemon's 503) for
      [c_cooldown] seconds, then a single half-open probe retries.
    - {e time}: batches run under an {!Engine.Budget}; a deadline trip
      rolls the batch back ({!Engine.transact}) and reports
      [Cancelled] without charging the crash counter.

    The [lock] serializes batches per tenant — one in-flight batch per
    tenant is the concurrency unit the daemon builds its queues on. *)

exception Bad_op of string
(** Raised by a workload's [s_apply] on a malformed operation. The
    batch rolls back and the error is reported as [Rejected] — client
    fault, not a tenant crash. *)

(** What the daemon hosts: a factory of per-tenant instances. The
    daemon layer is domain-agnostic — [bin/alphonsec.ml] wires the
    spreadsheet workload ([Sheet.workload]). *)
type session = {
  s_engine : Engine.t;  (** the tenant's private engine *)
  s_apply : Json.t -> Json.t;
      (** execute one operation against the domain; returns the
          operation's result, raises {!Bad_op} on malformed input *)
  s_persist : Durable.persistable;  (** durability hooks for the domain *)
  s_set_journal : (Json.t -> unit) option -> unit;
      (** route the domain's mutations through the given write-ahead
          callback (installed by the supervisor at attach time) *)
}

type workload = { w_make : unit -> session }

type config = {
  c_root : string;  (** state root; tenant dirs live under [root/tenants] *)
  c_durable : bool;  (** [false] skips WAL/snapshot entirely (benches) *)
  c_wal_policy : Wal.policy;
  c_max_restarts : int;
      (** consecutive crashes tolerated before the circuit opens *)
  c_backoff_base : float;  (** first restart delay, seconds *)
  c_backoff_cap : float;  (** backoff ceiling, seconds *)
  c_cooldown : float;  (** parked duration before a half-open probe *)
  c_seed : int;  (** jitter determinism *)
  c_metrics : Metrics.t option;
      (** registry shared by every tenant: engine cells plus
          [tenant_restarts_total] / [tenant_crashes_total] /
          [tenant_trips_total] *)
}

val valid_id : string -> bool
(** Tenant ids become directory names: 1–64 chars from
    [[A-Za-z0-9._-]], not starting with a dot. Anything else is
    rejected before it can escape the state root. *)

type t

type status =
  | Serving
  | Backoff of float  (** restart pending; seconds until the attempt *)
  | Parked of float  (** circuit open; seconds until the half-open probe *)
  | Stopped

type error =
  | Cancelled of string
      (** the batch's budget tripped; the transaction rolled back *)
  | Rejected of string  (** malformed operation ({!Bad_op}) *)
  | Unavailable of { reason : string; retry_after : float }
      (** crashed / restarting / circuit open — retry later *)

val create : config -> workload -> id:string -> t
(** Creates the tenant and starts (= recovers) its first session from
    [<root>/tenants/<id>]. A failing first start does not raise: the
    tenant begins in [Backoff] and submits report [Unavailable].
    @raise Invalid_argument when {!valid_id} rejects [id]. *)

val submit :
  t ->
  ?budget:Engine.Budget.t ->
  now:float ->
  Json.t list ->
  (Json.t list, error) result
(** Run one batch: every op applied in order inside
    {!Engine.transact}, the closing settle included, under [budget]
    when given. Serialized per tenant (callers block on the tenant
    lock — the daemon bounds how many may wait). A successful batch
    resets the consecutive-crash counter; an unexpected exception
    tears the session down and schedules a restart. *)

val status : t -> now:float -> status
val id : t -> string
val dir : t -> string
val engine : t -> Engine.t option
(** The live session's engine ([None] while down) — tests reach
    through this to poke fault hooks. *)

val checkpoint : t -> unit
(** Snapshot + journal rotation for this tenant (no-op while down). *)

val stop : t -> unit
(** Checkpoint, detach durability, drop the session. Terminal: further
    submits answer [Unavailable "stopped"]. The session is dropped even
    when the checkpoint fails; that failure is then re-raised. *)

val set_kill_hook : t -> (string -> unit) option -> unit
(** Install a durability kill hook on the live session and on every
    future session the supervisor starts. *)

val crashes : t -> int
(** Consecutive crashes (resets on a successful batch). *)

val restarts : t -> int
(** Lifetime restart attempts. *)

val trips : t -> int
(** Lifetime circuit-breaker trips. *)

val last_error : t -> string option
val last_recovery : t -> Durable.outcome option
