(** Structured engine telemetry (paper §10: the dynamic dependence
    information "can also be used for additional advantage, such as in
    debugging").

    Attach a recorder to an engine with [Engine.set_telemetry]; the
    engine then emits one {!event} per decision — node creation,
    inconsistency marks, execution begin/end, cache hits, settle pops,
    edge additions/removals, partition unions, evictions — into a
    bounded ring buffer and (optionally) a streaming {!sink}. With no
    recorder attached every instrumentation site costs a single
    predictable branch, so disabled telemetry does not perturb the
    E1–E11 bench counters.

    Three consumers are built in: {!to_chrome_trace} (open a session in
    Perfetto / chrome://tracing as a propagation waterfall), {!profile}
    (per-instance re-execution counts, self time, settle-latency
    histograms), and {!why_recomputed} (the causal chain from a mutated
    storage cell to a re-executed instance). *)

(** One engine decision. Node ids are {!Engine.node_id} values. *)
type event =
  | Storage_created of { id : int; name : string }
  | Instance_created of { id : int; name : string }
  | Marked of { id : int; name : string; cause : int option }
      (** the node was inserted into its inconsistent set; [cause] is the
          node whose processing propagated the mark, [None] an external
          write by the mutator *)
  | Exec_begin of { id : int; name : string; first : bool }
  | Exec_end of { id : int; name : string; changed : bool; ok : bool }
      (** [changed] is the quiescence test; [ok = false] means the body
          raised and the instance stays inconsistent *)
  | Cache_hit of { id : int; name : string }
      (** a call answered from a consistent cached value *)
  | Settle_pop of { id : int; name : string }
      (** the evaluator popped the node from an inconsistent set *)
  | Edge_added of { src : int; dst : int }
      (** a new dependency edge; a re-execution's read of the pred at its
          cursor keeps that edge and emits nothing *)
  | Preds_cut of { id : int; name : string; kept : int }
      (** a re-execution dropped the preds past the first [kept]: its
          reads diverged from the last execution's there, or it stopped
          reading before the end of the list *)
  | Union of { a : int; b : int }  (** §6.3 partition union *)
  | Evicted of { id : int; name : string }
  | Quarantined of { id : int; name : string; attempt : int; error : string }
      (** the instance's execution raised ([attempt] consecutive
          failures so far); it awaits a bounded retry *)
  | Instance_poisoned of { id : int; name : string; error : string }
      (** the retry budget is exhausted; reads now raise
          [Engine.Poisoned] *)
  | Retried of { id : int; name : string; attempt : int }
      (** a quarantined instance was re-marked for retry at settle *)
  | Txn_begin
  | Txn_commit of { marks : int }
  | Txn_rollback of { undone : int; remarked : int }
      (** [undone] cell restorations applied, [remarked] mid-batch
          executions re-invalidated *)
  | Budget_tripped of { reason : string }
      (** the armed [Engine.Budget] cancelled the settle: [reason] names
          the cancel flag, the step cap or the deadline *)
  | Audit_run of { ok : bool; errors : int }
  | Fault_injected of { site : string }
      (** the installed fault hook raised at this engine site *)
  | Wal_rotated of { segment : int }
      (** the write-ahead journal opened a new segment *)
  | Snapshot_written of { file : string; bytes : int; nodes : int }
      (** a {!Durable} checkpoint wrote a snapshot file *)
  | Recovery_started of { dir : string }
  | Recovery_finished of {
      snapshot : bool;  (** a valid snapshot was used (vs full replay) *)
      replayed : int;  (** journal entries applied *)
      dropped : int;  (** entries lost to a torn/corrupt tail *)
      discarded_txns : int;  (** uncommitted transaction groups dropped *)
      verified : bool;  (** replayed write intents matched the journal *)
      degraded : bool;  (** recovery took [degrade_to_exhaustive] *)
    }

type record = { seq : int; at : float; ev : event }
(** [seq] numbers all events ever emitted; [at] is seconds since the
    recorder was created (wall clock, microsecond resolution). *)

type sink = record -> unit

type t
(** A recorder: bounded ring buffer plus optional streaming sink. *)

val default_capacity : int
(** 65536 events. *)

val create : ?capacity:int -> unit -> t
(** [create ()] makes a recorder whose ring holds the last [capacity]
    events (default {!default_capacity}). Older events are silently
    overwritten — attach a {!sink} to keep a complete stream. *)

val emit : t -> event -> unit
(** Records an event (engine-side entry point). *)

val now : t -> float
(** Seconds since the recorder was created — the clock {!emit} stamps
    records with. *)

val set_sink : t -> sink option -> unit
(** Streams every subsequent event to [sink] in addition to the ring. *)

val sink : t -> sink option
(** The currently installed sink — lets a wrapper ({!Flight.arm})
    chain onto an existing stream instead of replacing it. *)

val set_metrics : t -> Metrics.t option -> unit
(** Exposes ring overwrites since attach as the registry's
    [telemetry_dropped_total] counter, read from {!dropped} at scrape
    time, so bounded-buffer loss is visible on a metrics scrape and not
    only post-hoc. [None] detaches, freezing the series. *)

val events : t -> record list
(** The ring contents, oldest first. *)

val iter : t -> (record -> unit) -> unit

val total_emitted : t -> int
(** Events ever emitted, including those overwritten in the ring. *)

val capacity : t -> int

val dropped : t -> int
(** Events lost to ring overwrite: [max 0 (total_emitted - capacity)].
    Never decreases. *)

val pp_event : Format.formatter -> event -> unit
val pp_record : Format.formatter -> record -> unit

(** {1 Chrome trace-event export} *)

val to_chrome_trace : t -> string
(** The recorded window in Chrome trace-event JSON ("JSON object
    format"): executions are duration events on one thread (nested
    re-executions render as a flame graph), everything else instant
    events with the structured payload under ["args"]. Open the file in
    Perfetto or chrome://tracing. The ["otherData"] section carries
    [droppedEvents]/[totalEmitted]/[ringCapacity], so a truncated
    window declares its own incompleteness. *)

(** {1 Per-instance profiles} *)

type instance_profile = {
  id : int;
  name : string;
  executions : int;
  re_executions : int;  (** executions after the first *)
  total_time : float;  (** cumulative wall time inside the body, seconds *)
  self_time : float;  (** [total_time] minus nested executions *)
  marks : int;  (** times marked inconsistent *)
  cache_hits : int;
  latency : int array;
      (** settle-latency histogram: delay from mark to next execution,
          decade buckets per {!bucket_bounds} *)
}

val latency_buckets : int

val bucket_bounds : float array
(** Upper bounds of the settle-latency buckets (seconds, last
    [infinity]), in the convention [Metrics.quantile] expects:
    [latency.(i)] counts the observations below [bucket_bounds.(i)]. *)

val profile : t -> instance_profile list
(** Folds the recorded window into per-instance profiles, hottest
    (largest self time) first; [Inspect.pp_profile_quantiles] prints
    them. *)

(** {1 Provenance} *)

type why_step = {
  step_id : int;
  step_name : string;
  step_at : float;
  step_role : [ `Written | `Marked_by of int | `Executed ];
}

type why = why_step list
(** Oldest first: the external write, the marks it propagated, the
    re-execution it explains. *)

val why_recomputed : t -> id:int -> why option
(** [why_recomputed t ~id] explains the {e last} recorded execution of
    instance [id]: it walks the [cause] fields of the recorded [Marked]
    events backwards to the external write that started the propagation.
    [None] if the instance never executed inside the recorded window;
    the chain is truncated where events have been overwritten. *)

val pp_why : Format.formatter -> why -> unit
