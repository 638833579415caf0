(** The Alphonse incremental-computation engine (paper §4–§5).

    The engine owns the dynamic dependency graph, the call stack of
    currently-executing incremental procedure instances, and the
    inconsistent sets that drive quiescence propagation. It implements the
    engine half of the three transformation templates:

    - [access] (Algorithm 3) → {!new_storage} + {!record_read}
    - [modify] (Algorithm 4) → {!record_write}
    - [call]   (Algorithm 5) → {!new_instance} + {!on_call}

    The typed halves (value cells, argument tables, result caches) live in
    {!Var} and {!Func}, which hold their state in closures so the engine
    itself is value-agnostic.

    {2 Deviations from the paper, and why}

    - Algorithm 5 runs the evaluator on any call finding a cached node with
      a non-empty inconsistent set. We run it only when no incremental
      procedure is executing; a dirty dependency reached {e during} an
      execution is recomputed on the spot ({!on_call} forces it), which
      computes the same values without re-entering the evaluator.
    - Algorithm 4 compares the written value against the value cached in
      the storage node. We compare against the current contents of the
      typed cell, which is equal to it except in A→B→A write sequences
      between propagations; there we conservatively schedule a propagation
      that quiesces immediately. *)

type t
(** An engine instance. Distinct engines are fully independent. *)

val set_telemetry : t -> Telemetry.t option -> unit
(** Attaches (or detaches) a structured telemetry recorder: the engine
    then emits a {!Telemetry.event} per decision — creations, marks,
    execution begin/end, cache hits, settle pops, edges, unions,
    evictions, budget trips — the observability counterpart of the
    paper's §10 debugging remark. A {!Telemetry.sink} streams them as
    they happen ([alphonsec run --log] prints each to stderr). With
    [None] (the default) every instrumentation site is a single
    predictable branch and allocates nothing. *)

val telemetry : t -> Telemetry.t option
(** The attached recorder, or [None]. *)

val set_metrics : t -> Metrics.t option -> unit
(** Attaches (or detaches) a metrics registry. Every engine series is a
    projection of {!stats} that the registry reads when scraped: settles,
    steps, first executions, re-executions ([executions -
    first_executions]), cache hits, cutoffs, quarantines ([failures -
    poisonings]), poisonings, retries, degradations, rollbacks and
    cancellations. Attaching registers them as {!Metrics.source}s, which
    count from their values now, so the registry counts events after
    attach;
    engines sharing a registry sum. [None] releases them, freezing each
    series at its value; a re-attach replaces them, it never counts
    twice. The one cell is the [settle_seconds] histogram: an attached
    registry costs two clock reads and one observation per
    {!stabilize} session, a detached one a single branch (bench E20
    gates the disabled path at 5%). *)

val metrics : t -> Metrics.t option
(** The attached registry, for layers above the engine ([Durable],
    [Faults], the CLI) to register their own metrics into. *)

type node
(** A dependency-graph node owned by some engine: either an abstract
    storage location or an incremental procedure instance. *)

type strategy =
  | Demand  (** lazily update on calls (the [DEMAND] pragma argument) *)
  | Eager   (** update during propagation (the [EAGER] pragma argument) *)

exception Cycle of string
(** Raised when an incremental procedure instance (transitively) calls
    itself with identical arguments — e.g. a circular spreadsheet formula.
    The payload names the offending instance. Structural: it never
    consumes an instance's retry budget (see {!create}'s [max_retries]).
    The engine remains fully usable after a [Cycle] escape — the call
    stack is unwound and the failed instance's edges are restored. *)

exception Poisoned of string
(** Raised by calls to an instance whose execution failed [max_retries]
    consecutive times: the typed-error form of a permanently failing
    procedure. Propagates through dependents (their reads re-raise it)
    until {!clear_poison}. Structural, like {!Cycle}: observing a
    poisoned dependency does not consume the observer's retry budget. *)

exception Audit_failure of string list
(** Raised by {!audit} when an engine invariant does not hold; the
    payload lists every violated invariant. *)

exception Watchdog of string
(** Raised when the call-stack depth watchdog trips (see {!create}'s
    [max_stack_depth]) — runaway recursion through incremental calls.
    Structural, like {!Cycle}: a nested frame's depth violation unwinds
    through its callers without consuming their retry budgets (retrying
    cannot shrink the recursion, so charging would eventually poison
    instances for a condition only a graph change can fix). *)

exception Cancelled of string
(** Raised when the armed {!Budget} trips: its wall-clock deadline
    passed, its settle-step cap was reached, or {!Budget.cancel} was
    called from another thread. Checked only at settle-step boundaries
    (cooperative cancellation), before the inconsistent-set pop, so the
    abandoned settle leaves every pending node queued: a later
    stabilize resumes it, and inside {!transact} the whole batch rolls
    back to its pre-batch state. Structural, like {!Watchdog}: a trip
    never consumes any instance's retry budget. *)

val create :
  ?partitioning:bool ->
  ?default_strategy:strategy ->
  ?max_retries:int ->
  ?max_stack_depth:int ->
  unit ->
  t
(** [create ()] makes a fresh engine. [partitioning] (default [false])
    enables the dynamic union–find partitioning of §6.3: each call then
    propagates only the inconsistencies of the called node's partition.
    [default_strategy] (default [Demand]) applies to instances created
    without an explicit strategy.

    The drain order (§4.5's "selection of u from the set") is fixed:
    priorities come from node creation (a dependency created during an
    execution drains before its consumer), and an edge recorded out of
    that order into an [Eager] instance is repaired by Pearce–Kelly, so
    eager propagation runs in topological order (§2: "the amount of
    computation is minimized when done in a topological order"): on an
    all-eager graph no instance runs twice in one settle. An
    out-of-order edge into a [Demand] instance is left alone, since its
    pop executes nothing; an eager reader of that instance may then run
    twice. Correctness never depends on the order.

    Fault tolerance: [max_retries] (default 3, must be ≥ 1) is how many
    consecutive times an instance's execution may fail before it is
    poisoned ({!Poisoned}). [max_stack_depth] (unset by default) bounds
    the incremental call stack; exceeding it raises {!Watchdog}.
    {!set_self_audit} turns on an {!audit} after every settle step. *)

val default_strategy : t -> strategy
(** The strategy applied to instances created without an explicit one. *)

val partitioning : t -> bool
(** Whether §6.3 dynamic partitioning is enabled for this engine. *)

val max_retries : t -> int
(** Consecutive execution failures before an instance is poisoned. *)

(** {1 Storage side (used by [Var])} *)

val new_storage : t -> name:string -> node
(** Creates the dependency-graph node for an abstract storage location; in
    the paper this happens on the first [access] inside an Alphonse
    procedure, and {!Var} follows that discipline. *)

val record_read : t -> node -> unit
(** Registers that the currently-executing incremental instance (if any)
    read this node. No-op outside incremental execution or under
    {!unchecked}. *)

val record_write : t -> node -> changed:bool -> unit
(** Registers a write: a read-style dependency edge for the executing
    instance (a maintained procedure must re-execute if storage it wrote is
    later clobbered, §4.3), plus — when [changed] — marking the node
    inconsistent. *)

(** {1 Instance side (used by [Func])} *)

val new_instance :
  t ->
  name:string ->
  strategy:strategy ->
  recompute:(unit -> bool) ->
  unit ->
  node
(** Creates an incremental procedure instance node. [recompute] re-executes
    the user procedure under the engine's call-stack discipline (the engine
    pushes the stack around it and keeps the predecessor edges that the
    execution re-reads in order, dropping the rest), stores the result in
    the caller's typed cache, and returns whether the cached value changed
    — the quiescence test. A fresh instance is inconsistent; the first
    {!on_call} executes it. *)

val on_call : t -> node -> unit
(** The engine part of a [call] to an incremental instance: settles the
    node's partition when appropriate, forces the node if it is
    inconsistent, and records the dependency of the calling instance (if
    any). On return the typed cache behind [recompute] is current.

    Failure semantics: if the forced execution raises, the engine first
    restores itself (stack unwound, the instance's previous edge set put
    back, the instance re-marked inconsistent, the caller's dependency on
    it recorded) and then re-raises — the caller may turn the exception
    into an error value and keep using the engine; the next call retries
    the instance.
    @raise Cycle on re-entrant calls to an instance already executing.
    @raise Poisoned if the instance exhausted its retry budget. *)

val removable : t -> node -> bool
(** Whether an instance node may be discarded by cache replacement: it has
    no live dependents, is not executing, and is not pending propagation.
    Evicting only such nodes keeps replacement sound (a dependent of an
    evicted node could otherwise miss change notifications). *)

val discard : t -> node -> unit
(** Removes an instance node from the graph (cache eviction). The caller
    must have checked {!removable}. Afterwards the engine holds no
    reference to the node, so its [recompute] closure and what that
    captures can be collected. *)

(** {1 Control} *)

val stabilize : t -> unit
(** Runs propagation to quiescence over every partition: processes the
    inconsistent sets as in §4.5. For [Eager] instances this re-executes
    affected procedures now; for [Demand] instances it spreads dirty flags.
    This is the "evaluation routine [to] be called whenever cycles are
    available".

    Settlement is total with respect to instance failures: an execution
    that raises is quarantined (retried by the next stabilize, up to
    [max_retries], then poisoned) and propagation of the remaining work
    continues. Quarantined instances are re-marked at entry. *)

val settle_bounded : t -> max_steps:int -> bool
(** Preemptable evaluation (§4.5): processes at most [max_steps] elements
    of the inconsistent sets, in priority order, and returns whether the
    engine is now quiescent. Intended for spending idle cycles in slices
    ("the evaluation routine should be called whenever cycles are
    available … and can be preempted when necessary").

    Two limits count settle steps, and both count the same ones — the
    pops that {!type:stats}'s [settle_steps] reports, each counted once
    however many limits are running: a {!Budget} step cap per arming,
    raising {!Cancelled}; and [max_steps] here per call, returning
    [false]. *)

(** {1 Deadlines and cooperative cancellation}

    A budget bounds one or more settle sessions by wall clock, by
    settle-step count, or by an external cancel signal. The daemon arms
    one per request batch so a slow tenant cannot wedge the process:
    the trip raises {!Cancelled} at a settle-step boundary and — when
    the batch runs inside {!transact} — the undo log restores the
    pre-batch state, so a cancelled request never leaves a wrong
    answer, only an unserved one. *)

module Budget : sig
  type t

  val create : ?deadline:float -> ?max_steps:int -> unit -> t
  (** [deadline] is absolute (the [Unix.gettimeofday] timeline).
      [max_steps] caps the settle steps charged to this budget across
      every settle it is armed for (must be [>= 1]) — the same steps
      {!settle_bounded} counts. With no arguments the budget only trips
      via {!cancel}. *)

  val cancel : t -> unit
  (** Request cancellation; thread/domain-safe. The owning engine
      raises {!Cancelled} at its next settle-step boundary. *)

  val cancelled : t -> bool
  val steps_used : t -> int
  (** Settle steps charged so far. *)

  val deadline : t -> float option
end

val budget : t -> Budget.t option
(** The currently armed budget, or [None]. *)

val with_budget : t -> Budget.t -> (unit -> 'a) -> 'a
(** [with_budget t b f] runs [f] with [b] armed, restoring the previous
    budget on return or raise. The daemon wraps each request batch:
    [with_budget eng b (fun () -> transact eng batch)]. The budget is
    checked at every settle-step boundary of every settle flavour
    (full, bounded, the partition settle of a call), before the pop —
    so a trip leaves all pending work queued and resumable; each trip
    emits a {!Telemetry.Budget_tripped} event. A budget counts the steps
    of one engine at a time: arming it on another engine stops the
    count on the first. *)

(** {1 Fault tolerance} *)

val transact : t -> (unit -> 'a) -> 'a
(** [transact t f] runs the mutation batch [f] atomically with respect to
    propagation: tracked writes made by [f] are logged, and the closing
    settle runs when [f] returns — the batch then commits. If [f] {e or the batch's settle} raises, the
    batch rolls back: newly-marked nodes are un-marked, the typed cells
    are restored (newest write first), and any instance that executed
    against the batch's intermediate state is re-invalidated together
    with its dependents, so the next settle recomputes from the restored
    inputs. The exception is re-raised after rollback.

    Reads made inside [f] observe the partial batch (demand semantics);
    their cached results are invalidated again on rollback.
    @raise Invalid_argument on nested transactions or when called from
    inside an incremental execution. *)

val in_transaction : t -> bool
(** Whether a {!transact} batch is currently open. *)

val txn_log : t -> (unit -> unit) -> unit
(** Registers an undo action with the open transaction (no-op outside
    one). Typed-cell owners ({!Var}) call this before overwriting their
    contents so {!transact} can roll them back. The engine's own log
    points (settle-pop mark restoration, the demand consistency flip)
    do not pass through here — they are stored as typed node/instance
    indices, not closures, so a settle step inside a transaction stays
    allocation-light. *)

val quarantined : t -> node list
(** Instances whose last execution failed and that await a bounded retry
    at the next {!stabilize}/{!settle_bounded} (demand instances also
    retry on their next call). *)

val poisoned : t -> node -> bool
(** Whether the instance exhausted its retry budget (see {!Poisoned}). *)

val poison_error : t -> node -> exn option
(** The exception that poisoned the instance, or [None]. *)

val failure_count : t -> node -> int
(** Consecutive failed executions of the instance (0 after a success). *)

val clear_poison : t -> node -> unit
(** Resets the instance's failure count {e and} poison and re-marks it
    inconsistent, so the next call or settle retries it. The failure
    count resets to 0 deliberately: clearing poison asserts the
    environment was fixed, so the instance gets a full fresh retry
    budget — it takes [max_retries] {e new} consecutive failures (with
    a quarantine pass through each) to poison it again, not one. *)

val degrade_to_exhaustive : t -> unit
(** Abandons incrementality for the pending work: clears every
    inconsistent set and flags every instance inconsistent, so each next
    demand recomputes from scratch (the exhaustive semantics, guaranteed
    to terminate). {!Durable} recovery calls it when it cannot trust
    its replay. *)

(** {1 Invariant auditor} *)

val audit : t -> unit
(** Checks the coherence of the engine's metadata: graph link symmetry,
    call stack ↔ [on_stack] flags, no reused call-stack frame above the
    stack holding a node, every queued node present in its
    partition's inconsistent set and that partition reachable from the
    dirty list, discarded nodes fully detached, poisoned instances not
    flagged consistent, and the recording/settling flags coherent when
    idle. Cheap enough for per-step use in tests ([self_audit]).
    @raise Audit_failure listing every violated invariant. *)

val audit_errors : t -> string list
(** Non-raising {!audit}: the violated invariants, [[]] when coherent. *)

val set_self_audit : t -> bool -> unit
(** Toggles auditing after every settle step (off in a new engine):
    each step then runs {!audit}, so the first incoherence raises
    {!Audit_failure} from the settle that caused it. *)

val self_audit : t -> bool
(** Whether per-settle-step auditing is currently enabled. *)

(** {1 Fault injection (engine half of {!Faults})} *)

val fault_sites : string list
(** The engine decision points at which an installed fault hook is poked:
    ["exec-begin"], ["mark"], ["edge"], ["settle-pop"], ["clear-preds"],
    ["evict"]. Sites sit before their state mutation, so a hook that
    raises models a fault the engine must recover from. *)

val set_fault_hook : t -> (string -> unit) option -> unit
(** Installs (or clears) the fault hook, called with the site label at
    every decision point. A hook that raises injects a fault there; the
    engine's repair paths run with the hook suppressed. Test-only
    machinery — see {!Faults} for deterministic injectors. *)

val fault_hook : t -> (string -> unit) option
(** The installed fault hook, or [None]. *)

(** {1 Durability hooks (engine half of {!Durable})} *)

type journal = {
  on_write : name:string -> id:int -> unit;
      (** Fires for every {e changed} tracked write, {e before} the
          engine mutation (the inconsistency mark) it announces — the
          write-ahead discipline. If it raises, the mark is still
          performed (masked) so in-memory state stays coherent; the
          journal then under-reports, which recovery treats as a safe
          verification miss. *)
  on_txn : [ `Begin | `Commit | `Abort ] -> unit;
      (** Transaction boundaries. [`Commit] fires only after the batch
          and its settle succeeded and before the caller learns the
          batch committed; if appending the commit marker raises, the
          batch rolls back. [`Abort] (after rollback) is advisory —
          replay drops uncommitted groups regardless. *)
}

val set_journal : t -> journal option -> unit
(** Installs (or clears) the durability journal hooks. One journal per
    engine; {!Durable.attach} manages it. *)

val journal : t -> journal option
(** The installed journal hooks, or [None]. *)

val export : t -> Json.t
(** The engine's {e logical} state as JSON: per-node
    name/kind/dirty/consistency/failure bookkeeping, quarantine and
    poison, the discovered edge list, and the {!stats} counters.
    Instance bodies are closures over typed caches, so cached values
    and [recompute] functions are {e not} serializable — a restore is
    structurally a cold rebuild and values recompute on demand (which
    is conservatively correct). Node names are the stable identities
    {!import} matches on; give every {!Func.create} used with
    durability a [pp_key] so its instances get distinct names. *)

val import : t -> Json.t -> int * string list
(** [import t j] restores exported logical state onto a live engine
    whose domain structure has already been rebuilt (by the domain's
    [Persistable] load). Matching is by stable node name, best-effort:
    unmatched or ambiguous names produce warnings, not errors — a node
    not yet re-demanded simply has nothing to restore onto. Restored
    per match: dirty marks (re-queued), failure counts, poison (as
    [Failure] of the recorded message; the instance stays parked until
    {!clear_poison}) and quarantine membership; the counters resume
    from the snapshot. Edges are deliberately NOT installed:
    dependencies are re-discovered by execution, and splicing them in
    without the cached values they justified would fake a consistency
    the caches cannot back. Returns (matched node count, warnings). *)

val unchecked : t -> (unit -> 'a) -> 'a
(** [unchecked t f] runs [f] with dependency recording suppressed for the
    current execution — the [(*UNCHECKED*)] pragma of §6.4. Reads and calls
    made by [f] register no edges for the current consumer; procedures
    called by [f] still track their own dependencies internally. Writes are
    still propagated (suppressing them would be unsound, not merely
    imprecise). *)

val is_executing : t -> bool
(** Whether an incremental procedure instance is currently on the call
    stack. *)

val recording : t -> bool
(** Whether an access made right now would record a dependency edge: an
    incremental instance is executing and recording is not suppressed by
    {!unchecked}. [Var] uses this to follow Algorithm 3's discipline of
    materializing storage nodes only on tracked accesses. *)

(** {1 The quick regime (the §6.1 ~1x fast path)}

    The engine maintains one boolean invariant, [quick], true exactly
    when no transaction is open, no journal is attached, and no
    incremental instance is executing. In
    that regime a tracked read is semantically just the typed cell
    load (nothing to record), and a tracked write to an
    already-queued, live cell is just the store (the journal append,
    undo log and inconsistency mark would all be no-ops). [Var] tests
    these two predicates to bypass the engine call path entirely,
    which is what holds the E6 tracked-loop overhead to a small
    constant over a plain [ref]. See docs/PERFORMANCE.md. *)

val quick : t -> bool
(** Whether the engine is in the quick regime right now. A single
    field load — cheap enough to test on every tracked access. *)

val quick_write_ok : t -> node -> bool
(** [quick_write_ok t n] is true when a changed write to storage node
    [n] may skip the engine entirely: {!quick} holds and [n] is
    already marked inconsistent (and not discarded), so journaling,
    undo logging and marking would each be no-ops. The caller may
    then just store the new contents. *)

val node_name : node -> string
(** The name the node was created with. *)

val node_id : node -> int
(** The node's live engine-lifetime id (see also {!stable_id}). *)

val stable_id : t -> node -> int
(** The node's {e stable} identity for reports: after an {!import},
    matched nodes adopt the snapshot's node ids, so telemetry,
    profiles, DOT dumps and re-exports keep the identities a
    pre-restart trace used. For nodes never restored (or engines never
    imported into) this is just {!node_id}. *)

val succ_count : node -> int
(** Live dependents of a node — exposed for the E8 dependency-count
    benches. *)

val pred_count : node -> int
(** Live dependencies of a node. *)

(** {1 Statistics (benches E1–E11)} *)

type stats = {
  executions : int;  (** procedure (re)executions, including first runs *)
  first_executions : int;
  cache_hits : int;  (** calls answered from a consistent cached value *)
  settle_steps : int;  (** inconsistent-set pops processed *)
  queue_pushes : int;  (** nodes marked inconsistent *)
  unions : int;  (** partition unions performed *)
  out_of_order_edges : int;
      (** edges whose source was ordered after its destination when added —
          how far the priority order strays from topological *)
  order_fixups : int;
      (** Pearce–Kelly reorderings performed: out-of-order edges into
          [Eager] instances whose repair moved some priority *)
  evictions : int;
  failures : int;  (** executions that raised (excluding Cycle/Poisoned) *)
  retries : int;  (** quarantined instances re-marked for retry *)
  poisonings : int;  (** instances that exhausted their retry budget *)
  rollbacks : int;  (** transactions rolled back *)
  degradations : int;
      (** {!degrade_to_exhaustive} calls (degraded crash recoveries) *)
  audits : int;  (** auditor runs (on demand or per-step) *)
  cutoffs : int;
      (** re-executions that left the value unchanged, so propagation
          stopped there *)
  cancellations : int;
      (** settles aborted by a {!Budget} (deadline, step cap or cancel) *)
  settles : int;  (** {!stabilize} calls that had work to do *)
}

val stats : t -> stats
(** The engine's counters (see {!type:stats}), since creation or the
    last {!reset_stats}, or continued from an {!import}ed snapshot. *)

val reset_stats : t -> unit
(** Zeroes the counters of {!stats} (graph totals are unaffected). The
    counts behind them are never reset: only [stats]' base moves, so an
    attached registry is unaffected, as it is by {!import}. *)

val graph_stats : t -> Depgraph.Graph.stats
(** Node/edge/order counters of the underlying arena graph. *)

val iter_nodes : t -> (node -> unit) -> unit
(** Iterates over all live nodes, for {!Inspect}: newest first in an
    engine that never discarded a node. A {!discard}ed node is not
    visited; the engine keeps no reference to it, so an evicted
    instance's cached value can be collected. *)

val node_kind : node -> [ `Storage | `Instance ]
(** Whether the node is a storage location or an instance. *)

val node_dirty : node -> bool
(** Whether the node is pending propagation (queued, or an instance
    flagged inconsistent). *)

val iter_node_succ : (node -> unit) -> node -> unit
(** Iterates over a node's dependents, for {!Inspect}. *)

val iter_node_pred : (node -> unit) -> node -> unit
(** Iterates over a node's dependencies, for {!Inspect}. *)

val iter_node_writers : (node -> unit) -> node -> unit
(** Tracked writers of a storage node, oldest-recorded first — the
    implicit write-then-read serializations {!Inspect.parallel_profile}
    charges to the critical path. Instances have no writers; discarded writers are skipped. *)
