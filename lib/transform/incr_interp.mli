(** The Alphonse execution of a transformed program (§5, §8): an
    interpreter over the same AST as [Lang.Interp] with the three
    transformation templates realized against the incremental engine —
    tracked reads are [access] (Algorithm 3), tracked writes are [modify]
    (Algorithm 4), and calls resolving to maintained/cached procedures go
    through argument tables ([call], Algorithm 5).

    Storage↔node correspondence uses side tables keyed by global name,
    (object id, field) and (array id, index) — the paper's "at the
    expense of a level of indirection" variant of nodeptr fields (§5).
    Which sites are instrumented at all comes from {!Analysis} (§6.1);
    whether a call is incremental is decided from the dynamically
    dispatched target's pragma, like the paper's [tableptr(p) # NIL]
    test. *)

exception Runtime_error of string * Lang.Ast.pos
(** The same exception as [Lang.Interp.Runtime_error] (an alias): both
    interpreters raise it. *)

type state
(** Mutable execution state: the engine, globals and their nodes, the
    node side tables, the per-procedure argument tables, output. *)

type frame = (string, Lang.Value.value ref) Hashtbl.t

type outcome = {
  output : string;
  error : string option;
  steps : int;
  engine_stats : Alphonse.Engine.stats;
  graph_stats : Depgraph.Graph.stats;
}

val run :
  ?fuel:int ->
  ?default_strategy:Alphonse.Engine.strategy ->
  ?partitioning:bool ->
  ?telemetry:Alphonse.Telemetry.t ->
  ?metrics:Alphonse.Metrics.t ->
  ?fault_seed:int ->
  ?audit:bool ->
  Lang.Typecheck.env ->
  outcome
(** Run the module body under Alphonse execution (the analysis is run
    first). Theorem 5.1: [output] equals the conventional
    [Lang.Interp.run] output. [telemetry] attaches a structured recorder
    to the engine for the whole run (Chrome-trace export, profiles,
    provenance — see {!Alphonse.Telemetry}). [metrics] attaches a
    metrics registry ({!Alphonse.Metrics}) to the engine — and, when a
    recorder is also given, to it (ring-overflow counting) — before any
    instrumented work runs.

    [fault_seed] installs a seeded fault injector
    ({!Alphonse.Faults.install_seeded}) for the whole run: engine
    decision points occasionally raise, exercising the recovery paths;
    incremental calls are retried once after an injected fault. [audit]
    enables the per-step invariant auditor
    ({!Alphonse.Engine.set_self_audit}); a violation is reported through
    [error]. *)

(** {1 Internal entry points (the CLI's [graph] command, benches)} *)

val init_state :
  ?fuel:int ->
  ?default_strategy:Alphonse.Engine.strategy ->
  ?partitioning:bool ->
  ?telemetry:Alphonse.Telemetry.t ->
  ?metrics:Alphonse.Metrics.t ->
  ?fault_seed:int ->
  ?audit:bool ->
  Lang.Typecheck.env ->
  Analysis.result ->
  state

val exec_stmts : state -> frame -> Lang.Ast.stmt list -> unit

val state_engine : state -> Alphonse.Engine.t
(** The engine behind a state, for inspection (DOT dumps, stats). *)
