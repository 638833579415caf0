module G = Depgraph.Graph
module Heap = Depgraph.Flat_heap
module Uf = Depgraph.Union_find

type strategy = Demand | Eager

exception Cycle of string
exception Poisoned of string
exception Audit_failure of string list
exception Watchdog of string
exception Cancelled of string

(* The settle-step clock: advanced by exactly one site ([step]) and
   never reset. Both step limits are a comparison against a mark taken
   on this clock when the limited span starts: a [Budget] step cap (per
   arming) and [settle_bounded]'s [max_steps] (per call). It is also the
   [settle_steps] counter. A record of its own so an armed budget can
   read it without the engine. *)
type clock = { mutable ticks : int }

(* A cooperative execution budget (the daemon's deadline machinery).
   Checked only at settle-step granularity — right where the fault
   injector's "settle-pop" site sits, before the pop — so tripping it
   leaves the heap intact and every node still queued: the settle is
   abandoned, not corrupted. Inside [transact] the raise rides the undo
   log and the whole batch rolls back. [cancel] is an atomic flag so
   another thread/domain can preempt a running settle. *)
module Budget = struct
  type t = {
    deadline : float option; (* absolute, [Unix.gettimeofday] timeline *)
    step_cap : int option;
    mutable charged : int; (* steps of the arming periods already ended *)
    mutable armed_on : clock option; (* the engine clock while armed *)
    mutable mark : int; (* [armed_on]'s ticks when armed *)
    cancel : bool Atomic.t;
  }

  let create ?deadline ?max_steps () =
    (match max_steps with
    | Some n when n < 1 ->
      invalid_arg "Engine.Budget.create: max_steps must be >= 1"
    | _ -> ());
    { deadline; step_cap = max_steps; charged = 0; armed_on = None; mark = 0;
      cancel = Atomic.make false }

  let cancel b = Atomic.set b.cancel true
  let cancelled b = Atomic.get b.cancel

  let steps_used b =
    match b.armed_on with
    | None -> b.charged
    | Some c -> b.charged + (c.ticks - b.mark)

  let disarm b =
    b.charged <- steps_used b;
    b.armed_on <- None

  let arm b c =
    disarm b;
    b.armed_on <- Some c;
    b.mark <- c.ticks

  let deadline b = b.deadline
end

(* Node payload: the engine-side bookkeeping of §4.1. [queued] is
   membership in the inconsistent set; [consistent] is the paper's
   consistent(u) flag used by demand instances. *)
type payload = {
  name : string;
  mutable kind : kind;
  mutable queued : bool;
  mutable on_stack : bool;
  mutable discarded : bool;
  mutable part_elt : partition Uf.elt option; (* Some iff partitioning on *)
  mutable writers : nd list;
      (* instances that recorded a tracked *write* to this storage cell
         (§4.2 write dependencies). [Inspect.parallel_profile] uses
         this to place a maintained cell's readers strictly below its
         writers, so a write-then-read chain through storage counts the
         writer's level — empty for instances. *)
}

and kind =
  | Storage
  | Instance of instance

and instance = {
  strategy : strategy;
  recompute : unit -> bool;
  mutable consistent : bool;
  mutable ever_ran : bool;
  (* quarantine bookkeeping: consecutive failed executions, and — once
     the retry budget is exhausted — the poisoning exception *)
  mutable failures : int;
  mutable poison : exn option;
}

and nd = payload G.node

(* A dependency-graph partition (§6.3) and its own inconsistent set.
   The dirty-list rule: a partition is on [t.dirty_parts] exactly when
   [on_dirty_list] is set, at most once, and the drain that empties its
   heap takes it off. An unlisted partition's heap is therefore empty.
   The heap stores each node as its [G.arena_id], with the node's key
   as of its insert; [keyed] is the graph's order epoch when every
   stored key was last current, and the drain re-keys the heap before
   trusting it under a newer epoch. *)
and partition = {
  queue : Heap.t;
  mutable keyed : int;
  mutable on_dirty_list : bool;
}

type node = nd

(* One running execution. [reads] is its re-read cursor: while every
   read has re-read a recorded pred in order, the preds [0, reads) were
   re-read and the rest not yet; from its first read that needed a new
   edge — the cut, at pred index k — it is [-1 - k], and [cut_srcs]
   holds the sources the cut detached, for a failed run to restore.
   Frames are reused: the engine keeps one per call-stack depth ever
   reached, and a pop points [fnode] back at a placeholder, so a frame
   above the stack keeps no node alive. *)
type frame = {
  mutable fnode : nd;
  mutable stamp : int;
  mutable reads : int;
  mutable cut_srcs : nd list;
}

(* One undo-log entry of an open transaction. The engine's own log
   points — the settle pop's mark restoration and the demand flip —
   are recorded as typed constructors carrying the node or instance
   index, not closures: a settle step inside a transaction allocates
   two words instead of a closure per pop, and a Budget kill point
   rolls back by dispatching on tags. [U_fun] remains for the typed
   cells of the domain layer ([Var] restores contents it alone can
   type). *)
type undo =
  | U_remark of nd (* rollback: re-mark the node inconsistent *)
  | U_consistent of instance (* rollback: restore consistent = true *)
  | U_fun of (unit -> unit)

(* Undo log of an open transaction: [undos] restore the typed cells
   (newest first), [tmarked] are the nodes newly marked inconsistent
   during the batch, [ran] the instances (re-)executed during it. *)
type txn = {
  mutable undos : undo list;
  mutable tmarked : nd list;
  mutable ran : nd list;
}

type stats = {
  executions : int;
  first_executions : int;
  cache_hits : int;
  settle_steps : int;
  queue_pushes : int;
  unions : int;
  out_of_order_edges : int;
  order_fixups : int;
  evictions : int;
  failures : int;
  retries : int;
  poisonings : int;
  rollbacks : int;
  degradations : int;
  audits : int;
  cutoffs : int;
  cancellations : int;
  settles : int;
}

(* Durability journal hooks (the write-ahead layer, [Durable], installs
   one): [on_write] fires for every *changed* tracked write, before the
   engine mutation (the inconsistency mark) it announces; [on_txn]
   fires at transaction boundaries — [`Commit] only after the batch and
   its settle succeeded, [`Abort] after rollback completed. *)
type journal = {
  on_write : name:string -> id:int -> unit;
  on_txn : [ `Begin | `Commit | `Abort ] -> unit;
}

type t = {
  graph : payload G.t;
  global_part : partition; (* used when partitioning is off *)
  use_partitions : bool;
  strategy0 : strategy;
  max_retries : int;
  max_stack_depth : int option;
  (* the call-stack discipline of Algorithm 5: [frames.(0 ..
     stack_depth - 1)] are the running executions, innermost last *)
  mutable frames : frame array;
  mutable stack_depth : int;
  placeholder : nd; (* a node of a graph of its own, never run *)
  heap_key : int -> int; (* every partition heap's key *)
  mutable mask : bool; (* record dependency edges? false under unchecked *)
  mutable fmask : bool; (* true = fault injection suppressed (repair paths) *)
  mutable exec_serial : int; (* the last execution's stamp *)
  mutable settling : bool;
  clock : clock; (* settle steps, never reset *)
  mutable budget : Budget.t option; (* cooperative deadline/step budget *)
  mutable dirty_parts : partition list;
  mutable skipped : nd list;
      (* popped by the running drain while on the call stack; re-queued
         when the drain ends *)
  mutable telemetry : Telemetry.t option;
  (* the attached registry and its [settle_seconds] cell; the counters
     below reach it as scrape-time sources *)
  mutable metrics : (Metrics.t * Metrics.histogram) option;
  mutable sources : Metrics.source list;
  (* fault tolerance *)
  mutable quarantined : nd list;
  mutable txn : txn option;
  mutable fault_hook : (string -> unit) option;
  mutable self_audit : bool;
  mutable journal : journal option;
  (* Maintained invariant:
       quick = (txn = None) && (journal = None) && (stack_depth = 0)
     — the regime in which a tracked read is exactly the typed cell
     load and a tracked write to an already-queued cell is exactly the
     store (no recording, no journaling, no undo logging, and a mark
     would be a guarded no-op). [Var] reads this through one accessor
     to skip the whole engine call path; every site that changes one
     of the three inputs refreshes it. *)
  mutable quick : bool;
  (* live node id -> snapshot node id, installed by [import] so
     telemetry, profiles and DOT reports keep the snapshot's stable
     identities across a restore *)
  mutable stable_ids : (int, int) Hashtbl.t option;
  (* counters, never reset: see [counters] *)
  mutable c_executions : int;
  mutable c_first : int;
  mutable c_hits : int;
  mutable c_pushes : int;
  mutable c_unions : int;
  mutable c_ooo : int;
  mutable c_fixups : int;
  mutable c_evictions : int;
  mutable c_failures : int;
  mutable c_retries : int;
  mutable c_poisonings : int;
  mutable c_rollbacks : int;
  mutable c_degradations : int;
  mutable c_audits : int;
  mutable c_cutoffs : int;
  mutable c_cancellations : int;
  mutable c_settles : int;
  base : int array; (* [stats] reports each counter minus its base *)
}

(* Every counter, named once, in [stats] field order: its [stats] field
   and snapshot key, its reading, and the registry series that reports
   it, less the counter named by [less] when there is one — so every
   engine series is a projection of [stats]. [export], [import],
   [reset_stats] and [set_metrics] all walk this table. Updates to a
   counter and its [less] sit next to each other with no allocation
   between them, so a scrape on another thread reads a consistent
   pair. *)
type counter = {
  key : string;
  read : t -> int;
  series : (string * (string * string) list * string) option;
      (* name, labels, help *)
  less : string option;
}

let counters =
  let c ?series ?less key read = { key; read; series; less } in
  [|
    c "executions" (fun t -> t.c_executions) ~less:"first_executions"
      ~series:("executions_total", [ ("kind", "re") ], "instance executions");
    c "first_executions" (fun t -> t.c_first)
      ~series:
        ("executions_total", [ ("kind", "first") ], "instance executions");
    c "cache_hits" (fun t -> t.c_hits)
      ~series:("cache_hits_total", [], "calls answered from consistent cache");
    c "settle_steps" (fun t -> t.clock.ticks)
      ~series:("settle_steps_total", [], "inconsistent-set pops");
    c "queue_pushes" (fun t -> t.c_pushes);
    c "unions" (fun t -> t.c_unions);
    c "out_of_order_edges" (fun t -> t.c_ooo);
    c "order_fixups" (fun t -> t.c_fixups);
    c "evictions" (fun t -> t.c_evictions);
    c "failures" (fun t -> t.c_failures) ~less:"poisonings"
      ~series:("quarantines_total", [], "executions that raised");
    c "retries" (fun t -> t.c_retries)
      ~series:("retries_total", [], "quarantined instances re-marked");
    c "poisonings" (fun t -> t.c_poisonings)
      ~series:("poisonings_total", [], "retry budgets exhausted");
    c "rollbacks" (fun t -> t.c_rollbacks)
      ~series:("rollbacks_total", [], "transactions rolled back");
    c "degradations" (fun t -> t.c_degradations)
      ~series:
        ( "degradations_total",
          [],
          "degradations to exhaustive recomputation" );
    c "audits" (fun t -> t.c_audits);
    c "cutoffs" (fun t -> t.c_cutoffs)
      ~series:
        ("cutoffs_total", [], "re-executions that left the value unchanged");
    c "cancellations" (fun t -> t.c_cancellations)
      ~series:
        ( "cancellations_total",
          [],
          "settles aborted by a budget (deadline, step cap or cancel)" );
    c "settles" (fun t -> t.c_settles)
      ~series:("settles_total", [ ("mode", "serial") ], "settle sessions");
  |]

let create ?(partitioning = false) ?(default_strategy = Demand)
    ?(max_retries = 3) ?max_stack_depth () =
  if max_retries < 1 then invalid_arg "Engine.create: max_retries must be >= 1";
  let graph = G.create () in
  (* a retired id (its node removed) keys below every order tag, so a
     rekey floats it to the top, where the drain drops it *)
  let heap_key id =
    match G.of_arena_id graph id with Some n -> G.order_key n | None -> -1
  in
  let placeholder =
    G.add_node (G.create ()) ~order_after:None
      { name = ""; kind = Storage; queued = false; on_stack = false;
        discarded = false; part_elt = None; writers = [] }
  in
  {
    graph;
    global_part =
      { queue = Heap.create ~key:heap_key; keyed = G.order_epoch graph;
        on_dirty_list = false };
    use_partitions = partitioning;
    strategy0 = default_strategy;
    max_retries;
    max_stack_depth;
    frames = [||];
    stack_depth = 0;
    placeholder;
    heap_key;
    mask = true;
    fmask = false;
    exec_serial = 0;
    settling = false;
    clock = { ticks = 0 };
    budget = None;
    dirty_parts = [];
    skipped = [];
    telemetry = None;
    metrics = None;
    sources = [];
    quarantined = [];
    txn = None;
    fault_hook = None;
    journal = None;
    quick = true;
    stable_ids = None;
    self_audit = false;
    c_executions = 0;
    c_first = 0;
    c_hits = 0;
    c_pushes = 0;
    c_unions = 0;
    c_ooo = 0;
    c_fixups = 0;
    c_evictions = 0;
    c_failures = 0;
    c_retries = 0;
    c_poisonings = 0;
    c_rollbacks = 0;
    c_degradations = 0;
    c_audits = 0;
    c_cutoffs = 0;
    c_cancellations = 0;
    c_settles = 0;
    base = Array.make (Array.length counters) 0;
  }

(* Recompute the [quick] invariant from its three inputs; called by
   every site that changes one of them (transaction open/close,
   journal attach, frame push/pop). *)
let refresh_quick t =
  t.quick <-
    (match t.txn with
    | Some _ -> false
    | None -> (
      match t.journal with Some _ -> false | None -> t.stack_depth = 0))

let[@inline] quick t = t.quick

let quick_write_ok t node =
  t.quick
  &&
  let p = G.payload node in
  p.queued && not p.discarded

(* The stable identity of a node for reports: its id in the snapshot
   this engine was restored from, or its live id when it was never
   imported. Telemetry emission, [export] and the DOT/profile readers
   all go through this, so identities agree across a restore. *)
let eid t node =
  match t.stable_ids with
  | None -> G.id node
  | Some tbl -> (
    match Hashtbl.find_opt tbl (G.id node) with
    | Some sid -> sid
    | None -> G.id node)

let stable_id = eid

(* Telemetry: every instrumentation site is one [match] on this field —
   the branch-predictable no-op path when no recorder is attached. The
   event is built lazily so the disabled path allocates nothing. *)
let[@inline] emit t ev =
  match t.telemetry with None -> () | Some tm -> Telemetry.emit tm (ev ())

(* Hot sites ask before building the event callback: without flambda
   the [fun () -> ...] argument to [emit] is a real allocation even on
   the disabled path. *)
let[@inline] tele_on t =
  match t.telemetry with None -> false | Some _ -> true

let set_telemetry t tm = t.telemetry <- tm
let telemetry t = t.telemetry

(* Attaching registers one source per series; a counter source counts
   from its reading at registration, so the registry counts events
   after attach. Detaching releases them; a re-attach replaces them. *)
let set_metrics t reg =
  List.iter Metrics.release t.sources;
  let source reg c (name, labels, help) =
    let less =
      Array.to_list counters |> List.find_opt (fun l -> Some l.key = c.less)
    in
    Metrics.source reg ~help ~labels `Counter name (fun () ->
        c.read t - match less with Some l -> l.read t | None -> 0)
  in
  t.sources <-
    (match reg with
    | None -> []
    | Some reg ->
      List.filter_map
        (fun c -> Option.map (source reg c) c.series)
        (Array.to_list counters));
  t.metrics <-
    Option.map
      (fun reg ->
        let help = "settle session duration" in
        (reg, Metrics.histogram reg "settle_seconds" ~help))
      reg

let metrics t = Option.map fst t.metrics

(* Budget enforcement. [budget_check] runs at the head of every settle
   step, *before* the inconsistent-set pop: a raise here leaves the
   pending node queued and the heap untouched, so the settle can be
   resumed (next stabilize) or rolled back (enclosing [transact])
   without losing propagation. Cheap when unarmed: one [match]. The
   deadline comparison is last — [Unix.gettimeofday] is the only
   syscall on this path. *)
let[@inline] budget_check t =
  match t.budget with
  | None -> ()
  | Some b ->
    let trip reason =
      t.c_cancellations <- t.c_cancellations + 1;
      emit t (fun () -> Telemetry.Budget_tripped { reason });
      raise (Cancelled reason)
    in
    if Atomic.get b.Budget.cancel then trip "cancelled";
    (match b.Budget.step_cap with
    | Some cap when Budget.steps_used b >= cap ->
      trip (Printf.sprintf "settle-step budget %d exhausted" cap)
    | _ -> ());
    (match b.Budget.deadline with
    | Some d when Unix.gettimeofday () > d -> trip "deadline exceeded"
    | _ -> ())

(* Arming marks the engine clock; disarming folds the steps since into
   the budget, so it is charged exactly the steps taken while armed. *)
let arm_budget t b =
  Option.iter Budget.disarm t.budget;
  Option.iter (fun b -> Budget.arm b t.clock) b;
  t.budget <- b

let budget t = t.budget

let with_budget t b f =
  let saved = t.budget in
  arm_budget t (Some b);
  Fun.protect ~finally:(fun () -> arm_budget t saved) f

let default_strategy t = t.strategy0
let partitioning t = t.use_partitions
let max_retries t = t.max_retries

(* ------------------------------------------------------------------ *)
(* Fault injection hooks                                               *)
(* ------------------------------------------------------------------ *)

(* Every engine decision point calls [poke] with a site label; an
   installed hook may raise there, which models a fault (allocation
   failure, cancellation, a bug in engine-adjacent code). Sites are
   placed only where an exception leaves the engine coherent — before
   the site's state mutation, never between a committed cache update
   and the completion of its successor marking (a fault there would
   lose invalidations undetectably: the retry would see changed=false). *)
let fault_sites =
  [ "exec-begin"; "mark"; "edge"; "settle-pop"; "clear-preds"; "evict" ]

let[@inline] poke t site =
  match t.fault_hook with
  | None -> ()
  | Some f -> (
    if not t.fmask then
      try f site
      with e ->
        emit t (fun () -> Telemetry.Fault_injected { site });
        raise e)

let set_fault_hook t hook = t.fault_hook <- hook
let fault_hook t = t.fault_hook

(* Run [f] with fault injection suppressed — the repair paths use this so
   that redoing an interrupted idempotent step cannot itself be faulted
   into an incoherent state. *)
let masked t f =
  let saved = t.fmask in
  t.fmask <- true;
  let finally () = t.fmask <- saved in
  Fun.protect ~finally f

let set_self_audit t b = t.self_audit <- b
let self_audit t = t.self_audit

let set_journal t j =
  t.journal <- j;
  refresh_quick t

let journal t = t.journal

let jwrite t node =
  match t.journal with
  | None -> ()
  | Some j -> j.on_write ~name:(G.payload node).name ~id:(G.id node)

let jtxn t ev = match t.journal with None -> () | Some j -> j.on_txn ev

let[@inline] in_transaction t =
  match t.txn with None -> false | Some _ -> true

let push_undo tx u = tx.undos <- u :: tx.undos

let txn_log t undo =
  match t.txn with None -> () | Some tx -> push_undo tx (U_fun undo)

(* Typed engine log points: the constructor is only allocated once a
   transaction is known to be open. *)
let[@inline] log_remark t node =
  match t.txn with None -> () | Some tx -> push_undo tx (U_remark node)

let[@inline] log_consistent t inst =
  match t.txn with None -> () | Some tx -> push_undo tx (U_consistent inst)

let partition_of t node =
  if not t.use_partitions then t.global_part
  else
    match (G.payload node).part_elt with
    | Some e -> Uf.payload e
    | None -> assert false

(* The dirty-list rule (see [partition]) is kept by these two alone. *)
let list_part t part =
  if not part.on_dirty_list then begin
    part.on_dirty_list <- true;
    t.dirty_parts <- part :: t.dirty_parts
  end

let rec list_remove part = function
  | [] -> []
  | p :: rest -> if p == part then rest else p :: list_remove part rest

let unlist_part t part =
  if part.on_dirty_list then begin
    part.on_dirty_list <- false;
    t.dirty_parts <- list_remove part t.dirty_parts
  end

let enqueue t node =
  let part = partition_of t node in
  Heap.insert part.queue (G.arena_id node);
  list_part t part

(* [cause] is provenance for telemetry only: the node whose processing
   propagated this mark when [caused], none for an external mutator
   write. A plain node and a flag rather than an option, so forwarding
   allocates no cause cell. *)
let mark_caused t ~caused cause node =
  let p = G.payload node in
  if (not p.queued) && not p.discarded then begin
    (* before any mutation: a fault here is a clean no-op, and callers
       that must not lose the mark redo it under [masked] *)
    poke t "mark";
    if tele_on t then
      emit t (fun () ->
          Telemetry.Marked
            {
              id = eid t node;
              name = p.name;
              cause = (if caused then Some (eid t cause) else None);
            });
    p.queued <- true;
    t.c_pushes <- t.c_pushes + 1;
    (match t.txn with Some tx -> tx.tmarked <- node :: tx.tmarked | None -> ());
    enqueue t node
  end

let mark_inconsistent t node = mark_caused t ~caused:false node node

(* The running execution of [dst], an instance on the call stack (so
   the search cannot run off the bottom). *)
let frame_of t dst =
  let rec find d =
    let f = t.frames.(d) in
    if f.fnode == dst then f else find (d - 1)
  in
  find (t.stack_depth - 1)

(* Mark the successors of [node] from the [i]th on, [node] the cause:
   a top-level loop, so forwarding allocates no closure. A consumer on
   the call stack is marked only through an edge its running execution
   has re-read (or recorded): an edge past its cursor stands for a read
   that has not happened yet, and that read will see the new value. *)
let rec forward t node i =
  if i < G.succ_count node then begin
    let dst = G.succ_at node i in
    if
      (not (G.payload dst).on_stack)
      ||
      let reads = (frame_of t dst).reads in
      reads < 0 || G.succ_pred_index node i < reads
    then mark_caused t ~caused:true node dst;
    forward t node (i + 1)
  end

(* Mark every successor of [node]. Marking is idempotent (guarded by
   [queued]), so if a fault interrupts the sweep we redo the whole sweep
   with injection suppressed before re-raising — propagation is never
   left partial. *)
let mark_succs t node =
  match forward t node 0 with
  | () -> ()
  | exception e ->
    masked t (fun () -> forward t node 0);
    raise e

(* Node creation: priorities approximate topological order — a node created
   while a consumer executes is one of its dependencies, so it is ordered
   just before the consumer; top-level creations append at the end. *)
let new_node t payload =
  let node =
    if t.stack_depth > 0 then
      G.add_node_before t.graph
        ~order_before:t.frames.(t.stack_depth - 1).fnode payload
    else G.add_node t.graph ~order_after:None payload
  in
  if t.use_partitions then begin
    let part =
      { queue = Heap.create ~key:t.heap_key;
        keyed = G.order_epoch t.graph; on_dirty_list = false }
    in
    (G.payload node).part_elt <- Some (Uf.make part)
  end;
  node

let new_storage t ~name =
  let node =
    new_node t
      { name; kind = Storage; queued = false; on_stack = false;
        discarded = false; part_elt = None; writers = [] }
  in
  emit t (fun () -> Telemetry.Storage_created { id = eid t node; name });
  node

let new_instance t ~name ~strategy ~recompute () =
  let node =
    new_node t
    {
      name;
      kind =
        Instance
          { strategy; recompute; consistent = false; ever_ran = false;
            failures = 0; poison = None };
      queued = false;
      on_stack = false;
      discarded = false;
      part_elt = None;
      writers = [];
    }
  in
  emit t (fun () -> Telemetry.Instance_created { id = eid t node; name });
  node

(* Merge the partitions of the two endpoints of a new edge (§6.3 dynamic
   refinement). Their inconsistent sets are melded in O(1). *)
let link_partitions t src dst =
  if t.use_partitions then
    match ((G.payload src).part_elt, (G.payload dst).part_elt) with
    | Some a, Some b ->
      if not (Uf.same a b) then begin
        t.c_unions <- t.c_unions + 1;
        emit t (fun () -> Telemetry.Union { a = eid t src; b = eid t dst });
        let merge keep absorbed =
          Heap.meld keep.queue absorbed.queue;
          if absorbed.on_dirty_list then begin
            unlist_part t absorbed;
            list_part t keep
          end;
          keep
        in
        ignore (Uf.union ~merge a b)
      end
    | _ -> assert false

(* Remember that [consumer] writes storage cell [src] (§4.2): the E15
   profile places [src]'s other readers strictly below [consumer]. *)
let note_writer src consumer =
  let p = G.payload src in
  match p.kind with
  | Storage -> (
    (* most writes are the same consumer re-writing the cell it wrote
       last time — catch that with a head probe before the O(n) scan *)
    match p.writers with
    | w :: _ when w == consumer -> ()
    | ws ->
      if not (List.memq consumer ws) then p.writers <- consumer :: ws)
  | Instance _ -> ()

(* [consumer] no longer reads or writes [src]: take it off [src]'s
   writers, so nothing keeps an evicted writer alive. *)
let unlist_writer src consumer =
  let p = G.payload src in
  if List.memq consumer p.writers then
    p.writers <- List.filter (fun w -> w != consumer) p.writers

(* Drop [node]'s preds from the [k]th on, unlisting it as their writer;
   a cut ([save]) keeps the detached sources in [f] for a failed run to
   restore. A failed run does not re-list the writers: its retry does. *)
let drop_preds t node f k ~save =
  let n = G.pred_count node in
  if k < n then begin
    for i = n - 1 downto k do
      let src = G.pred_at node i in
      unlist_writer src node;
      if save then f.cut_srcs <- src :: f.cut_srcs
    done;
    if tele_on t then
      emit t (fun () ->
          let name = (G.payload node).name in
          Telemetry.Preds_cut { id = eid t node; name; kept = k });
    G.truncate_preds t.graph node k
  end

(* A read that needs a new edge. The first one of an execution cuts the
   preds past the cursor (they were not re-read in order); from then on
   every read appends. *)
let add_dependency t src f =
  let consumer = f.fnode in
  if f.reads >= 0 then begin
    let k = f.reads in
    f.reads <- -1 - k;
    drop_preds t consumer f k ~save:true
  end;
  if G.order_lt consumer src then begin
    t.c_ooo <- t.c_ooo + 1;
    (* repair the drain order (Pearce–Kelly) only where a pop executes:
       a demand pop just flips a flag and forwards, so an out-of-order
       edge into a demand instance is left alone *)
    match (G.payload consumer).kind with
    | Instance { strategy = Eager; _ } -> (
      match G.restore_topological_order t.graph ~src ~dst:consumer with
      | `Reordered _ -> t.c_fixups <- t.c_fixups + 1
      | `Already_ordered | `Cycle -> ())
    | Instance { strategy = Demand; _ } | Storage -> ()
  end;
  G.add_edge ~stamp:f.stamp ~src ~dst:consumer;
  if tele_on t then
    emit t (fun () ->
        Telemetry.Edge_added { src = eid t src; dst = eid t consumer });
  link_partitions t src consumer

(* Record a dependency edge src → consumer for the executing instance, if
   any and if recording is not suppressed by [unchecked]. A read that
   repeats the last execution's read at the cursor writes no edge. *)
let record_dependency ?(is_write = false) t src =
  if t.stack_depth > 0 then begin
    let f = Array.unsafe_get t.frames (t.stack_depth - 1) in
    if t.mask then begin
      (* before any mutation: a fault here aborts the consumer's
         execution, whose failure handler restores its edge set *)
      poke t "edge";
      (match G.reread ~stamp:f.stamp ~src ~dst:f.fnode f.reads with
      | `Repeat -> ()
      | `Reread -> f.reads <- f.reads + 1
      | `New -> add_dependency t src f);
      if is_write then note_writer src f.fnode
    end
  end

let record_read t node = record_dependency t node

let record_write t node ~changed =
  match record_dependency ~is_write:true t node with
  | () -> (
    if changed then begin
      (* Write-ahead: the journal entry for this write is appended
         before the engine mutation (the inconsistency mark). If
         journaling itself raises — a disk fault, a simulated kill —
         the mark is still performed under [masked] so in-memory state
         stays coherent before the failure surfaces; the journal then
         merely under-reports, which recovery's verified replay treats
         as a (safe) verification miss, never a wrong value. *)
      (match jwrite t node with
      | () -> ()
      | exception e ->
        masked t (fun () -> mark_inconsistent t node);
        raise e);
      try mark_inconsistent t node
      with e ->
        (* the typed cell already holds the new value: losing the mark
           would leave dependents permanently stale, so redo it with
           injection suppressed before surfacing the fault *)
        masked t (fun () -> mark_inconsistent t node);
        raise e
    end)
  | exception e ->
    if changed then begin
      (try jwrite t node with _ -> ());
      masked t (fun () -> mark_inconsistent t node)
    end;
    raise e

let dirty p =
  match p.kind with
  | Storage -> p.queued
  | Instance inst -> p.queued || not inst.consistent

(* ------------------------------------------------------------------ *)
(* Quarantine                                                          *)
(* ------------------------------------------------------------------ *)

(* Failure accounting for an instance whose execution raised. Structural
   exceptions — [Cycle], a dependency's [Poisoned], [Audit_failure], a
   [Watchdog] depth violation — are reported to the caller but never
   consume the retry budget: they are deterministic properties of the
   graph (or its configured limits), not transient faults. In particular
   a nested frame's [Watchdog] unwinding through its callers must not
   charge them — retrying can never shrink the recursion. *)
let record_failure t node p (inst : instance) e =
  match e with
  | Cycle _ | Poisoned _ | Audit_failure _ | Watchdog _ | Cancelled _ -> ()
  | _ ->
    t.c_failures <- t.c_failures + 1;
    inst.failures <- inst.failures + 1;
    if inst.failures >= t.max_retries then begin
      t.c_poisonings <- t.c_poisonings + 1;
      inst.poison <- Some e;
      t.quarantined <- List.filter (fun n -> not (n == node)) t.quarantined;
      emit t (fun () ->
          Telemetry.Instance_poisoned
            { id = eid t node; name = p.name; error = Printexc.to_string e })
    end
    else begin
      if not (List.memq node t.quarantined) then
        t.quarantined <- node :: t.quarantined;
      emit t (fun () ->
          Telemetry.Quarantined
            {
              id = eid t node;
              name = p.name;
              attempt = inst.failures;
              error = Printexc.to_string e;
            })
    end

(* Retry-on-next-settle: re-mark every quarantined (non-poisoned)
   instance so the coming propagation re-executes it. Bounded: each
   failed retry increments [failures] until the instance is poisoned and
   leaves the quarantine list. *)
let requeue_quarantined t =
  match t.quarantined with
  | [] -> ()
  | q ->
    t.quarantined <- [];
    List.iter
      (fun node ->
        let p = G.payload node in
        match p.kind with
        | Instance inst when inst.poison = None && not p.discarded ->
          t.c_retries <- t.c_retries + 1;
          emit t (fun () ->
              Telemetry.Retried
                { id = eid t node; name = p.name; attempt = inst.failures });
          masked t (fun () -> mark_inconsistent t node)
        | _ -> ())
      q

let quarantined t = List.filter (fun n -> not (G.payload n).discarded) t.quarantined

let poison_error _t node =
  match (G.payload node).kind with
  | Instance inst -> inst.poison
  | Storage -> None

let poisoned t node = poison_error t node <> None

let failure_count _t node =
  match (G.payload node).kind with
  | Instance inst -> inst.failures
  | Storage -> 0

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let next_stamp t =
  t.exec_serial <- t.exec_serial + 1;
  t.exec_serial

(* A failed run's edges: drop what it appended after its cut and
   reinstate the preds the cut detached (sources evicted meanwhile are
   skipped), under a fresh stamp for dedup. Without a cut the edge set
   is the last successful execution's, untouched. *)
let restore_preds t node f =
  if f.reads < 0 then begin
    let cut = -1 - f.reads in
    for i = cut to G.pred_count node - 1 do
      unlist_writer (G.pred_at node i) node
    done;
    G.truncate_preds t.graph node cut;
    let st = next_stamp t in
    List.iter
      (fun src ->
        if not (G.payload src).discarded then G.add_edge ~stamp:st ~src ~dst:node)
      f.cut_srcs
  end

(* Push a frame for an execution of [node], reusing the one last used
   at this depth. *)
let push_frame t node =
  let d = t.stack_depth in
  if d = Array.length t.frames then
    t.frames <-
      Array.init (max 8 (2 * d)) (fun i ->
          if i < d then t.frames.(i)
          else { fnode = t.placeholder; stamp = 0; reads = 0; cut_srcs = [] });
  let f = Array.unsafe_get t.frames d in
  f.fnode <- node;
  f.stamp <- next_stamp t;
  f.reads <- 0;
  t.stack_depth <- d + 1;
  t.quick <- false;
  f

(* Pop the frame pushed by [run_instance] — on success and on unwind. *)
let pop_frame t f p saved_mask =
  t.mask <- saved_mask;
  p.on_stack <- false;
  f.fnode <- t.placeholder;
  (match f.cut_srcs with [] -> () | _ :: _ -> f.cut_srcs <- []);
  t.stack_depth <- t.stack_depth - 1;
  refresh_quick t

(* Re-execute an incremental procedure instance under the call-stack
   discipline of Algorithm 5: push a frame with the cursor at the
   first recorded pred, run, settle the edge set, pop. Returns the
   quiescence test: did the cached value change?

   Exception safety: any raise out of the body (user exception, [Cycle],
   an injected fault) pops the frame, restores the edge set of the last
   successful run (see [restore_preds]), re-marks the instance
   inconsistent and records the failure — the engine stays fully usable
   and a later call retries. *)
let run_instance t node p inst =
  if p.on_stack then raise (Cycle p.name);
  (match inst.poison with
  | Some _ -> raise (Poisoned p.name)
  | None -> ());
  (* Pre-body faults — the depth watchdog, an injected "clear-preds"
     fault — must take the same failure path as a raise from the body: a
     settle loop has already popped this node and cleared [queued], so a
     raise that bypassed the handler would leave a previously-consistent
     eager instance unqueued with [consistent] still set, silently losing
     its pending invalidation. Nothing is recorded yet, so the edge set
     is intact, and no [Exec_begin] has been emitted, so the handler
     emits no [Exec_end] — traces stay balanced. *)
  (try
     (match t.max_stack_depth with
     | Some lim when t.stack_depth >= lim ->
       raise
         (Watchdog
            (Fmt.str "call-stack depth limit %d reached at %s#%d" lim p.name
               (G.id node)))
     | _ -> ());
     (* the site where RemovePredEdges ran, and keeps its name *)
     poke t "clear-preds"
   with e ->
     inst.consistent <- false;
     record_failure t node p inst e;
     raise e);
  let f = push_frame t node in
  p.on_stack <- true;
  p.queued <- false;
  inst.consistent <- true;
  let saved_mask = t.mask in
  t.mask <- true;
  (match t.txn with Some tx -> tx.ran <- node :: tx.ran | None -> ());
  if tele_on t then
    emit t (fun () ->
        Telemetry.Exec_begin
          { id = eid t node; name = p.name; first = not inst.ever_ran });
  let changed =
    try
      poke t "exec-begin";
      inst.recompute ()
    with e ->
      restore_preds t node f;
      pop_frame t f p saved_mask;
      (* leave the instance inconsistent so a later call retries *)
      inst.consistent <- false;
      record_failure t node p inst e;
      emit t (fun () ->
          Telemetry.Exec_end
            { id = eid t node; name = p.name; changed = false; ok = false });
      raise e
  in
  (* without a cut, drop the preds the execution never re-read *)
  if f.reads >= 0 then drop_preds t node f f.reads ~save:false;
  pop_frame t f p saved_mask;
  inst.failures <- 0;
  if tele_on t then
    emit t (fun () ->
        Telemetry.Exec_end
          { id = eid t node; name = p.name; changed; ok = true });
  t.c_executions <- t.c_executions + 1;
  if not inst.ever_ran then t.c_first <- t.c_first + 1
  else if not changed then
    (* an early cutoff: the re-execution produced the same value, so
       propagation stops here (quiescence, paper §4.5) *)
    t.c_cutoffs <- t.c_cutoffs + 1;
  inst.ever_ran <- true;
  changed

(* Force a dirty instance to currency, notifying dependents on change.
   A [Poisoned] dependency still notifies dependents (their reads must
   surface the typed error) before the exception propagates. *)
let force t node p inst =
  match run_instance t node p inst with
  | changed -> if changed then mark_succs t node
  | exception (Poisoned _ as e) ->
    masked t (fun () -> forward t node 0);
    raise e

(* A call answered from a consistent cache. *)
let cache_hit t node p =
  t.c_hits <- t.c_hits + 1;
  if tele_on t then
    emit t (fun () -> Telemetry.Cache_hit { id = eid t node; name = p.name })

(* Bring a called instance current for its caller: force it if dirty,
   else count the cache hit. A failed force was still observed by the
   caller, so the dependency is recorded before the raise — a later
   recovery of the instance then re-invalidates the caller. *)
let force_or_hit t node p inst =
  if dirty p then (
    try force t node p inst
    with e ->
      masked t (fun () -> record_dependency t node);
      raise e)
  else if inst.ever_ran then cache_hit t node p

(* Process one element of the inconsistent set, §4.5. *)
let process_inconsistent t node p =
  match p.kind with
  | Storage -> mark_succs t node
  | Instance inst -> (
    match inst.strategy with
    | Demand ->
      if inst.consistent then begin
        (* propagation state is engine state: inside a transaction the
           flip must be undoable, or a rollback after a cancelled settle
           leaves this instance already-inconsistent — a later settle
           would then skip the flip and never notify its dependents *)
        log_consistent t inst;
        inst.consistent <- false;
        mark_succs t node
      end
    | Eager -> force t node p inst)

(* ------------------------------------------------------------------ *)
(* Invariant auditor                                                   *)
(* ------------------------------------------------------------------ *)

(* Checks (on demand, or after every settle step under [self_audit])
   that the engine's metadata is coherent; see the mli for the list.
   Set-membership checks are skipped while a settle is draining (the
   drain temporarily holds popped-but-queued skipped nodes outside the
   heaps by design). [idle] is false for the per-step audits that run
   from inside settlement, where the settling flag is legitimately set;
   every public entry point passes true — a user-initiated audit that
   sees the settling flag with an empty call stack has found a leak. *)
let audit_errors_run t ~idle =
  t.c_audits <- t.c_audits + 1;
  let errs = ref [] in
  let err fmt = Fmt.kstr (fun s -> errs := s :: !errs) fmt in
  (try G.validate t.graph
   with Failure m | Invalid_argument m -> err "graph: %s" m);
  let stack = Array.to_list (Array.sub t.frames 0 t.stack_depth) in
  let stack_ids = List.map (fun f -> G.id f.fnode) stack in
  List.iter
    (fun f ->
      let p = G.payload f.fnode in
      if p.discarded then err "discarded node %s#%d on stack" p.name (G.id f.fnode);
      if not p.on_stack then
        err "stack frame %s#%d not flagged on_stack" p.name (G.id f.fnode))
    stack;
  for d = t.stack_depth to Array.length t.frames - 1 do
    if t.frames.(d).fnode != t.placeholder then
      err "frame %d above the stack still holds a node" d
  done;
  (* partition heap membership, computed once per distinct partition *)
  let heap_members : (partition * (int, unit) Hashtbl.t) list ref = ref [] in
  let members part =
    match List.find_opt (fun (pt, _) -> pt == part) !heap_members with
    | Some (_, tbl) -> tbl
    | None ->
      let tbl = Hashtbl.create 16 in
      List.iter (fun id -> Hashtbl.replace tbl id ()) (Heap.to_list part.queue);
      heap_members := (part, tbl) :: !heap_members;
      tbl
  in
  G.iter_nodes
    (fun node ->
      let p = G.payload node in
      if p.discarded then err "discarded node %s#%d still in the graph" p.name (G.id node)
      else begin
        if p.on_stack && not (List.mem (G.id node) stack_ids) then
          err "%s#%d flagged on_stack without a stack frame" p.name (G.id node);
        (match p.kind with
        | Instance inst ->
          if inst.poison <> None && inst.consistent then
            err "poisoned instance %s#%d flagged consistent" p.name (G.id node)
        | Storage -> ());
        if p.queued && not t.settling then begin
          let part = partition_of t node in
          if not (Hashtbl.mem (members part) (G.arena_id node)) then
            err "queued node %s#%d missing from its inconsistent set" p.name
              (G.id node);
          if not part.on_dirty_list then
            err "queued node %s#%d in a partition not flagged dirty" p.name
              (G.id node);
          if not (List.memq part t.dirty_parts) then
            err "queued node %s#%d in a partition missing from the dirty list"
              p.name (G.id node)
        end
      end)
    t.graph;
  (* the dirty-list rule: every listed partition flagged, listed once *)
  if not t.settling then begin
    let rec check_list = function
      | [] -> ()
      | part :: rest ->
        if not part.on_dirty_list then err "listed partition not flagged dirty";
        if List.memq part rest then err "partition listed twice";
        check_list rest
    in
    check_list t.dirty_parts
  end;
  (* the settle order: each listed heap is in heap order on its stored
     keys, and one keyed under the current order epoch stores current
     keys — so its minimum is the queued node of least priority *)
  let epoch = G.order_epoch t.graph in
  List.iter
    (fun part ->
      try Heap.validate ~current:(part.keyed = epoch) part.queue
      with Failure m -> err "inconsistent set out of priority order: %s" m)
    t.dirty_parts;
  if idle then begin
    if t.stack_depth = 0 && (not t.settling) && t.txn = None && not t.mask
    then err "edge-recording mask left disabled outside any execution";
    if t.stack_depth = 0 && t.settling then
      err "settling flag left set outside any settle"
  end;
  let errors = List.rev !errs in
  emit t (fun () ->
      Telemetry.Audit_run { ok = errors = []; errors = List.length errors });
  errors

let audit_errors t = audit_errors_run t ~idle:true

let audit t =
  match audit_errors t with [] -> () | errs -> raise (Audit_failure errs)

(* the per-step form used by [self_audit] from inside settlement *)
let audit_step t =
  match audit_errors_run t ~idle:false with
  | [] -> ()
  | errs -> raise (Audit_failure errs)

(* ------------------------------------------------------------------ *)
(* Settlement                                                          *)
(* ------------------------------------------------------------------ *)

(* Empty every listed partition's heap and take it off the list; by the
   dirty-list rule that empties every inconsistent set. *)
let clear_dirty t =
  List.iter
    (fun part ->
      Heap.clear part.queue;
      part.on_dirty_list <- false)
    t.dirty_parts;
  t.dirty_parts <- []

(* Give up incrementality: forget all pending marks and flag every
   instance inconsistent, so each next demand recomputes from scratch —
   the exhaustive semantics. [Durable] recovery takes this when it
   cannot trust its replay. *)
let degrade_to_exhaustive t =
  t.c_degradations <- t.c_degradations + 1;
  G.iter_nodes
    (fun node ->
      let p = G.payload node in
      p.queued <- false;
      match p.kind with
      | Instance inst -> inst.consistent <- false
      | Storage -> ())
    t.graph;
  clear_dirty t;
  t.quarantined <- []

(* Process one settle pop, quarantining instance failures: settlement is
   total — an exception from one instance must not abort propagation of
   the others. Audit failures pass through. Structural failures ([Cycle],
   [Poisoned], [Watchdog]) are never quarantined — retrying cannot fix a
   property of the graph — so a structurally-failed eager instance is
   left inconsistent but unqueued: it degrades to demand recomputation
   (the next read re-attempts it) instead of being retried by settles. *)
let process_guarded t node p =
  try process_inconsistent t node p with
  | (Audit_failure _ | Cancelled _) as e ->
    (* a budget trip aborts the whole settle, it is not an instance
       failure to quarantine — the node was re-marked inconsistent by
       the failure path, so nothing is lost *)
    raise e
  | _ -> ()

(* One settle step (§4.5) on [node]: queued, not on the call stack, and
   still in its heap. The drain calls it before taking the node, so a
   fault or a budget trip here leaves the node queued. The clock tick
   is the only per-step count. *)
let step t node p =
  poke t "settle-pop";
  budget_check t;
  if tele_on t then
    emit t (fun () -> Telemetry.Settle_pop { id = eid t node; name = p.name });
  p.queued <- false;
  (* the step consumes the mark: inside a transaction, log its
     restoration so a rollback cannot strand a node that was queued
     before the batch began *)
  log_remark t node;
  t.clock.ticks <- t.clock.ticks + 1

(* The drain: process [part]'s heap in priority order until it is empty
   ([true]) or the clock reaches [stop] at a node still to process
   ([false]). A heap keyed under an older order epoch is re-keyed before
   its minimum is trusted: a relabel or a Pearce–Kelly reorder since the
   last pop may have moved queued nodes' priorities. Stale entries —
   unqueued since their push, or naming a removed node — are dropped.
   Nodes on the call stack must not be processed here — an eager
   re-execution would be a false cycle — so they go to [t.skipped].
   Top-level and closure-free: every demand settle runs it. *)
let rec drain t part stop =
  if Heap.is_empty part.queue then true
  else begin
    let epoch = G.order_epoch t.graph in
    if part.keyed <> epoch then begin
      Heap.rekey part.queue;
      part.keyed <- epoch
    end;
    match G.of_arena_id t.graph (Heap.min_elt part.queue) with
    | Some node when (G.payload node).queued ->
      let p = G.payload node in
      if p.on_stack then begin
        Heap.drop_min part.queue;
        t.skipped <- node :: t.skipped;
        drain t part stop
      end
      else if t.clock.ticks >= stop then false
      else begin
        step t node p;
        Heap.drop_min part.queue;
        process_guarded t node p;
        if t.self_audit then audit_step t;
        drain t part stop
      end
    | Some _ | None ->
      Heap.drop_min part.queue;
      drain t part stop
  end

let requeue_skipped t =
  match t.skipped with
  | [] -> ()
  | nodes ->
    t.skipped <- [];
    List.iter (fun n -> if (G.payload n).queued then enqueue t n) nodes

(* Drain [part] and re-queue what it skipped, also when it raises. The
   partition leaves the dirty list only if it emptied with nothing
   skipped — after a raise it keeps its place, so the next settle
   resumes it; answers that quiescence. *)
let drain_partition t part stop =
  match drain t part stop with
  | drained ->
    let quiet = drained && match t.skipped with [] -> true | _ -> false in
    requeue_skipped t;
    if quiet then unlist_part t part;
    quiet
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    requeue_skipped t;
    Printexc.raise_with_backtrace e bt

(* The walk: drain every listed partition, pass after pass while a pass
   takes a step (processing may list a partition the pass is past).
   Answers quiescence: whether the dirty list ended empty. *)
let rec walk t stop =
  match t.dirty_parts with
  | [] -> true
  | parts ->
    let ticks = t.clock.ticks in
    walk_pass t stop parts;
    if t.clock.ticks > ticks then walk t stop else t.dirty_parts = []

and walk_pass t stop = function
  | [] -> ()
  | part :: rest ->
    if part.on_dirty_list then ignore (drain_partition t part stop : bool);
    walk_pass t stop rest

(* Every step runs inside a settle session: [settling] is set while it
   runs (calls made inside force instead of re-entering it). [~all]
   walks the dirty list; otherwise only [part] drains — the demand
   settle of [on_call]. *)
let session t ~all part stop =
  t.settling <- true;
  match if all then walk t stop else drain_partition t part stop with
  | quiet ->
    t.settling <- false;
    quiet
  | exception e ->
    t.settling <- false;
    raise e

(* [stabilize] is the walk with no step limit, after re-marking the
   quarantined instances. A session with work is counted and timed; the
   common already-quiescent stabilize is not a session. *)
let stabilize t =
  requeue_quarantined t;
  if not t.settling then
    match (t.dirty_parts, t.metrics) with
    | [], _ -> ()
    | _ :: _, None ->
      t.c_settles <- t.c_settles + 1;
      ignore (session t ~all:true t.global_part max_int : bool)
    | _ :: _, Some (_, seconds) ->
      t.c_settles <- t.c_settles + 1;
      let t0 = Metrics.now () in
      Fun.protect
        ~finally:(fun () -> Metrics.observe_since seconds t0)
        (fun () -> ignore (session t ~all:true t.global_part max_int : bool))

(* Preemptable evaluation (§4.5: "the evaluation routine should be called
   whenever cycles are available … and can be preempted when necessary"):
   the walk, stopped once it has taken [max_steps] steps. *)
let settle_bounded t ~max_steps =
  if t.settling then t.dirty_parts = []
  else begin
    requeue_quarantined t;
    let now = t.clock.ticks in
    session t ~all:true t.global_part
      (if max_steps >= max_int - now then max_int else now + max_steps)
  end

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)
(* ------------------------------------------------------------------ *)

(* Rollback: undo the writes newest-first, then re-invalidate. Any
   instance that executed inside the transaction read some of its inputs
   against the batch's intermediate state — invalidate those instances
   and their dependents so the next settle recomputes from the restored
   inputs. Un-marking is lazy w.r.t. the heaps: settlement already skips
   popped entries whose [queued] flag is off. *)
let rollback_txn t tx =
  t.txn <- None;
  refresh_quick t;
  masked t @@ fun () ->
    List.iter
      (fun node ->
        let p = G.payload node in
        if p.queued then p.queued <- false)
      tx.tmarked;
    let undone = List.length tx.undos in
    List.iter
      (fun u ->
        match u with
        | U_remark node -> mark_inconsistent t node
        | U_consistent inst -> inst.consistent <- true
        | U_fun f -> f ())
      tx.undos;
    let remarked = ref 0 in
    List.iter
      (fun node ->
        let p = G.payload node in
        if not p.discarded then begin
          (match p.kind with
          | Instance inst -> inst.consistent <- false
          | Storage -> ());
          mark_inconsistent t node;
          forward t node 0;
          incr remarked
        end)
      tx.ran;
    t.c_rollbacks <- t.c_rollbacks + 1;
    emit t (fun () ->
        Telemetry.Txn_rollback { undone; remarked = !remarked })

let transact t f =
  if t.txn <> None then
    invalid_arg "Engine.transact: already inside a transaction";
  if t.stack_depth > 0 then
    invalid_arg "Engine.transact: called during an incremental execution";
  let tx = { undos = []; tmarked = []; ran = [] } in
  t.txn <- Some tx;
  t.quick <- false;
  emit t (fun () -> Telemetry.Txn_begin);
  (match jtxn t `Begin with
  | () -> ()
  | exception e ->
    (* nothing ran yet: no writes to undo, just leave the transaction *)
    t.txn <- None;
    refresh_quick t;
    raise e);
  match
    let v = f () in
    (* the batch settle is inside the transaction: if propagation fails,
       the writes roll back with it *)
    stabilize t;
    (* the commit marker is the durability point: journaled only after
       every write and the batch settle succeeded, and before the
       caller learns the batch committed. If appending it fails, the
       batch rolls back below — so the journal never claims a commit
       the in-memory state abandoned, and vice versa. *)
    jtxn t `Commit;
    v
  with
  | v ->
    t.txn <- None;
    refresh_quick t;
    emit t (fun () -> Telemetry.Txn_commit { marks = List.length tx.tmarked });
    v
  | exception e ->
    rollback_txn t tx;
    (* advisory: replay drops uncommitted groups anyway *)
    (try jtxn t `Abort with _ -> ());
    raise e

(* ------------------------------------------------------------------ *)
(* Calls                                                               *)
(* ------------------------------------------------------------------ *)

let on_call t node =
  let p = G.payload node in
  match p.kind with
  | Storage -> invalid_arg "Engine.on_call: storage node"
  | Instance inst ->
    if p.on_stack then begin
      (* Re-entrant call: a dependency cycle. The caller still observed
         this instance (it will typically turn the exception into an error
         value, as the spreadsheet does), so record the dependency before
         raising — otherwise a cached error value would never be
         invalidated when another cycle participant is edited. *)
      record_dependency t node;
      raise (Cycle p.name)
    end;
    (* Before trusting the cached value, propagate the pending
       inconsistencies of this node's partition — Algorithm 5's
       "IF SetSize(Inconsistent) > 0 THEN Evaluate". Inside the evaluator
       itself we only force: re-entering settlement is both unnecessary
       (the evaluator is already draining this queue) and guarded. A call
       inside a transaction settles too — that is what lets reads observe
       the partial batch; everything that executes is recorded in the
       transaction's [ran] list and re-invalidated on rollback.

       The caller receives the value cached by the instance's own (body)
       execution. Writes performed *during* that execution may leave the
       instance re-queued (e.g. the AVL balance rotations); that dirt is
       deliberately left for the next settlement — re-forcing here would
       hand the mutator the value of a *later* re-execution under the
       already-mutated state (for balance: the demoted node's local
       subtree instead of the new root), which is not what the imperative
       program's call returns. *)
    if not t.settling then begin
      (* a quiescent partition is unlisted: a cache hit's settle share
         is two loads and a branch *)
      let part = partition_of t node in
      if part.on_dirty_list then
        ignore (session t ~all:false part max_int : bool)
    end;
    force_or_hit t node p inst;
    (* The dependency edge is recorded only now, after any forcing, so the
       consumer is never spuriously invalidated by the fresh value it is
       about to read. *)
    record_dependency t node

(* Clearing poison also resets [failures] to 0: the operator has
   (presumably) fixed the environment, so the instance gets a full
   fresh retry budget — it must take [max_retries] *new* failures, not
   one, to poison again. The regression test in test/test_faults.ml
   pins this down. *)
let clear_poison t node =
  match (G.payload node).kind with
  | Instance inst ->
    inst.poison <- None;
    inst.failures <- 0;
    inst.consistent <- false;
    masked t (fun () -> mark_inconsistent t node)
  | Storage -> invalid_arg "Engine.clear_poison: storage node"

let removable _t node =
  let p = G.payload node in
  (match p.kind with Storage -> false | Instance _ -> true)
  && (not p.on_stack) && (not p.queued) && (not p.discarded)
  && G.succ_count node = 0

let discard t node =
  let p = G.payload node in
  if not (removable t node) then invalid_arg "Engine.discard: not removable";
  (* poked before any mutation so a fault cancels the eviction cleanly *)
  poke t "evict";
  p.discarded <- true;
  t.c_evictions <- t.c_evictions + 1;
  t.quarantined <- List.filter (fun n -> not (n == node)) t.quarantined;
  emit t (fun () -> Telemetry.Evicted { id = eid t node; name = p.name });
  (* the cells it last wrote list it as a writer: unlist it, so nothing
     in the engine keeps the instance (and its cached value) alive *)
  G.iter_pred
    (fun src ->
      let sp = G.payload src in
      if List.memq node sp.writers then
        sp.writers <- List.filter (fun w -> w != node) sp.writers)
    node;
  G.remove_node t.graph node

let unchecked t f =
  let saved = t.mask in
  t.mask <- false;
  let finally () = t.mask <- saved in
  Fun.protect ~finally f

let is_executing t = t.stack_depth > 0

let recording t = t.mask && t.stack_depth > 0

let node_name node = (G.payload node).name
let node_id node = G.id node
let succ_count node = G.succ_count node
let pred_count node = G.pred_count node

(* What [stats] reports of the [i]th counter. *)
let stat t i = counters.(i).read t - t.base.(i)

let stats t =
  let v = stat t in
  {
    executions = v 0;
    first_executions = v 1;
    cache_hits = v 2;
    settle_steps = v 3;
    queue_pushes = v 4;
    unions = v 5;
    out_of_order_edges = v 6;
    order_fixups = v 7;
    evictions = v 8;
    failures = v 9;
    retries = v 10;
    poisonings = v 11;
    rollbacks = v 12;
    degradations = v 13;
    audits = v 14;
    cutoffs = v 15;
    cancellations = v 16;
    settles = v 17;
  }

let reset_stats t = Array.iteri (fun i c -> t.base.(i) <- c.read t) counters

let graph_stats t = G.stats t.graph

let iter_nodes t f = G.iter_nodes f t.graph

let node_kind node =
  match (G.payload node).kind with
  | Storage -> `Storage
  | Instance _ -> `Instance

let node_dirty node = dirty (G.payload node)

let iter_node_succ f node = G.iter_succ f node
let iter_node_pred f node = G.iter_pred f node

(* Tracked writers of a storage cell, oldest-recorded first — the
   implicit write-then-read edges {!Inspect.parallel_profile} charges
   to the critical path.
   Instances have no writers; discarded writers are skipped. *)
let iter_node_writers f node =
  List.iter
    (fun w -> if not (G.payload w).discarded then f w)
    (List.rev (G.payload node).writers)

(* ------------------------------------------------------------------ *)
(* Export / import of logical engine state (durability)                 *)
(* ------------------------------------------------------------------ *)

(* What can and cannot persist: instance bodies are closures over typed
   caches, so values and [recompute] functions are NOT serializable —
   a restore is structurally a cold rebuild (the domain layer recreates
   vars and funcs; values recompute on demand, which is conservatively
   correct). [export] therefore captures the *logical* state: per-node
   name/kind/dirty/consistency/failure bookkeeping, quarantine
   membership, the discovered edge set (as diagnostic evidence — see
   [import]), and the counters. Node names are the stable identities
   that [import] matches on. *)

let num n = Json.Num (float_of_int n)

let export t =
  (* node ids are written through [eid]: an engine that was itself
     restored re-exports the ids of the snapshot lineage it came from,
     so identities stay stable across restart chains *)
  let nodes = ref [] in
  G.iter_nodes (fun n -> nodes := n :: !nodes) t.graph;
  let nodes =
    List.sort
      (fun a b ->
        match compare (eid t a) (eid t b) with
        | 0 -> compare (G.id a) (G.id b)
        | c -> c)
      !nodes
  in
  let node_json n =
    let p = G.payload n in
    let base =
      [ ("id", num (eid t n)); ("name", Json.Str p.name);
        ("queued", Json.Bool p.queued) ]
    in
    match p.kind with
    | Storage -> Json.Obj (("kind", Json.Str "storage") :: base)
    | Instance inst ->
      Json.Obj
        (("kind", Json.Str "instance")
        :: base
        @ [
            ("consistent", Json.Bool inst.consistent);
            ("ever_ran", Json.Bool inst.ever_ran);
            ("failures", num inst.failures);
            ( "poison",
              match inst.poison with
              | None -> Json.Null
              | Some e -> Json.Str (Printexc.to_string e) );
            ("quarantined", Json.Bool (List.memq n t.quarantined));
          ])
  in
  let edges =
    List.concat_map
      (fun n ->
        let acc = ref [] in
        G.iter_succ
          (fun dst ->
            if not (G.payload dst).discarded then
              acc := Json.Arr [ num (eid t n); num (eid t dst) ] :: !acc)
          n;
        List.rev !acc)
      nodes
  in
  Json.Obj
    [
      ("schema", Json.Str "alphonse-engine/1");
      ("nodes", Json.Arr (List.map node_json nodes));
      ("edges", Json.Arr edges);
      ( "stats",
        Json.Obj
          (List.mapi
             (fun i c -> (c.key, num (stat t i)))
             (Array.to_list counters)) );
    ]

(* Best-effort restore of exported logical state onto a live engine
   whose domain structure has already been rebuilt. Matching is by
   stable node name; anything unmatched (a node not yet re-demanded —
   storage appears on first tracked access, instances on first call)
   is reported as a warning, not an error. Edges are deliberately NOT
   installed: dependencies are re-discovered by re-execution, and
   splicing them in without the cached values they justified would
   fake consistency the caches cannot back. Restored per matched node:
   dirty marks (re-queued), failure counts, poison (as [Failure] of
   the recorded message) and quarantine membership; [stats] resume
   from the snapshot so they stay continuous across restarts (the
   counters themselves, and so the registry, do not move). *)
let import t j =
  let warnings = ref [] in
  let warn fmt = Printf.ksprintf (fun s -> warnings := s :: !warnings) fmt in
  (match Json.member "schema" j with
  | Some (Json.Str "alphonse-engine/1") -> ()
  | _ -> warn "unrecognized engine snapshot schema");
  (* stable-identity remap: matched live nodes adopt the snapshot's
     node ids for every report surface (telemetry, profiles, DOT,
     re-export) — see [eid] *)
  let remap =
    match t.stable_ids with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 64 in
      t.stable_ids <- Some tbl;
      tbl
  in
  let by_name : (string, nd) Hashtbl.t = Hashtbl.create 64 in
  let ambiguous : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  iter_nodes t (fun n ->
      let name = (G.payload n).name in
      if Hashtbl.mem by_name name then begin
        Hashtbl.remove by_name name;
        Hashtbl.replace ambiguous name ()
      end
      else if not (Hashtbl.mem ambiguous name) then
        Hashtbl.replace by_name name n);
  let matched = ref 0 and missing = ref 0 in
  let str j = Json.to_str j in
  let restore_node nj =
    match Option.bind (Json.member "name" nj) str with
    | None -> warn "snapshot node without a name"
    | Some name -> (
      let flag key =
        match Json.member key nj with Some (Json.Bool b) -> b | _ -> false
      in
      let int_field key =
        match Option.bind (Json.member key nj) Json.to_float with
        | Some f -> int_of_float f
        | None -> 0
      in
      match Hashtbl.find_opt by_name name with
      | None ->
        if Hashtbl.mem ambiguous name then
          warn "ambiguous live name %S: not restored" name
        else begin
          incr missing;
          if !missing <= 5 then warn "no live node named %S" name
        end
      | Some n -> (
        incr matched;
        (match Option.bind (Json.member "id" nj) Json.to_float with
        | Some f -> Hashtbl.replace remap (G.id n) (int_of_float f)
        | None -> ());
        let p = G.payload n in
        match p.kind with
        | Storage -> if flag "queued" then masked t (fun () -> mark_inconsistent t n)
        | Instance inst ->
          inst.failures <- int_field "failures";
          (match Option.bind (Json.member "poison" nj) str with
          | Some msg ->
            (* poisoned stays parked (not re-queued): only clear_poison
               readmits it to settlement, same as before the crash *)
            inst.poison <- Some (Failure ("[restored] " ^ msg));
            inst.consistent <- false
          | None ->
            if flag "quarantined" && not (List.memq n t.quarantined) then
              t.quarantined <- n :: t.quarantined;
            if flag "queued" || not (flag "consistent") then begin
              inst.consistent <- false;
              masked t (fun () -> mark_inconsistent t n)
            end)))
  in
  (match Option.bind (Json.member "nodes" j) Json.to_list with
  | Some nodes -> List.iter restore_node nodes
  | None -> warn "snapshot has no node table");
  if !missing > 5 then
    warn "(%d more snapshot nodes without live counterparts)" (!missing - 5);
  (match Json.member "stats" j with
  | Some stats_j ->
    let get key =
      match Option.bind (Json.member key stats_j) Json.to_float with
      | Some f -> int_of_float f
      | None -> 0
    in
    Array.iteri (fun i c -> t.base.(i) <- c.read t - get c.key) counters
  | None -> warn "snapshot has no stats");
  (!matched, List.rev !warnings)
