(** The dynamic dependency graph of paper §4.1, arena-allocated.

    Nodes represent incremental procedure instances and the abstract storage
    locations they touch; an edge [u → v] records that the most recent
    execution of the instance at [v] read or wrote the value at [u]. Each
    node carries a client payload (the engine's bookkeeping record) and an
    {!Order_list} item giving its approximate topological priority, read
    as an int by {!order_key} and versioned by {!order_epoch}.

    Representation: nodes live in a slot {e arena} — flat growable arrays
    indexed by a small integer slot — and adjacency is flat parallel [int]
    arrays of twinned entries rather than linked edge records. Position [i]
    of [u]'s successor arrays names [v]'s slot together with the index [j]
    of the twin entry in [v]'s predecessor arrays, and vice versa; removal
    is swap-remove with a twin-backpointer fixup, so removing an edge
    costs O(1) (§9.2: "the O(1) cost of removing each edge can be charged
    to the edge creation"). A re-execution whose reads repeat removes and
    adds none: see {!reread}.

    Slots are recycled under a {e generation word} (see {!generation});
    handle liveness is an exact per-node flag, so generation wraparound
    cannot resurrect a removed node.

    Duplicate suppression: within a single execution of a consumer, repeated
    accesses to the same source create only one edge, deduplicated by an
    execution stamp on the source node. *)

type 'a t
(** A dependency graph with payloads of type ['a]. *)

type 'a node
(** A node handle. Handles are ordinary heap values compared with physical
    equality ([==]); the arena arrays map slots back to handles, so client
    code never sees raw indices unless it asks ({!slot}). *)

val create : unit -> 'a t

(** {1 Nodes} *)

val iter_nodes : ('a node -> unit) -> 'a t -> unit
(** Applies a function to every live node, highest arena slot first —
    newest first in a graph that never removed a node. Removed nodes are
    not visited, so the graph holds no reference to them. The callback
    must not add or remove nodes. *)

val add_node : 'a t -> order_after:'a node option -> 'a -> 'a node
(** [add_node t ~order_after:anchor payload] creates a node. Its priority is
    inserted immediately after [anchor]'s, or at the very end of the order
    when [anchor] is [None]. *)

val add_node_before : 'a t -> order_before:'a node -> 'a -> 'a node
(** Like {!add_node} but the new node's priority precedes [order_before]'s —
    used for dependencies discovered during the consumer's execution, which
    must drain before the consumer under quiescence propagation. *)

val remove_node : 'a t -> 'a node -> unit
(** Detaches every incident edge, retires the node's order item, and
    recycles the node's arena slot under a fresh generation word. The node
    must not be used afterwards (checked: raises [Invalid_argument]). *)

val payload : 'a node -> 'a
(** The client payload the node was created with. *)

val id : 'a node -> int
(** A graph-lifetime-unique identifier. Unlike {!slot}, ids are never
    recycled, so they are safe as hash-table keys outliving the node. *)

val slot : 'a node -> int
(** The node's arena index. Slots are recycled by {!remove_node}; a slot
    only names this node while the node is live. Exposed for tests and
    diagnostics — prefer {!id} for any key that outlives the node. *)

val generation : 'a node -> int
(** The generation word of the node's slot at allocation. Each recycling of
    a slot increments the slot's generation modulo {!gen_limit}, letting
    {!validate} prove no live handle aliases a recycled slot, and
    {!of_arena_id} tell a recycled slot's new node from the one an id was
    taken from. Wraparound is benign for handles: liveness is tracked by
    an exact per-node flag. *)

val gen_limit : int
(** Generation words live in [0 .. gen_limit - 1] (currently [2^16]). *)

val arena_id : 'a node -> int
(** The node's slot and generation word packed in one non-negative int:
    the settle heaps store this instead of a pointer. *)

val of_arena_id : 'a t -> int -> 'a node option
(** The live node an {!arena_id} names, or [None] once that node is
    removed — also after its slot was recycled, until the slot's
    generation word wraps around to the same value ({!gen_limit}
    recyclings). No allocation. *)

val order_lt : 'a node -> 'a node -> bool
(** Priority comparison: [order_lt u v] iff [u] drains before [v]. *)

val order_key : 'a node -> int
(** The node's priority as an int: [order_lt u v] iff
    [order_key u < order_key v]. The settle heaps store it beside each
    queued node. A node's key moves only when {!order_epoch} does. *)

val order_epoch : 'a t -> int
(** A counter bumped whenever some live node's {!order_key} may have
    moved: an order-list relabel during node creation, {!reorder_before},
    and a [`Reordered] {!restore_topological_order}. Keys read under the
    current epoch are current; a heap keyed under an older one must be
    re-keyed before it is trusted. *)

val restore_topological_order :
  'a t ->
  src:'a node ->
  dst:'a node ->
  [ `Already_ordered | `Reordered of int | `Cycle ]
(** Pearce–Kelly dynamic topological-order restoration for a just-added
    edge [src → dst]: when [dst] currently drains before [src], permute
    the priorities of the affected region so every dependency again
    precedes its dependents. Returns how many nodes were moved, or
    [`Cycle] (order untouched) when the edge closes a cycle. A reorder
    bumps {!order_epoch}. This is the
    "compute this order in the presence of graph changes" machinery the
    paper's §2 cites; the evaluator is correct under any order, so this
    only reduces redundant re-execution. *)

val reorder_before : 'a node -> 'a node -> unit
(** [reorder_before u v] moves [u]'s priority to just before [v]'s. Used
    when a new edge [u → v] is discovered with [u] currently after [v]
    (out-of-order edge), restoring approximate topological order. Bumps
    {!order_epoch}. *)

(** {1 Edges} *)

val add_edge : stamp:int -> src:'a node -> dst:'a node -> unit
(** Records dependency [src → dst]. [stamp] identifies the current
    execution of [dst]; a second call with the same [(src, stamp)] is a
    no-op (duplicate access within one execution). Steady-state cost: two
    array stores per side, no allocation once the adjacency arrays have
    grown to their working size. *)

val clear_preds : 'a t -> 'a node -> unit
(** Removes every incoming edge of the node ([RemovePredEdges]) by
    swap-remove on each source's successor arrays. O(1) per edge, no
    allocation. *)

(** {1 Re-reading}

    A consumer's predecessors are listed in the order its last
    execution first read them. A re-execution walks a {e cursor} (a
    pred index, kept by the caller) over that list: a read of the
    source at the cursor needs no edge write. The engine truncates the
    list at the cursor at the first read that differs (and appends from
    there on), and at exit drops the preds the execution never reached —
    the same edge set as clearing and re-recording, without the writes
    when the reads repeat. *)

val reread :
  stamp:int -> src:'a node -> dst:'a node -> int -> [ `Repeat | `Reread | `New ]
(** [reread ~stamp ~src ~dst at] classifies the read of [src] by the
    execution [stamp] of [dst], whose cursor is [at] (negative: no
    re-reading): [`Repeat] when this execution already read [src];
    [`Reread] when [src] is the predecessor at [at], which stamps [src]
    (the caller advances its cursor); [`New] when the read needs an
    edge, to be added with {!add_edge} under the same stamp. No
    allocation. *)

val truncate_preds : 'a t -> 'a node -> int -> unit
(** [truncate_preds g n k] removes predecessors [k ..] of [n], O(1) per
    edge. *)

val pred_at : 'a node -> int -> 'a node
(** [pred_at n i] is the [i]th predecessor of [n], in read order.
    @raise Invalid_argument if [i] is out of range. *)

val iter_succ : ('a node -> unit) -> 'a node -> unit
(** Applies a function to every successor (dependent) of the node. The
    callback must not add or remove edges of this node. *)

val iter_pred : ('a node -> unit) -> 'a node -> unit
(** Applies a function to every predecessor (dependency) of the node. The
    callback must not add or remove edges of this node. *)

val succ_count : 'a node -> int
(** Number of outgoing (dependent) edges. *)

val succ_at : 'a node -> int -> 'a node
(** [succ_at n i] is the [i]th successor of [n] in {!iter_succ} order,
    for [0 <= i < succ_count n]: the closure-free form of {!iter_succ}
    for the engine's forwarding loop. The same restriction applies
    between calls: no edge of [n] may be added or removed.
    @raise Invalid_argument if [i] is out of range. *)

val succ_pred_index : 'a node -> int -> int
(** [succ_pred_index n i] is the position of [n] in the predecessor list
    of its [i]th successor: compared with that consumer's cursor, it
    tells whether the consumer's running execution has re-read [n] yet.
    @raise Invalid_argument if [i] is out of range. *)

val pred_count : 'a node -> int
(** Number of incoming (dependency) edges. *)

(** {1 Statistics (benches E5/E6)} *)

type stats = {
  live_nodes : int;
  live_edges : int;
  total_nodes : int;  (** nodes ever created *)
  total_edges : int;  (** edges ever created, after deduplication *)
  removed_edges : int;
  order_relabels : int;  (** items moved by order-maintenance relabeling *)
}

val stats : 'a t -> stats
(** Lifetime counters for the graph, cheap to read. *)

val validate : 'a t -> unit
(** Internal invariant check for tests: twin symmetry of the flat
    adjacency, arena/handle/generation coherence, counts, order. *)
