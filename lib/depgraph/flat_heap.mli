(** Flat array binary heap — the engine's inconsistent-set queue.

    Elements live in one growable array: {!insert} and {!drop_min}
    shuffle array cells and allocate nothing in steady state (the
    backing array doubles amortized-O(1)). This is the priority queue
    behind the settle loop's inconsistent set (paper §4.5), where
    per-operation allocation dominated the cost profile of the pairing
    heap it replaced.

    The trade is {!meld}: O(m log n) bulk insert rather than a pairing
    heap's O(1) splice. The engine only melds when the dynamic
    partitioning of §6.3 unions two partitions — rare, and absent
    entirely in the default unpartitioned mode.

    The heap does not deduplicate; callers that need set semantics (the
    engine does) keep an [in_set] flag on elements and skip stale pops.
    Vacated cells may retain stale references to popped elements until
    overwritten or {!clear}ed. *)

type 'a t
(** A heap of ['a] ordered by the [leq] supplied at creation. *)

val create : leq:('a -> 'a -> bool) -> 'a t
(** [create ~leq] is an empty heap ordered by [leq] (non-strict). *)

val is_empty : 'a t -> bool
(** [is_empty h] iff [h] holds no elements. O(1). *)

val length : 'a t -> int
(** Number of elements currently in the heap (counting duplicates). O(1). *)

val insert : 'a t -> 'a -> unit
(** Adds an element. Amortized O(log n), allocation-free in steady
    state. *)

val min_elt : 'a t -> 'a
(** A minimal element, without removing it. O(1).
    @raise Invalid_argument if the heap is empty. *)

val drop_min : 'a t -> unit
(** Removes a minimal element (the one {!min_elt} returns); no-op on an
    empty heap. O(log n), allocation-free. *)

val meld : 'a t -> 'a t -> unit
(** [meld dst src] moves all elements of [src] into [dst], leaving [src]
    empty. Both heaps must have been created with the same [leq]
    (checked by physical equality of the closures). O(m log n). *)

val clear : 'a t -> unit
(** Empties the heap and drops the backing array, releasing any stale
    element references. *)

val to_list : 'a t -> 'a list
(** Elements in unspecified order; for tests. *)
