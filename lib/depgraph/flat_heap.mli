(** Flat array binary heap with int keys — the engine's inconsistent-set
    queue.

    Elements live in one growable array beside a parallel array of int
    keys: {!insert} computes an element's key once, with the [key]
    function given at creation, and the sift loops compare the stored
    ints in place. {!insert} and {!drop_min} shuffle array cells and
    allocate nothing in steady state (the backing arrays double
    amortized-O(1)). This is the priority queue behind the settle loop's
    inconsistent set (paper §4.5).

    A stored key is a snapshot. When the ordering [key] reads from moves
    (the engine's order-list relabels and Pearce–Kelly reorders), the
    owner calls {!rekey} before trusting {!min_elt} again; until then the
    heap is ordered by the keys it stored, not by the current ones.

    The trade is {!meld}: O(m log n) bulk insert rather than a pairing
    heap's O(1) splice. The engine only melds when the dynamic
    partitioning of §6.3 unions two partitions — rare, and absent
    entirely in the default unpartitioned mode.

    The heap does not deduplicate; callers that need set semantics (the
    engine does) keep an [in_set] flag on elements and skip stale pops.
    Vacated cells may retain stale references to popped elements until
    overwritten or {!clear}ed. *)

type 'a t
(** A heap of ['a], smallest key first. *)

val create : key:('a -> int) -> 'a t
(** [create ~key] is an empty heap ordered by [key]. *)

val is_empty : 'a t -> bool
(** [is_empty h] iff [h] holds no elements. O(1). *)

val length : 'a t -> int
(** Number of elements currently in the heap (counting duplicates). O(1). *)

val insert : 'a t -> 'a -> unit
(** Adds an element under its current key. Amortized O(log n),
    allocation-free in steady state. *)

val min_elt : 'a t -> 'a
(** An element of smallest stored key, without removing it. O(1).
    @raise Invalid_argument if the heap is empty. *)

val drop_min : 'a t -> unit
(** Removes the element {!min_elt} returns; no-op on an empty heap.
    O(log n), allocation-free. *)

val rekey : 'a t -> unit
(** Recomputes every element's key and restores heap order. O(n),
    allocation-free; moves nothing when the new keys keep the old
    relative order. *)

val meld : 'a t -> 'a t -> unit
(** [meld dst src] moves all elements of [src] into [dst], leaving [src]
    empty. Each moved element is inserted under its current key, so a
    stale [src] needs no {!rekey} first; keys already stored in [dst]
    are kept. Both heaps must have been created with the same [key]
    (checked by physical equality of the closures). O(m log n). *)

val clear : 'a t -> unit
(** Empties the heap and drops the backing arrays, releasing any stale
    element references. *)

val to_list : 'a t -> 'a list
(** Elements in unspecified order; for tests and audits. *)

val validate : ?current:bool -> 'a t -> unit
(** Checks the heap order of the stored keys and, with [~current:true],
    that every stored key is still what [key] computes for its element.
    For tests and audits.
    @raise Failure naming the broken invariant. *)
