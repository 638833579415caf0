(** Flat array binary heap of int ids with int keys — the engine's
    inconsistent-set queue.

    An entry is two ints: an id, which the owner resolves to its element
    (the engine packs a graph node's arena slot and generation word, see
    {!Graph.arena_id}), and the id's key, computed once by {!insert} with
    the [key] function given at creation. Ids and keys live in two
    growable int arrays, so the sift loops compare and move unboxed ints:
    no write barrier, no allocation in steady state (the arrays double
    amortized-O(1)), and the heap keeps no element alive. This is the
    priority queue behind the settle loop's inconsistent set (paper
    §4.5).

    A stored key is a snapshot. When the ordering [key] reads from moves
    (the engine's order-list relabels and Pearce–Kelly reorders), the
    owner calls {!rekey} before trusting {!min_elt} again; until then the
    heap is ordered by the keys it stored, not by the current ones.

    An owner {e retires} an id whose element is gone by having [key]
    answer a negative int for it: {!rekey} then floats the entry to the
    top, where the owner drops it, and {!validate} does not hold the
    entry to its stored key.

    The trade is {!meld}: O(m log n) bulk insert rather than a pairing
    heap's O(1) splice. The engine only melds when the dynamic
    partitioning of §6.3 unions two partitions — rare, and absent
    entirely in the default unpartitioned mode.

    The heap does not deduplicate; callers that need set semantics (the
    engine does) keep an [in_set] flag on elements and skip stale pops. *)

type t
(** A heap of int ids, smallest key first. *)

val create : key:(int -> int) -> t
(** [create ~key] is an empty heap ordered by [key]. *)

val is_empty : t -> bool
(** [is_empty h] iff [h] holds no entries. O(1). *)

val length : t -> int
(** Number of entries currently in the heap (counting duplicates). O(1). *)

val insert : t -> int -> unit
(** Adds an id under its current key. Amortized O(log n),
    allocation-free in steady state. *)

val min_elt : t -> int
(** An id of smallest stored key, without removing it. O(1).
    @raise Invalid_argument if the heap is empty. *)

val drop_min : t -> unit
(** Removes the entry {!min_elt} returns; no-op on an empty heap.
    O(log n), allocation-free. *)

val rekey : t -> unit
(** Recomputes every entry's key and restores heap order. O(n),
    allocation-free; moves nothing when the new keys keep the old
    relative order. *)

val meld : t -> t -> unit
(** [meld dst src] moves all entries of [src] into [dst], leaving [src]
    empty. Each moved id is inserted under its current key, so a stale
    [src] needs no {!rekey} first; keys already stored in [dst] are
    kept. Both heaps must have been created with the same [key] (checked
    by physical equality of the closures). O(m log n). *)

val clear : t -> unit
(** Empties the heap. *)

val to_list : t -> int list
(** Ids in unspecified order; for tests and audits. *)

val validate : ?current:bool -> t -> unit
(** Checks the heap order of the stored keys and, with [~current:true],
    that every stored key is still what [key] computes for its id,
    retired ids excepted. For tests and audits.
    @raise Failure naming the broken invariant. *)
