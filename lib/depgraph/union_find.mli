(** Disjoint-set forest with union by rank and path compression.

    This is the dynamic refinement of the dependency-graph partitioning of
    paper §6.3: every dependency graph node starts in its own singleton
    partition; adding an edge unions the two endpoints' partitions. Each
    root carries a client payload (the engine stores the partition's
    inconsistent set there), merged by the [merge] callback on union.

    All operations are amortized O(α(n)) — the inverse-Ackermann factor the
    paper cites in §9.2 for the partitioned time bound O(T·G(M)). *)

type 'a elt

val make : 'a -> 'a elt
(** [make payload] creates a fresh singleton set carrying [payload]. *)

val find : 'a elt -> 'a elt
(** Representative (root) of the element's set. *)

val payload : 'a elt -> 'a
(** Payload stored at the set's root. *)

val same : 'a elt -> 'a elt -> bool
(** Whether two elements are in the same set. *)

val union : merge:('a -> 'a -> 'a) -> 'a elt -> 'a elt -> 'a elt
(** [union ~merge a b] merges the two sets and returns the new root. The
    surviving root's payload becomes [merge kept absorbed] where [kept] is
    the payload of the root chosen by rank. No-op (returning the root) if
    already in the same set. *)
