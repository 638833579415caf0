(** Order-maintenance list.

    Maintains a total order over a dynamic set of items supporting O(1)
    comparison and amortized O(log n) insertion at an arbitrary position.
    This is the priority substrate for approximately-topological quiescence
    propagation: when an incremental procedure instance is created during the
    execution of another, it is inserted just after its creator, so that the
    evaluator's priority queue drains dependents roughly after the things
    they depend on (cf. Hoover [Hoo87] and Alpern et al. [AHR+90]).

    The implementation is a single-level list-labeling scheme over a 62-bit
    tag space with exponential-window relabeling (Bender et al. style):
    when an insertion finds no free tag, the smallest enclosing power-of-two
    tag range whose density is below a geometrically decreasing threshold is
    evenly relabeled. *)

type t
(** A mutable ordered list. *)

type item
(** An element of the order. Items belong to exactly one list. *)

val create : unit -> t
(** [create ()] returns a fresh order with a single base item, retrievable
    with {!base}. *)

val base : t -> item
(** The first item of the order; it is never deleted. *)

val last : t -> item
(** The current last item of the order. O(1). *)

val insert_after : item -> item
(** [insert_after x] creates a new item immediately after [x] in the order.
    Amortized O(log n). *)

val insert_before : item -> item
(** [insert_before x] creates a new item immediately before [x]. [x] must
    not be the base item.
    @raise Invalid_argument if [x] is the base item. *)

val delete : item -> unit
(** Removes an item from the order. Comparing a deleted item is a
    programming error (checked: raises [Invalid_argument]). Deleting the
    base item raises [Invalid_argument]. *)

val compare : item -> item -> int
(** Total-order comparison. O(1). Items must belong to the same list.
    @raise Invalid_argument if either item was deleted. *)

val lt : item -> item -> bool
(** [lt a b] is [compare a b < 0], minus the liveness check: a bare tag
    comparison, for the settle path's order probes. Calling it on a
    deleted item is unspecified (use {!compare} when liveness is not
    guaranteed by construction). *)

val tag : item -> int
(** The item's current label: [lt a b] iff [tag a < tag b]. Labels move
    when an insertion relabels (see {!relabel_count}), so a label is a
    snapshot of the item's position, valid until the next relabel. Same
    contract as {!lt} on deleted items. *)

val length : t -> int
(** Number of live items (including the base item). O(1). *)

val relabel_count : t -> int
(** Total number of items moved by relabeling since creation; exposed for
    the E5/E6 bookkeeping benches. *)

val validate : t -> unit
(** Checks internal invariants (strictly increasing labels, consistent
    links); for tests.
    @raise Failure if an invariant is broken. *)
