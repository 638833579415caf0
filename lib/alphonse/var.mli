(** Tracked mutable storage — the abstract locations of §4.3.

    A [Var.t] is an ordinary mutable cell whose reads and writes follow the
    [access]/[modify] templates (Algorithms 3 and 4): the first read made
    {e during the execution of an incremental procedure} materializes a
    dependency-graph node for the cell; thereafter reads record dependency
    edges and writes mark the node inconsistent when the value changes.

    A cell that is never read by an incremental procedure carries no node
    and costs one branch per operation — the fast path that §6.1 obtains by
    static analysis falls out of the representation here. *)

type 'a t

val create :
  Engine.t -> ?name:string -> ?equal:('a -> 'a -> bool) -> 'a -> 'a t
(** [create engine v] is a tracked cell holding [v]. [equal] (default
    [( = )], as {!Htbl.poly_equal}) is the change test of Algorithm 4: a
    write of an [equal] value propagates nothing. [name] labels the cell in {!Inspect} output. *)

val get : 'a t -> 'a
(** Current contents; records a dependency for the executing incremental
    procedure, if any ([access]). *)

val set : 'a t -> 'a -> unit
(** Replaces the contents ([modify]); if the cell is tracked and the value
    changed, dependents become inconsistent and are re-established per
    their evaluation strategies. *)

val update : 'a t -> ('a -> 'a) -> unit
(** [update v f] is [set v (f (get v))]. *)

val name : 'a t -> string

val is_tracked : 'a t -> bool
(** Whether any incremental procedure ever read this cell (i.e. a
    dependency node exists). *)

val node : 'a t -> Engine.node option
(** The cell's dependency-graph node, for tests and {!Inspect}. *)

val id : 'a t -> int option
(** The cell's node id, if tracked — the id telemetry events carry, for
    correlating {!Telemetry} streams with cells. *)

val engine : 'a t -> Engine.t
