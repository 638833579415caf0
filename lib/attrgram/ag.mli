(** Attribute grammars as Alphonse data types — paper §7.1.

    Each production instance is a heap object with a tracked parent
    pointer, tracked children, and tracked terminal fields; attributes
    are maintained methods keyed by node. Synthesized attributes look at
    children; inherited attributes dispatch on the parent production and
    child slot (the paper's single-method-with-context encoding). Because
    equation bodies read structure and other attributes through tracked
    operations, Alphonse discovers the attribute dependency graph
    dynamically — no grammar-class restriction and no static circularity
    analysis (the "subsumes grammar based languages" claim of §10). *)

type 'v node
(** A production instance carrying attribute/terminal values of type
    ['v]. *)

type 'v grammar
(** A grammar context: the engine plus a node allocator. *)

val node_equal : 'v node -> 'v node -> bool
val node_hash : 'v node -> int

val create : Alphonse.Engine.t -> 'v grammar
(** [create engine] makes a grammar whose attribute quiescence test is
    structural equality. *)

val engine : 'v grammar -> Alphonse.Engine.t

(** {1 Building trees} *)

val node :
  'v grammar ->
  prod:string ->
  ?terminals:(string * 'v) list ->
  'v node list ->
  'v node
(** [node g ~prod children] allocates a production instance and points
    the children's parent pointers at it. *)

val prod : 'v node -> string
val children : 'v node -> 'v node list

val child : 'v node -> int -> 'v node
(** @raise Invalid_argument if the slot does not exist. *)

val parent : 'v node -> 'v node option

val terminal : 'v node -> string -> 'v
(** Tracked read of a terminal field.
    @raise Invalid_argument if the production has no such terminal. *)

val set_terminal : 'v node -> string -> 'v -> unit

val index_in_parent : 'v node -> int option
(** The child slot this node occupies under its parent — the context
    dispatch of inherited attributes (the paper's "IF c = o.expl"). *)

(** {1 Tree edits (mutator operations)} *)

val set_child : 'v node -> int -> 'v node -> unit
(** Replace child [i], detaching the old child and re-pointing parents. *)

val insert_child : 'v node -> int -> 'v node -> unit
val remove_child : 'v node -> int -> unit

(** {1 Attributes} *)

type 'v attr
(** A declared attribute: one incremental procedure instance per node. *)

val attribute :
  ?strategy:Alphonse.Engine.strategy ->
  'v grammar ->
  name:string ->
  ('v node -> 'v) ->
  'v attr
(** [attribute g ~name body] declares an attribute whose equation [body]
    may read structure ({!children}, {!parent}, {!terminal}) and other
    attributes ({!eval}); all reads are tracked. *)

val eval : 'v attr -> 'v node -> 'v
(** Incremental evaluation of an attribute occurrence. *)

(** {1 Traversals} *)

val iter : ('v node -> unit) -> 'v node -> unit
(** Preorder traversal of the subtree. *)

val size : 'v node -> int
val pp : Format.formatter -> 'v node -> unit
