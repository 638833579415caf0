(** Closure-parameterized hash table.

    The argument tables of §4.2 are keyed by user argument vectors whose
    hashing and equality the programmer supplies per procedure (object
    arguments compare by identity, value arguments structurally). A functor
    would force a module per call site; closures keep {!Func.create} a
    one-liner. Open addressing (linear probing) over one flat slot
    array, power-of-two capacities, growth at load factor 1/2 — [find]
    is on the hot path of every incremental call and pays one array
    read plus one compare per probe. *)

type ('k, 'v) t

val create :
  hash:('k -> int) -> equal:('k -> 'k -> bool) -> unit -> ('k, 'v) t
(** An empty table of 16 slots. *)

val length : ('k, 'v) t -> int
val find : ('k, 'v) t -> 'k -> 'v
(** The value bound to a key. Allocates nothing.
    @raise Not_found if the key is unbound. *)

val find_opt : ('k, 'v) t -> 'k -> 'v option

val hash_int : int -> int
(** A non-negative integer hash whose low bits depend on every bit of
    the input — for [hash] functions over integer keys. *)

val poly_equal : 'a -> 'a -> bool
(** [( = )], answered without a C call when both values are immediate
    ([int], [char], [bool], constant constructors). Every answer is
    [( = )]'s, NaN included. The default key and result equality of
    {!Func.create} and the default of {!Var.create}. *)

val poly_hash : 'a -> int
(** A hash consistent with {!poly_equal}: {!hash_int} on immediate
    values, [Hashtbl.hash] otherwise. The default key hash of
    {!Func.create}. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Adds a binding. The key must be absent (argument tables never rebind);
    checked in debug: a duplicate add raises [Invalid_argument]. *)

val remove : ('k, 'v) t -> 'k -> unit
(** Removes the binding if present. *)

val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit
val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc
val clear : ('k, 'v) t -> unit
