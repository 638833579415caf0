(** Cache replacement policies for argument tables.

    §3.3: "Additional pragma arguments allow the specification of the
    caching technique, cache size, and the replacement algorithm." The
    capacity is a soft bound: only nodes with no live dependents may be
    evicted (see {!Engine.removable}), so a table whose entries are all
    depended upon is allowed to exceed its capacity rather than become
    unsound. *)

type t =
  | Unbounded  (** never evict (the default) *)
  | Lru of int  (** keep at most [n] entries, evicting least recently used *)
  | Fifo of int  (** keep at most [n] entries, evicting oldest first *)

let pp ppf = function
  | Unbounded -> Fmt.string ppf "unbounded"
  | Lru n -> Fmt.pf ppf "lru(%d)" n
  | Fifo n -> Fmt.pf ppf "fifo(%d)" n
