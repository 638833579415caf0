(** Incremental procedures: the [(*MAINTAINED*)] and [(*CACHED*)] pragmas.

    A [Func.t] is a procedure whose calls are incremental procedure
    instances (§3.3): each distinct argument gets a dependency-graph node
    and an argument-table entry caching its latest result (§4.2, the
    function-caching half of the system). Because every non-argument input
    is reached through {!Var} reads or nested {!call}s — which record
    dependency edges — the procedure need not be a combinator: it may read
    and even write global tracked state, the paper's extension of function
    caching.

    The same type implements both pragmas. A [CACHED] procedure is a pure
    function of its arguments and tracked reads; a [MAINTAINED] method
    additionally performs {!Var.set}s that re-establish its property (the
    writes are recorded as dependencies and re-applied on re-execution, per
    §4.3). The programmer's obligations are the paper's DET/TOP/OBS
    restrictions (§3.5): deterministic given identical formal and
    referenced arguments, no hidden untracked state, and eager-safe side
    effects.

    Recursive definitions receive the procedure itself as first parameter
    ({e open recursion}), so that inner calls are themselves incremental:

    {[
      let height =
        Func.create eng ~name:"height" (fun height t ->
          match t with
          | Leaf -> 0
          | Node n ->
            1 + max (Func.call height (Var.get n.left))
                    (Func.call height (Var.get n.right)))
    ]} *)

type ('a, 'b) t

val create :
  Engine.t ->
  ?name:string ->
  ?strategy:Engine.strategy ->
  ?policy:Policy.t ->
  ?hash_arg:('a -> int) ->
  ?equal_arg:('a -> 'a -> bool) ->
  ?equal_result:('b -> 'b -> bool) ->
  ?pp_key:('a -> string) ->
  (('a, 'b) t -> 'a -> 'b) ->
  ('a, 'b) t
(** [create engine body] declares an incremental procedure.

    - [strategy] defaults to the engine's default strategy.
    - [policy] is the cache replacement policy (default {!Policy.Unbounded}).
    - [hash_arg]/[equal_arg] index the argument table (defaults: a hash
      consistent with [( = )] and [( = )] itself, both answered without a
      C call for immediate values such as [int]; pass identity-based
      functions for object arguments, and a monomorphic pair for other
      structured keys on a hot path).
    - [equal_result] is the quiescence test on cached results (default
      [( = )], with the same immediate-value path): propagation stops at
      instances whose recomputed result is [equal_result] to the previous
      one.
    - [pp_key] names each instance ["fname(key)"] instead of ["fname"] in
      telemetry, profiles and DOT dumps, so the instances of one argument
      table are distinguishable. Observability only — never affects
      evaluation. *)

val call : ('a, 'b) t -> 'a -> 'b
(** Calls the procedure (Algorithm 5). Returns the cached result when the
    instance is consistent; otherwise (re)executes it, after propagating
    pending inconsistencies of its partition when called from the mutator.
    @raise Engine.Cycle if the instance (transitively) calls itself with
    the same argument. *)

val size : ('a, 'b) t -> int
(** Number of live argument-table entries. *)

val peek : ('a, 'b) t -> 'a -> 'b option
(** The cached result for an argument, if any — without executing,
    propagating, or recording dependencies. For tests and inspection; the
    value may be stale. *)

val node : ('a, 'b) t -> 'a -> Engine.node option
(** The dependency-graph node of an instance, if it exists. *)

val name : ('a, 'b) t -> string
val engine : ('a, 'b) t -> Engine.t
