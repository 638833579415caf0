(** Deterministic fault injection for the engine.

    The engine pokes its installed fault hook at every decision point
    ({!Engine.fault_sites}); a hook that raises models a crash there. The
    injectors here are deterministic — counted, or seeded with splitmix64
    — so any failing schedule replays from its seed. The test harness
    ([test/test_faults.ml]) sweeps them over every site and asserts that
    the invariant auditor passes after recovery and that a subsequent
    settle converges to the exhaustive-specification values. *)

exception Injected of string
(** The injected fault; the payload is the engine site it fired at. *)

exception Killed of string
(** A simulated process death, raised by hooks built with {!kill_nth}.
    Unlike {!Injected} (an in-process fault the engine recovers from),
    [Killed] means the harness abandons all in-memory state and
    recovers from disk — the payload is the durability site it fired
    at ({!Wal.kill_sites}, {!Durable.kill_sites}). *)

val sites : string list
(** = {!Engine.fault_sites}. *)

val kill_nth : ?only:string -> int -> (string -> unit) * bool ref
(** [kill_nth ?only n] builds a one-shot hook raising {!Killed} at the
    [n]-th poke (1-based; restricted to site [only] when given),
    engine-independent so the durability layer can host it. The
    returned flag reports whether it fired. *)

val counting_hook : unit -> (string -> unit) * (unit -> (string * int) list)
(** [counting_hook ()] builds a never-raising hook that counts pokes
    per site, plus a function reading the counts (sorted by site).
    The engine-independent counterpart of {!count}. *)

val clear : Engine.t -> unit
(** Removes any installed hook. *)

val count : Engine.t -> (unit -> 'a) -> 'a * (string * int) list
(** [count eng f] runs [f] under a counting (never-raising) hook and
    returns its result with the per-site poke counts, sorted by site.
    The previously installed hook is restored afterwards. *)

val total : (string * int) list -> int
(** Sum of the counts. *)

val inject_nth : Engine.t -> ?only:string -> int -> bool ref
(** [inject_nth eng ?only n] installs a one-shot hook raising
    {!Injected} at the [n]-th poke (1-based; restricted to site [only]
    when given). The returned flag reports whether it fired — a sweep
    uses it to detect walking past the end of a run. *)

val install_seeded :
  Engine.t -> seed:int -> ?rate:float -> unit -> int ref
(** [install_seeded eng ~seed ()] installs a deterministic pseudo-random
    injector: each poke independently raises {!Injected} with
    probability [rate] (default 0.01), drawn from a splitmix64 stream
    seeded with [seed]. Returns the count of faults fired so far. *)

val pick : seed:int -> (string * int) list -> int -> (string * int) list
(** [pick ~seed counts n] draws [n] deterministic injection points
    [(site, k)] — "the [k]-th poke of [site]" — from observed per-site
    counts (telemetry-driven site selection), weighted by frequency.
    Replay each with {!inject_nth}. *)
