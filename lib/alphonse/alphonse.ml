(** Alphonse: incremental computation as a programming abstraction.

    An OCaml reproduction of Hoover's PLDI 1992 system. Programs establish
    properties with plain exhaustive procedures; declaring them as
    {!Func}s — the [(*MAINTAINED*)]/[(*CACHED*)] pragmas — makes the
    runtime maintain them incrementally across mutations of tracked
    {!Var}s, by dynamic dependency analysis plus quiescence propagation
    and (non-combinator) function caching.

    Quickstart — the maintained-height tree of the paper's Algorithm 1:

    {[
      let eng = Alphonse.Engine.create () in
      (* tree with tracked child pointers *)
      let height = Alphonse.Func.create eng ~name:"height"
        (fun height t -> match t with
           | Nil -> 0
           | Node n -> 1 + max (Alphonse.Func.call height (Alphonse.Var.get n.left))
                               (Alphonse.Func.call height (Alphonse.Var.get n.right)))
      in
      ignore (Alphonse.Func.call height root);   (* O(n) first run       *)
      Alphonse.Var.set some_node.left subtree;   (* O(1) mutation        *)
      ignore (Alphonse.Func.call height root)    (* O(path) re-execution *)
    ]} *)

module Engine = Engine
module Var = Var
module Func = Func
module Policy = Policy
module Inspect = Inspect
module Telemetry = Telemetry
module Faults = Faults
module Json = Json
module Wal = Wal
module Durable = Durable
module Htbl = Htbl
module Metrics = Metrics
module Flight = Flight
module Serve = Serve
module Tenant = Tenant
module Daemon = Daemon
