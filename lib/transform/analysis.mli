(** Static analysis for the Alphonse transformation.

    {b Limiting runtime checks (§6.1).} {!analyze} decides which program
    sites need the access/modify/call instrumentation at all. The
    storage facts come from [Analyze.Effects] alone: a global, field or
    the array pool is tracked when an incremental procedure's summary
    reads it and some procedure or the module body writes it. Locals,
    parameters and FOR indices are never instrumented (stack storage,
    per the TOP restriction); a call site is instrumented only if its
    resolved target may carry a pragma. This module only marks the
    sites, into the AST [note] fields that {!Incr_interp} and
    [Lang.Pretty.pp_module ~marks:true] consult.

    {b Static graph partitioning (§6.3).} {!connectivity} reports the
    connected components of the type connectivity graph — the static
    partition seed the paper describes; the engine's dynamic union–find
    refinement subsumes it for correctness. *)

type site_stats = {
  tracked_reads : int;
  untracked_reads : int;
  tracked_writes : int;
  untracked_writes : int;
  tracked_calls : int;
  untracked_calls : int;
}
(** Storage and call sites by instrumentation. An assignment's
    designator is one write site; its subscripts and base pointers are
    read sites. *)

type result = {
  incremental_procs : (string, Lang.Ast.pragma) Hashtbl.t;
      (** implementing procedure ↦ its effective pragma *)
  reachable_procs : (string, unit) Hashtbl.t;
      (** procedures reachable from incremental code (including it) *)
  tracked_globals : (string, unit) Hashtbl.t;
  tracked_fields : (string, unit) Hashtbl.t;
  arrays_tracked : bool;
      (** array element accesses are instrumented (coarse: elements are
          not distinguished per array) *)
  stats : site_stats;
}

val analyze : ?sharpen:bool -> Lang.Typecheck.env -> result
(** Run the analysis and mark every site note in the module. With
    [sharpen] (the default), the tracked storage is the incremental
    procedures' summary reads that some code may write — otherwise no
    instance can ever observe a change there and the instrumentation is
    dropped. [~sharpen:false] tracks everything the incremental
    procedures' summaries read or write. *)

val pp_stats : Format.formatter -> site_stats -> unit

val connectivity : Lang.Typecheck.env -> result -> (string * int) list
(** Static partition components over ["type:T"], ["global:g"] and
    ["proc:p"] members; equal ids mean one component. Sorted by name. *)
