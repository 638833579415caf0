(** Interprocedural effect analysis: per-procedure may-read / may-write
    sets over the module's storage — globals, record fields (by name, the
    §6.1 granularity), and array elements (one coarse location). Summary
    sets close the direct sets over the {!Callgraph}-resolved call graph
    with a fixed point. *)

type loc =
  | Global of string
  | Field of string  (** by field name — the §6.1 granularity *)
  | Arrays  (** all array elements, collapsed *)

module Locs : Set.S with type elt = loc

type eff = { reads : Locs.t; writes : Locs.t }

val empty_eff : eff
val union_eff : eff -> eff -> eff

type t

val main_name : string
(** Re-export of {!Callgraph.main_name}: the module body + global
    initializers appear as this synthetic procedure. *)

val compute : Lang.Typecheck.env -> t
(** Direct effects of every procedure (and {!main_name}), then the
    transitive-closure fixed point over the resolved call graph. The
    environment must come from {!Lang.Typecheck.check}: a variable
    names storage exactly when the checker noted it [is_global]. *)

val direct : t -> string -> eff
(** Storage the procedure's own body may touch (callees excluded). *)

val summary : t -> string -> eff
(** Storage an invocation may touch, transitively through calls. *)

val callees : t -> string -> string list
val procs : t -> string list
(** All analyzed procedure names ({!main_name} included), sorted. *)

val expr_effect : t -> Lang.Ast.expr -> eff
(** Transitive effect of evaluating one expression: its own reads plus
    the summaries of every procedure it may call. *)

val loc_name : loc -> string
val pp_loc : loc Fmt.t
val pp_locs : Locs.t Fmt.t
val pp_eff : eff Fmt.t
