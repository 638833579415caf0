(** Interprocedural call graph over a checked module: dynamic dispatch
    resolved to every implementation in the static receiver's subtree,
    the module body as the synthetic caller {!main_name}, and per-site
    identity-argument classification (the ALF003 ingredient). *)

val main_name : string
(** The synthetic caller standing for the module body (the mutator) and
    the global initializers. *)

val subclasses : Lang.Typecheck.env -> string -> string list
(** Every class in the subtree rooted at the given class (reflexive). *)

val dispatch_targets :
  Lang.Typecheck.env -> string -> string -> Lang.Typecheck.method_info list
(** Every implementation a call with the given static receiver class and
    method name can dispatch to. *)

val method_may_be_incremental : Lang.Typecheck.env -> string -> string -> bool
(** Does some dispatch target of this method carry a pragma? *)

val incremental_procs :
  Lang.Typecheck.env -> (string, Lang.Ast.pragma) Hashtbl.t
(** Implementing procedure ↦ its effective pragma (cached procedures and
    maintained/cached method implementations, override inheritance
    applied). *)

type call_site = {
  cs_caller : string;  (** procedure name, or {!main_name} *)
  cs_target : string;  (** resolved implementing procedure *)
  cs_pos : Lang.Ast.pos;
  cs_identity : bool;
      (** the full argument vector (receiver included for method calls)
          is exactly the caller's parameter list, in order — the call
          re-enters the same argument-table entry *)
}

val call_sites : Lang.Typecheck.env -> call_site list
(** Every resolved call site of the module, in program order; method
    calls contribute one site per dispatch target. *)

val callees : Lang.Typecheck.env -> (string, string list) Hashtbl.t
(** Caller ↦ resolved direct callees, deduplicated. *)

val reachable :
  (string, string list) Hashtbl.t -> string list -> (string, unit) Hashtbl.t
(** [reachable (callees env) seeds] — procedures reachable from the
    seeds (inclusive) over the resolved call graph. *)
