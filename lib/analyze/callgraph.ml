(** The interprocedural call graph of a checked Alphonse-L module.

    Method calls are resolved to {e every} implementation dynamic
    dispatch could select: all implementations found in the static
    receiver type's subtree (sound for our single-dispatch language —
    the same resolution rule the §6.1 analysis uses). The module body —
    the mutator — appears as the synthetic caller {!main_name}; global
    initializers run before the body, so their calls are attributed to
    it too.

    Every resolved call site also records whether it is an {e identity}
    call: one passing the caller's own parameters through, in order and
    unchanged. A cycle of identity calls between incremental procedures
    re-enters the same argument table entry and is a guaranteed
    [Engine.Cycle] at run time; the lint rule ALF003 is built on this
    classification. *)

open Lang.Ast
module Tc = Lang.Typecheck

let main_name = "<main>"

let subclasses (env : Tc.env) cls =
  Hashtbl.fold
    (fun name _ acc -> if Tc.is_subclass env name cls then name :: acc else acc)
    env.classes []

(** Every implementation a call [recv.m(…)] with static receiver type
    [cls] can dispatch to. *)
let dispatch_targets env cls mname =
  List.filter_map
    (fun sub -> Tc.lookup_method env sub mname)
    (subclasses env cls)

(** Does some dispatch target of this method carry a pragma? *)
let method_may_be_incremental env cls mname =
  List.exists
    (fun (mi : Tc.method_info) -> mi.mi_pragma <> None)
    (dispatch_targets env cls mname)

(** Implementing procedure ↦ its effective pragma: cached procedures
    plus the implementations bound by maintained/cached methods and
    overrides (pragma inheritance applied). *)
let incremental_procs (env : Tc.env) : (string, pragma) Hashtbl.t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (pd : proc_decl) ->
      match pd.ppragma with
      | Some p -> Hashtbl.replace tbl pd.pname p
      | None -> ())
    env.m.procs;
  Hashtbl.iter
    (fun _ (ci : Tc.class_info) ->
      List.iter
        (fun (_, (mi : Tc.method_info)) ->
          match mi.mi_pragma with
          | Some p -> Hashtbl.replace tbl mi.mi_impl p
          | None -> ())
        ci.ci_methods)
    env.classes;
  tbl

type call_site = {
  cs_caller : string;  (** procedure name, or {!main_name} *)
  cs_target : string;  (** resolved implementing procedure *)
  cs_pos : pos;
  cs_identity : bool;
      (** the full argument vector (receiver included for method calls)
          is exactly the caller's parameter list, in order *)
}

(* Is [args] (receiver consed on for method calls) the caller's own
   parameter vector, passed through verbatim? *)
let identity_args (params : (string * ty) list) args =
  List.length params = List.length args
  && List.for_all2
       (fun (pname, _) (a : expr) ->
         match a.desc with Var x -> x = pname && not a.note.is_global | _ -> false)
       params args

let call_sites (env : Tc.env) : call_site list =
  let sites = ref [] in
  let emit ~caller ~params e =
    let record target identity =
      if Hashtbl.mem env.procs target then
        sites :=
          { cs_caller = caller; cs_target = target; cs_pos = e.pos;
            cs_identity = identity }
          :: !sites
    in
    match e.desc with
    | Call (Cproc p, args) -> record p (identity_args params args)
    | Call (Cmethod (o, m), args) -> (
      match o.note.ty with
      | Some (Tobj cls) ->
        let identity = identity_args params (o :: args) in
        List.iter
          (fun (mi : Tc.method_info) -> record mi.mi_impl identity)
          (dispatch_targets env cls m)
      | _ -> ())
    | _ -> ()
  in
  let visit ~caller ~params ~target:_ e =
    iter_expr (emit ~caller ~params) e
  in
  List.iter
    (fun (pd : proc_decl) ->
      iter_proc_body pd (visit ~caller:pd.pname ~params:pd.params))
    env.m.procs;
  iter_main_body env.m (visit ~caller:main_name ~params:[]);
  List.rev !sites

(** Caller ↦ resolved direct callees (each listed once), including
    {!main_name}. *)
let callees (env : Tc.env) : (string, string list) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun cs ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt tbl cs.cs_caller) in
      if not (List.mem cs.cs_target cur) then
        Hashtbl.replace tbl cs.cs_caller (cs.cs_target :: cur))
    (call_sites env);
  tbl

(** Procedures reachable from the seeds (the seeds included, when they
    name real procedures or {!main_name}) over the resolved call
    graph. *)
let reachable (callees : (string, string list) Hashtbl.t) seeds :
    (string, unit) Hashtbl.t =
  let seen = Hashtbl.create 16 in
  let work = Queue.create () in
  let visit p =
    if not (Hashtbl.mem seen p) then begin
      Hashtbl.replace seen p ();
      Queue.add p work
    end
  in
  List.iter visit seeds;
  while not (Queue.is_empty work) do
    let p = Queue.pop work in
    List.iter visit (Option.value ~default:[] (Hashtbl.find_opt callees p))
  done;
  seen
