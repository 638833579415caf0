(** Interprocedural effect analysis: per-procedure may-read and
    may-write sets over the module's {e storage} — globals, record
    fields (by name, the §6.1 granularity), and array elements (one
    coarse [Arrays] location, matching the runtime's treatment).

    Local variables, parameters and FOR indices are stack storage; by
    the TOP restriction no incremental instance can retain dependencies
    on them, so they carry no effects. Calls are resolved through
    {!Callgraph} (method calls to every implementation in the static
    receiver's subtree) and the {e summary} sets close the direct sets
    over the call graph with a fixed point — [summary p] is everything
    an invocation of [p] may read or write, transitively.

    These are the static facts behind two consumers: the
    incremental-correctness linter ({!Lint}) and the sharpened §6.1
    instrumentation analysis in [Transform.Analysis], which downgrades
    tracked sites no incremental instance can observe. *)

open Lang.Ast
module Tc = Lang.Typecheck

type loc =
  | Global of string
  | Field of string  (** by field name — the §6.1 granularity *)
  | Arrays  (** all array elements, collapsed *)

let compare_loc (a : loc) (b : loc) = compare a b

module Locs = Set.Make (struct
  type t = loc

  let compare = compare_loc
end)

type eff = { reads : Locs.t; writes : Locs.t }

let empty_eff = { reads = Locs.empty; writes = Locs.empty }

let union_eff a b =
  { reads = Locs.union a.reads b.reads; writes = Locs.union a.writes b.writes }

let eff_equal a b = Locs.equal a.reads b.reads && Locs.equal a.writes b.writes

let main_name = Callgraph.main_name

type t = {
  env : Tc.env;
  direct : (string, eff) Hashtbl.t;
  summary : (string, eff) Hashtbl.t;
  callees : (string, string list) Hashtbl.t;
}

(* ------------------------------------------------------------------ *)
(* Direct effects of one procedure (or the module body)                *)
(* ------------------------------------------------------------------ *)

(* Reads performed while evaluating [e] (no local-variable effects;
   callee effects are NOT included here — the fixpoint adds them). A
   variable reference names storage when the type checker resolved it
   to a global. *)
let expr_reads acc e =
  let reads = ref acc in
  iter_expr
    (fun e ->
      match e.desc with
      | Var x ->
        if e.note.is_global then reads := Locs.add (Global x) !reads
      | Field (_, f) -> reads := Locs.add (Field f) !reads
      | Index _ -> reads := Locs.add Arrays !reads
      | _ -> ())
    e;
  !reads

(* Direct effects of one body, walked by [iter] ({!Lang.Ast.iter_proc_body}
   or {!Lang.Ast.iter_main_body}): an assignment's designator is a
   write, its subscripts and base pointers reads. *)
let direct_of_body (iter : visit -> unit) =
  let reads = ref Locs.empty and writes = ref Locs.empty in
  iter (fun ~target e ->
      let rd e = reads := expr_reads !reads e in
      if not target then rd e
      else
        match e.desc with
        | Var x ->
          if e.note.is_global then writes := Locs.add (Global x) !writes
        | Field (b, f) ->
          writes := Locs.add (Field f) !writes;
          rd b
        | Index (b, i) ->
          writes := Locs.add Arrays !writes;
          rd b;
          rd i
        | _ -> ());
  { reads = !reads; writes = !writes }

(* ------------------------------------------------------------------ *)
(* The fixed point                                                     *)
(* ------------------------------------------------------------------ *)

let compute (env : Tc.env) : t =
  let direct = Hashtbl.create 16 in
  List.iter
    (fun (pd : proc_decl) ->
      Hashtbl.replace direct pd.pname (direct_of_body (iter_proc_body pd)))
    env.m.procs;
  Hashtbl.replace direct main_name (direct_of_body (iter_main_body env.m));
  let callees = Callgraph.callees env in
  let summary = Hashtbl.copy direct in
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun p d ->
        let next =
          List.fold_left
            (fun acc q ->
              match Hashtbl.find_opt summary q with
              | Some s -> union_eff acc s
              | None -> acc)
            d
            (Option.value ~default:[] (Hashtbl.find_opt callees p))
        in
        if not (eff_equal next (Hashtbl.find summary p)) then begin
          Hashtbl.replace summary p next;
          changed := true
        end)
      direct
  done;
  { env; direct; summary; callees }

let direct t p = Option.value ~default:empty_eff (Hashtbl.find_opt t.direct p)

let summary t p =
  Option.value ~default:empty_eff (Hashtbl.find_opt t.summary p)

let callees t p = Option.value ~default:[] (Hashtbl.find_opt t.callees p)

let procs t =
  Hashtbl.fold (fun p _ acc -> p :: acc) t.direct [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Expression-level queries (the UNCHECKED rules)                      *)
(* ------------------------------------------------------------------ *)

(** Transitive effect of evaluating one expression: its own reads plus
    the summaries of every procedure it may call (expressions cannot
    write directly, so any writes come from callees). *)
let expr_effect t e =
  let acc = ref { reads = expr_reads Locs.empty e; writes = Locs.empty } in
  iter_expr
    (fun e ->
      let add_target p = acc := union_eff !acc (summary t p) in
      match e.desc with
      | Call (Cproc p, _) -> add_target p
      | Call (Cmethod (o, m), _) -> (
        match o.note.ty with
        | Some (Tobj cls) ->
          List.iter
            (fun (mi : Tc.method_info) -> add_target mi.mi_impl)
            (Callgraph.dispatch_targets t.env cls m)
        | _ -> ())
      | _ -> ())
    e;
  !acc

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let loc_name = function
  | Global g -> "global:" ^ g
  | Field f -> "field:" ^ f
  | Arrays -> "arrays"

let pp_loc ppf l = Fmt.string ppf (loc_name l)

let pp_locs ppf s =
  if Locs.is_empty s then Fmt.string ppf "-"
  else
    Fmt.(list ~sep:(any " ") pp_loc) ppf (Locs.elements s)

let pp_eff ppf e =
  Fmt.pf ppf "reads {%a} writes {%a}" pp_locs e.reads pp_locs e.writes
