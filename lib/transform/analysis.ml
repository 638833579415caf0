(** Static analysis for the Alphonse transformation.

    {b Limiting runtime checks (§6.1).} The uniform insertion of
    access/modify/call tests would tax every operation in the program; the
    paper uses dataflow analysis to identify the sites where the test's
    outcome is statically known. Here:

    - Local variables, parameters and FOR indices are stack storage; by
      the TOP restriction no Alphonse procedure can retain dependencies
      on them, so they are never instrumented.
    - A {e global}, a {e field} (by name) or the array pool is
      instrumented only if some incremental instance can observe a
      change to it: it is in the effect summary reads of an incremental
      procedure {e and} in the direct writes of some procedure or the
      module body. A location never written cannot invalidate, and one
      no incremental execution reads acquires no edges for a write to
      fire. Pass [~sharpen:false] for the baseline: everything the
      incremental procedures' summaries read or write.
    - A {e call site} is instrumented only if its static callee — or, for
      method calls, {e any} override that dynamic dispatch could select —
      is a maintained or cached procedure.

    The storage facts are [Analyze.Effects]' alone (its summaries close
    the direct effects over the [Analyze.Callgraph] call graph, method
    calls resolved to every implementation in the static receiver
    type's subtree); this module only marks the sites, walking them with
    [Lang.Ast.iter_proc_body]/[iter_main_body].

    {b Static graph partitioning (§6.3).} [connectivity] builds the type
    connectivity graph (an edge when one object type has a pointer field
    that can reach another) augmented with globals and incremental
    procedures, and returns its connected components — the static
    partition assignment the paper uses to seed the dynamic union–find
    refinement. The runtime engine's union–find subsumes it for
    correctness; the component report is exposed for diagnostics
    ([alphonsec analyze]). *)

open Lang.Ast
module Tc = Lang.Typecheck

type site_stats = {
  tracked_reads : int;
  untracked_reads : int;
  tracked_writes : int;
  untracked_writes : int;
  tracked_calls : int;
  untracked_calls : int;
}

type result = {
  incremental_procs : (string, pragma) Hashtbl.t;
      (** implementing procedure ↦ its effective pragma *)
  reachable_procs : (string, unit) Hashtbl.t;
  tracked_globals : (string, unit) Hashtbl.t;
  tracked_fields : (string, unit) Hashtbl.t;
  arrays_tracked : bool;
      (** array element accesses are instrumented (coarse: elements are
          not distinguished by which array they belong to) *)
  stats : site_stats;
}

(* ------------------------------------------------------------------ *)
(* The analysis                                                        *)
(* ------------------------------------------------------------------ *)

module E = Analyze.Effects

let analyze ?(sharpen = true) (env : Tc.env) : result =
  let m = env.m in
  (* 1. the incremental procedures and the code they may run *)
  let incremental_procs = Analyze.Callgraph.incremental_procs env in
  let seeds = Hashtbl.fold (fun p _ acc -> p :: acc) incremental_procs [] in
  let reachable_procs =
    Analyze.Callgraph.reachable (Analyze.Callgraph.callees env) seeds
  in
  (* 2. the tracked storage (see the header) *)
  let eff = E.compute env in
  let incr_summary =
    List.fold_left (fun acc p -> E.union_eff acc (E.summary eff p)) E.empty_eff
      seeds
  in
  let tracked =
    if sharpen then
      let all_writes =
        List.fold_left
          (fun acc p -> E.Locs.union acc (E.direct eff p).E.writes)
          E.Locs.empty (E.procs eff)
      in
      E.Locs.inter incr_summary.E.reads all_writes
    else E.Locs.union incr_summary.E.reads incr_summary.E.writes
  in
  let tracked_globals = Hashtbl.create 8 in
  let tracked_fields = Hashtbl.create 8 in
  E.Locs.iter
    (function
      | E.Global g -> Hashtbl.replace tracked_globals g ()
      | E.Field f -> Hashtbl.replace tracked_fields f ()
      | E.Arrays -> ())
    tracked;
  let arrays_tracked = E.Locs.mem E.Arrays tracked in
  (* 3. mark every site in the module *)
  let tr = ref 0 and ur = ref 0 and tw = ref 0 and uw = ref 0 in
  let tc = ref 0 and uc = ref 0 in
  let mark_call e =
    match e.desc with
    | Call (Cproc "Print", _) ->
      e.note.tracked <- false;
      incr uc
    | Call (Cproc p, _) ->
      e.note.tracked <- Hashtbl.mem incremental_procs p;
      if e.note.tracked then incr tc else incr uc
    | Call (Cmethod (o, mname), _) ->
      (e.note.tracked <-
        (match o.note.ty with
        | Some (Tobj cls) ->
          Analyze.Callgraph.method_may_be_incremental env cls mname
        | _ -> true));
      if e.note.tracked then incr tc else incr uc
    | _ -> ()
  in
  let mark ~target d =
    iter_expr
      (fun e ->
        let site tracked =
          e.note.tracked <- tracked;
          (* an assignment's designator is a write site, not a read *)
          if target && e == d then if tracked then incr tw else incr uw
          else if tracked then incr tr
          else incr ur
        in
        match e.desc with
        | Var x -> site (e.note.is_global && Hashtbl.mem tracked_globals x)
        | Field (_, f) -> site (Hashtbl.mem tracked_fields f)
        | Index _ -> site arrays_tracked
        | Call _ -> mark_call e
        | _ -> ())
      d
  in
  List.iter (fun pd -> iter_proc_body pd mark) m.procs;
  iter_main_body m mark;
  {
    incremental_procs;
    reachable_procs;
    tracked_globals;
    tracked_fields;
    arrays_tracked;
    stats =
      {
        tracked_reads = !tr;
        untracked_reads = !ur;
        tracked_writes = !tw;
        untracked_writes = !uw;
        tracked_calls = !tc;
        untracked_calls = !uc;
      };
  }

let pp_stats ppf (s : site_stats) =
  Fmt.pf ppf
    "@[<v>reads:  %d tracked / %d untracked@,\
     writes: %d tracked / %d untracked@,\
     calls:  %d tracked / %d untracked@]"
    s.tracked_reads s.untracked_reads s.tracked_writes s.untracked_writes
    s.tracked_calls s.untracked_calls

(* ------------------------------------------------------------------ *)
(* Static connectivity partitioning (§6.3)                             *)
(* ------------------------------------------------------------------ *)

(** Connected components of the type connectivity graph, extended with
    tracked globals (by their types) and incremental procedures (by the
    types they mention). Returns a map from component member name —
    ["type:T"], ["global:g"], ["proc:p"] — to a component id. *)
let connectivity (env : Tc.env) (r : result) : (string * int) list =
  let module Uf = Depgraph.Union_find in
  let eff = E.compute env in
  let elts : (string, int Uf.elt) Hashtbl.t = Hashtbl.create 16 in
  let elt name =
    match Hashtbl.find_opt elts name with
    | Some e -> e
    | None ->
      (* the creation index doubles as the component id: union keeps the
         surviving root's payload *)
      let e = Uf.make (Hashtbl.length elts) in
      Hashtbl.replace elts name e;
      e
  in
  let link a b = ignore (Uf.union ~merge:(fun x _ -> x) (elt a) (elt b)) in
  (* type ↦ type edges through object-typed fields *)
  Hashtbl.iter
    (fun tname (ci : Tc.class_info) ->
      ignore (elt ("type:" ^ tname));
      (match ci.ci_super with
      | Some s -> link ("type:" ^ tname) ("type:" ^ s)
      | None -> ());
      List.iter
        (fun (_, fty) ->
          let rec go = function
            | Tobj t2 -> link ("type:" ^ tname) ("type:" ^ t2)
            | Tarray (_, _, t) -> go t
            | Tint | Tbool | Ttext -> ()
          in
          go fty)
        ci.ci_fields)
    env.classes;
  (* globals attach to their type's component (arrays via their base
     element type) *)
  let rec base_ty = function
    | Tarray (_, _, t) -> base_ty t
    | (Tint | Tbool | Ttext | Tobj _) as t -> t
  in
  Hashtbl.iter
    (fun g _ ->
      match Option.map base_ty (Hashtbl.find_opt env.globals g) with
      | Some (Tobj t) -> link ("global:" ^ g) ("type:" ^ t)
      | Some _ -> ignore (elt ("global:" ^ g))
      | None -> ())
    r.tracked_globals;
  (* incremental procedures attach to every object type they mention *)
  Hashtbl.iter
    (fun pname _ ->
      match Hashtbl.find_opt env.procs pname with
      | None -> ()
      | Some pd ->
        ignore (elt ("proc:" ^ pname));
        List.iter
          (fun (_, t) ->
            match base_ty t with
            | Tobj tn -> link ("proc:" ^ pname) ("type:" ^ tn)
            | Tint | Tbool | Ttext | Tarray _ -> ())
          pd.params;
        let d = E.direct eff pname in
        E.Locs.iter
          (function
            | E.Global g when Hashtbl.mem r.tracked_globals g ->
              link ("proc:" ^ pname) ("global:" ^ g)
            | E.Global _ | E.Field _ | E.Arrays -> ())
          (E.Locs.union d.E.reads d.E.writes))
    r.incremental_procs;
  Hashtbl.fold (fun name e acc -> (name, Uf.payload e) :: acc) elts []
  |> List.sort compare
