(** The incremental-correctness lint rules, built on {!Callgraph} and
    {!Effects}. Each rule flags a program whose incremental pragmas are
    statically suspect — code the engine will run, but whose maintained
    results can go stale, self-invalidate, cycle, or never run at all.

    The rules are deliberately conservative in the other direction from
    the analyses they lean on: effect sets are may-information, so every
    rule is a heuristic warning about a {e possible} hazard, except
    ALF003 whose identity-call cycles are guaranteed [Engine.Cycle]s if
    the cycle executes. All nine built-in samples lint clean. *)

open Lang.Ast
module Tc = Lang.Typecheck

let locs_str set =
  String.concat ", " (List.map Effects.loc_name (Effects.Locs.elements set))

let globals_of set =
  Effects.Locs.filter (function Effects.Global _ -> true | _ -> false) set

(* Visit every [(*UNCHECKED*)] expression of a procedure body. *)
let iter_unchecked (pd : proc_decl) f =
  iter_proc_body pd (fun ~target:_ e ->
      iter_expr
        (fun e ->
          match e.desc with
          | Unchecked inner -> f inner e.pos
          | _ -> ())
        e)

(* Position that declared [p] incremental: the pragma'd procedure, or
   the earliest METHODS/OVERRIDES entry binding it with a pragma. *)
let incr_anchor (env : Tc.env) p =
  match Hashtbl.find_opt env.procs p with
  | Some pd when pd.ppragma <> None -> pd.ppos
  | other ->
    let best = ref None in
    Hashtbl.iter
      (fun _ (ci : Tc.class_info) ->
        List.iter
          (fun (_, (mi : Tc.method_info)) ->
            if mi.mi_impl = p && mi.mi_pragma <> None then
              match !best with
              | Some b when (b.line, b.col) <= (mi.mi_pos.line, mi.mi_pos.col)
                -> ()
              | _ -> best := Some mi.mi_pos)
          ci.ci_methods)
      env.classes;
    (match (!best, other) with
    | Some pos, _ -> pos
    | None, Some pd -> pd.ppos
    | None, None -> no_pos)

let run (env : Tc.env) : Diag.t list =
  let eff = Effects.compute env in
  let callees = Callgraph.callees env in
  let incr = Callgraph.incremental_procs env in
  let incr_list =
    Hashtbl.fold (fun p _ acc -> p :: acc) incr [] |> List.sort compare
  in
  let union_over f =
    List.fold_left
      (fun acc p -> Effects.Locs.union acc (f (Effects.summary eff p)))
      Effects.Locs.empty incr_list
  in
  (* Everything incremental execution may read (the baseline tracked
     storage) and may write, transitively. *)
  let incr_reads = union_over (fun e -> e.Effects.reads) in
  let incr_writes = union_over (fun e -> e.Effects.writes) in
  (* Everything written anywhere: procedure bodies and the module body. *)
  let all_writes =
    List.fold_left
      (fun acc p -> Effects.Locs.union acc (Effects.direct eff p).Effects.writes)
      Effects.Locs.empty (Effects.procs eff)
  in
  let reach_incr = Callgraph.reachable callees incr_list in
  let reach_main = Callgraph.reachable callees [ Callgraph.main_name ] in
  let ds = ref [] in
  let emit d = ds := d :: !ds in

  (* ALF001 / ALF006 — (*UNCHECKED*) expressions inside code an
     incremental instance may run. The pragma masks dependency recording
     for the instance on the stack; in mutator-only code there is no
     instance, so nothing is pruned and nothing to flag. *)
  List.iter
    (fun (pd : proc_decl) ->
      if Hashtbl.mem reach_incr pd.pname then
        iter_unchecked pd (fun inner pos ->
            let e = Effects.expr_effect eff inner in
            let stale = Effects.Locs.inter e.Effects.reads incr_writes in
            if not (Effects.Locs.is_empty stale) then
              emit
                (Diag.make ~rule:"ALF001" ~pos
                   "UNCHECKED prunes dependencies on %s, which incremental \
                    code may write — the enclosing instance will not be \
                    invalidated by those writes"
                   (locs_str stale));
            let hidden = Effects.Locs.inter e.Effects.writes incr_reads in
            if not (Effects.Locs.is_empty hidden) then
              emit
                (Diag.make ~rule:"ALF006" ~pos
                   "UNCHECKED region may write tracked storage (%s) while \
                    dependency recording is masked"
                   (locs_str hidden))))
    env.m.procs;

  (* ALF002 — an incremental procedure whose transitive effects both
     read and write the same global self-invalidates. *)
  List.iter
    (fun p ->
      let s = Effects.summary eff p in
      let both =
        globals_of (Effects.Locs.inter s.Effects.reads s.Effects.writes)
      in
      if not (Effects.Locs.is_empty both) then
        emit
          (Diag.make ~rule:"ALF002" ~pos:(incr_anchor env p)
             "incremental procedure %s may both read and write %s — each \
              execution invalidates its own result"
             p (locs_str both)))
    incr_list;

  (* ALF003 — cycles of identity-argument calls between incremental
     procedures: the cycle re-enters the same argument-table entry, a
     guaranteed Engine.Cycle when it executes. *)
  let id_edges =
    List.filter
      (fun (cs : Callgraph.call_site) ->
        cs.cs_identity && Hashtbl.mem incr cs.cs_caller
        && Hashtbl.mem incr cs.cs_target)
      (Callgraph.call_sites env)
  in
  let id_adj = Hashtbl.create 8 in
  List.iter
    (fun (cs : Callgraph.call_site) ->
      let cur =
        Option.value ~default:[] (Hashtbl.find_opt id_adj cs.cs_caller)
      in
      if not (List.mem cs.cs_target cur) then
        Hashtbl.replace id_adj cs.cs_caller (cs.cs_target :: cur))
    id_edges;
  List.iter
    (fun (cs : Callgraph.call_site) ->
      let from_target = Callgraph.reachable id_adj [ cs.cs_target ] in
      if Hashtbl.mem from_target cs.cs_caller then
        emit
          (Diag.make ~rule:"ALF003" ~pos:cs.cs_pos
             "identity-argument call from %s to %s closes a cycle of \
              incremental calls over the same argument-table entry"
             cs.cs_caller cs.cs_target))
    id_edges;

  (* ALF004 — incremental procedures the module body can never reach:
     their argument tables stay empty forever. *)
  List.iter
    (fun p ->
      if not (Hashtbl.mem reach_main p) then
        emit
          (Diag.make ~rule:"ALF004" ~pos:(incr_anchor env p)
             "incremental procedure %s is unreachable from the module body \
              — its argument table can never be populated"
             p))
    incr_list;

  (* ALF005 — tracked storage nothing ever writes: dead dependencies,
     exactly what the effect-sharpened 6.1 analysis untracks. *)
  Effects.Locs.iter
    (fun l ->
      if not (Effects.Locs.mem l all_writes) then
        match l with
        | Effects.Global g -> (
          match List.find_opt (fun gd -> gd.gname = g) env.m.globals with
          | Some gd ->
            emit
              (Diag.make ~rule:"ALF005" ~pos:gd.gpos
                 "tracked global %s is never written — its dependency edges \
                  can never fire"
                 g)
          | None -> ())
        | Effects.Field f -> (
          let fpos =
            List.find_map
              (fun (td : type_decl) ->
                List.find_map
                  (fun (fd : field_decl) ->
                    if fd.fname = f then Some fd.fpos else None)
                  td.fields)
              env.m.types
          in
          match fpos with
          | Some pos ->
            emit
              (Diag.make ~rule:"ALF005" ~pos
                 "tracked field %s is never written — its dependency edges \
                  can never fire"
                 f)
          | None -> ())
        | Effects.Arrays -> ())
    incr_reads;

  Diag.sort !ds
