(** Static analysis for the Alphonse transformation.

    {b Limiting runtime checks (§6.1).} The uniform insertion of
    access/modify/call tests would tax every operation in the program; the
    paper uses dataflow analysis to identify the sites where the test's
    outcome is statically known. Here:

    - Local variables and parameters are stack storage; by the TOP
      restriction no Alphonse procedure can retain dependencies on them,
      so they are never instrumented.
    - A {e global} is instrumented only if some procedure reachable from
      an incremental procedure may access it.
    - A {e field} is instrumented only if reachable incremental code may
      access a field of that name.
    - A {e call site} is instrumented only if its static callee — or, for
      method calls, {e any} override that dynamic dispatch could select —
      is a maintained or cached procedure.

    The analysis is a reachability fixed point over the call graph, with
    method calls resolved to every implementation in the static receiver
    type's subtree (sound for our single-dispatch language), {e sharpened}
    by the interprocedural effect analysis of [Analyze.Effects]: a
    location accessed by reachable incremental code is still untracked
    when no incremental instance can ever observe a change to it — it is
    never written anywhere, or never (transitively) read by an
    incremental procedure. Pass [~sharpen:false] for the pure
    reachability analysis.

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
      (** some procedure reachable from incremental code subscripts an
          array; element accesses are then instrumented (coarse: elements
          are not distinguished by which array they belong to) *)
  stats : site_stats;
}

(* Iterate over the direct callees (procedure names) and accessed
   globals/fields of one procedure body. *)
let iter_proc_accesses env (pd : proc_decl) ~on_call ~on_global ~on_field
    ~on_array =
  let locals = Hashtbl.create 8 in
  List.iter (fun (n, _) -> Hashtbl.replace locals n ()) pd.params;
  List.iter (fun l -> Hashtbl.replace locals l.lname ()) pd.locals;
  let rec expr e =
    (match e.desc with
    | Var x -> if not (Hashtbl.mem locals x) then on_global x
    | Field (_, f) -> on_field f
    | Index _ -> on_array ()
    | Call (Cproc p, _) -> on_call p
    | Call (Cmethod (o, m), _) -> (
      match o.note.ty with
      | Some (Tobj cls) ->
        List.iter
          (fun (mi : Tc.method_info) -> on_call mi.mi_impl)
          (Analyze.Callgraph.dispatch_targets env cls m)
      | _ -> ())
    | Int _ | Bool _ | Text _ | Nil | New _ | Binop _ | Unop _ | Unchecked _
      ->
      ());
    match e.desc with
    | Field (b, _) -> expr b
    | Index (b, i) ->
      expr b;
      expr i
    | Call (callee, args) ->
      (match callee with Cmethod (o, _) -> expr o | Cproc _ -> ());
      List.iter expr args
    | Binop (_, a, b) ->
      expr a;
      expr b
    | Unop (_, a) | Unchecked a -> expr a
    | Int _ | Bool _ | Text _ | Nil | Var _ | New _ -> ()
  in
  let rec stmt s =
    match s.sdesc with
    | Assign (d, e) ->
      (match d.desc with
      | Var x -> if not (Hashtbl.mem locals x) then on_global x
      | Field (b, f) ->
        on_field f;
        expr b
      | Index (b, i) ->
        on_array ();
        expr b;
        expr i
      | _ -> ());
      expr e
    | Call_stmt e -> expr e
    | If (branches, els) ->
      List.iter
        (fun (c, body) ->
          expr c;
          List.iter stmt body)
        branches;
      List.iter stmt els
    | While (c, body) ->
      expr c;
      List.iter stmt body
    | Repeat (body, c) ->
      List.iter stmt body;
      expr c
    | For (v, a, b, body) ->
      Hashtbl.replace locals v ();
      expr a;
      expr b;
      List.iter stmt body
    | Return (Some e) -> expr e
    | Return None -> ()
  in
  List.iter (fun l -> Option.iter expr l.linit) pd.locals;
  List.iter stmt pd.body

(* ------------------------------------------------------------------ *)
(* The analysis                                                        *)
(* ------------------------------------------------------------------ *)

let analyze ?(sharpen = true) (env : Tc.env) : result =
  let m = env.m in
  (* 1. the incremental procedures: cached procs + maintained impls *)
  let incremental_procs = Analyze.Callgraph.incremental_procs env in
  (* 2. reachability from incremental procedures *)
  let reachable_procs = Hashtbl.create 16 in
  let work = Queue.create () in
  Hashtbl.iter
    (fun p _ ->
      Hashtbl.replace reachable_procs p ();
      Queue.add p work)
    incremental_procs;
  let tracked_globals = Hashtbl.create 8 in
  let tracked_fields = Hashtbl.create 8 in
  let arrays_tracked = ref false in
  while not (Queue.is_empty work) do
    let pname = Queue.pop work in
    match Hashtbl.find_opt env.procs pname with
    | None -> ()
    | Some pd ->
      iter_proc_accesses env pd
        ~on_call:(fun callee ->
          if
            (not (Hashtbl.mem reachable_procs callee))
            && Hashtbl.mem env.procs callee
          then begin
            Hashtbl.replace reachable_procs callee ();
            Queue.add callee work
          end)
        ~on_global:(fun g -> Hashtbl.replace tracked_globals g ())
        ~on_field:(fun f -> Hashtbl.replace tracked_fields f ())
        ~on_array:(fun () -> arrays_tracked := true)
  done;
  (* 2b. sharpen with the interprocedural effect analysis: a location
     needs instrumentation only if some incremental instance can observe
     a change to it — i.e. it is (transitively) READ by an incremental
     procedure AND WRITTEN somewhere in the program. A never-written
     location cannot invalidate (initializers run before any instance
     exists), and a location no incremental execution reads acquires no
     dependency edges for a write to fire. The reachability sets of step
     2 use accesses (reads or writes), so this strictly shrinks them. *)
  if sharpen then begin
    let module E = Analyze.Effects in
    let eff = E.compute env in
    let incr_reads =
      Hashtbl.fold
        (fun p _ acc -> E.Locs.union acc (E.summary eff p).E.reads)
        incremental_procs E.Locs.empty
    in
    let all_writes =
      List.fold_left
        (fun acc p -> E.Locs.union acc (E.direct eff p).E.writes)
        E.Locs.empty (E.procs eff)
    in
    let keep l = E.Locs.mem l incr_reads && E.Locs.mem l all_writes in
    let drop_unless mk tbl =
      let dead =
        Hashtbl.fold (fun k () acc -> if keep (mk k) then acc else k :: acc)
          tbl []
      in
      List.iter (Hashtbl.remove tbl) dead
    in
    drop_unless (fun g -> E.Global g) tracked_globals;
    drop_unless (fun f -> E.Field f) tracked_fields;
    arrays_tracked := !arrays_tracked && keep E.Arrays
  end;
  let arrays_tracked = !arrays_tracked in
  (* 3. mark every site in the module *)
  let tr = ref 0 and ur = ref 0 and tw = ref 0 and uw = ref 0 in
  let tc = ref 0 and uc = ref 0 in
  let mark_read e =
    match e.desc with
    | Var x ->
      e.note.tracked <- e.note.is_global && Hashtbl.mem tracked_globals x;
      if e.note.tracked then incr tr else incr ur
    | Field (_, f) ->
      e.note.tracked <- Hashtbl.mem tracked_fields f;
      if e.note.tracked then incr tr else incr ur
    | Index _ ->
      e.note.tracked <- arrays_tracked;
      if e.note.tracked then incr tr else incr ur
    | _ -> ()
  in
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
  iter_exprs
    (fun e ->
      match e.desc with
      | Var _ | Field _ | Index _ -> mark_read e
      | Call _ -> mark_call e
      | _ -> ())
    m;
  (* writes: assignment designators *)
  let mark_write d =
    (match d.desc with
    | Var x ->
      d.note.tracked <- d.note.is_global && Hashtbl.mem tracked_globals x
    | Field (_, f) -> d.note.tracked <- Hashtbl.mem tracked_fields f
    | Index _ -> d.note.tracked <- arrays_tracked
    | _ -> ());
    if d.note.tracked then incr tw else incr uw
  in
  let rec stmt s =
    match s.sdesc with
    | Assign (d, _) -> mark_write d
    | If (branches, els) ->
      List.iter (fun (_, body) -> List.iter stmt body) branches;
      List.iter stmt els
    | While (_, body) | Repeat (body, _) | For (_, _, _, body) ->
      List.iter stmt body
    | Call_stmt _ | Return _ -> ()
  in
  List.iter
    (fun (pd : proc_decl) -> List.iter stmt pd.body)
    m.procs;
  List.iter stmt m.main;
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
        iter_proc_accesses env pd
          ~on_call:(fun _ -> ())
          ~on_global:(fun g ->
            if Hashtbl.mem r.tracked_globals g then
              link ("proc:" ^ pname) ("global:" ^ g))
          ~on_field:(fun _ -> ())
          ~on_array:(fun () -> ()))
    r.incremental_procs;
  Hashtbl.fold (fun name e acc -> (name, Uf.payload e) :: acc) elts []
  |> List.sort compare
