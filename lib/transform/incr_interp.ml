(** The Alphonse execution of a transformed program (§5, §8).

    This interpreter executes the same AST as [Lang.Interp] but with the
    three transformation templates realized against the incremental
    engine:

    - a read of tracked storage is [access] (Algorithm 3): the first read
      made under an executing incremental procedure materializes a
      dependency node for the location, and subsequent reads record
      edges;
    - a write of tracked storage is [modify] (Algorithm 4): a dependency
      is recorded for the writer and, when the value changed, the
      location is marked inconsistent;
    - a call whose resolved target is a maintained or cached procedure is
      [call] (Algorithm 5): it goes through the target's argument table,
      propagating pending inconsistencies and re-executing only when the
      instance is inconsistent.

    Storage↔node correspondence uses side tables keyed by global name and
    by (object id, field name) — the paper's "at the expense of a level
    of indirection" variant of nodeptr fields (§5). Which sites are
    instrumented at all comes from {!Analysis} (§6.1); whether a call is
    incremental is decided from the dynamically dispatched target's
    pragma, exactly like the paper's [tableptr(p) # NIL] test. *)

open Lang.Ast
open Lang.Value
module Tc = Lang.Typecheck
module Engine = Alphonse.Engine
module Func = Alphonse.Func
module Policy = Alphonse.Policy

exception Runtime_error = Lang.Interp.Runtime_error

exception Return_value of value option

(* the runtime error and the value coercions of the reference
   interpreter, so both report the same errors *)
let error = Lang.Interp.error
let obj_of = Lang.Interp.obj_of
let int_of = Lang.Interp.int_of
let bool_of = Lang.Interp.bool_of
let text_of = Lang.Interp.text_of
let arr_of = Lang.Interp.arr_of
let elem_slot = Lang.Interp.elem_slot

type state = {
  env : Tc.env;
  analysis : Analysis.result;
  eng : Engine.t;
  globals : (string, value ref) Hashtbl.t;
  global_nodes : (string, Engine.node) Hashtbl.t;
  field_nodes : (int * string, Engine.node) Hashtbl.t;
  elem_nodes : (int * int, Engine.node) Hashtbl.t;
      (** array-element storage nodes, keyed by (array id, index) *)
  funcs : (string, (value list, value option) Func.t) Hashtbl.t;
      (** argument tables, one per incremental implementing procedure *)
  out : Buffer.t;
  mutable next_oid : int;
  mutable steps : int;
  fuel : int option;
}

let tick st pos =
  st.steps <- st.steps + 1;
  match st.fuel with
  | Some fuel when st.steps > fuel -> error pos "out of fuel (%d steps)" fuel
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Storage nodes (Algorithms 3 and 4)                                  *)
(* ------------------------------------------------------------------ *)

let global_node st x =
  match Hashtbl.find_opt st.global_nodes x with
  | Some n -> n
  | None ->
    let n = Engine.new_storage st.eng ~name:("global:" ^ x) in
    Hashtbl.replace st.global_nodes x n;
    n

let field_node st o f =
  match Hashtbl.find_opt st.field_nodes (o.oid, f) with
  | Some n -> n
  | None ->
    let n =
      Engine.new_storage st.eng ~name:(Fmt.str "%s#%d.%s" o.cls o.oid f)
    in
    Hashtbl.replace st.field_nodes (o.oid, f) n;
    n

let elem_node st a idx =
  match Hashtbl.find_opt st.elem_nodes (a.aid, idx) with
  | Some n -> n
  | None ->
    let n =
      Engine.new_storage st.eng ~name:(Fmt.str "arr#%d[%d]" a.aid idx)
    in
    Hashtbl.replace st.elem_nodes (a.aid, idx) n;
    n

(* access(l): record the dependency if an incremental procedure is
   executing; the node springs into existence on the first such read. *)
let tracked_read st tracked ensure_node v =
  if tracked && Engine.recording st.eng then
    Engine.record_read st.eng (ensure_node ());
  v

(* modify(l, v): the test "nodeptr(l) # NIL" — the location participates
   in the dependency graph only if some incremental execution has touched
   it (or is touching it right now). *)
let tracked_write st tracked find_node ensure_node old_v new_v write =
  (if not tracked then write ()
   else
     let node =
       if Engine.recording st.eng then Some (ensure_node ())
       else find_node ()
     in
     match node with
     | None -> write ()
     | Some n ->
       let changed = not (equal old_v new_v) in
       write ();
       Engine.record_write st.eng n ~changed)

(* ------------------------------------------------------------------ *)
(* Helpers shared with the conventional interpreter                    *)
(* ------------------------------------------------------------------ *)

let rec init_value st = function
  | Tarray (lo, hi, elem) ->
    let elems = Array.init (hi - lo + 1) (fun _ -> ref (init_value st elem)) in
    let a = { aid = st.next_oid; lo; hi; elems } in
    st.next_oid <- st.next_oid + 1;
    VArr a
  | (Tint | Tbool | Ttext | Tobj _) as t -> default_of t

let alloc st cls =
  let ci =
    match Tc.class_info st.env cls with Some ci -> ci | None -> assert false
  in
  let fields = Hashtbl.create (List.length ci.ci_fields) in
  List.iter
    (fun (fname, fty) -> Hashtbl.replace fields fname (ref (init_value st fty)))
    ci.ci_fields;
  let o = { oid = st.next_oid; cls; fields } in
  st.next_oid <- st.next_oid + 1;
  o

type frame = (string, value ref) Hashtbl.t

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let strategy_of st = function
  | S_default -> Engine.default_strategy st.eng
  | S_demand -> Engine.Demand
  | S_eager -> Engine.Eager

let policy_of = function
  | P_unbounded -> Policy.Unbounded
  | P_lru n -> Policy.Lru n
  | P_fifo n -> Policy.Fifo n

let rec eval st (fr : frame) e : value =
  tick st e.pos;
  match e.desc with
  | Int n -> VInt n
  | Bool b -> VBool b
  | Text s -> VText s
  | Nil -> VNil
  | Var x -> (
    match Hashtbl.find_opt fr x with
    | Some r -> !r
    | None -> (
      match Hashtbl.find_opt st.globals x with
      | Some r ->
        tracked_read st e.note.tracked (fun () -> global_node st x) !r
      | None -> error e.pos "unbound variable %s" x))
  | Field (b, f) -> (
    let o = obj_of b.pos (eval st fr b) in
    match Hashtbl.find_opt o.fields f with
    | Some r -> tracked_read st e.note.tracked (fun () -> field_node st o f) !r
    | None -> error e.pos "object %s#%d has no field %s" o.cls o.oid f)
  | Index (b, i) ->
    let a = arr_of b.pos (eval st fr b) in
    let idx = int_of i.pos (eval st fr i) in
    let r = elem_slot e.pos a idx in
    tracked_read st e.note.tracked (fun () -> elem_node st a idx) !r
  | New cls -> VObj (alloc st cls)
  | Unchecked inner ->
    (* §6.4: dependency recording suppressed for this expression *)
    Engine.unchecked st.eng (fun () -> eval st fr inner)
  | Unop (Neg, a) -> VInt (-int_of a.pos (eval st fr a))
  | Unop (Not, a) -> VBool (not (bool_of a.pos (eval st fr a)))
  | Binop (And, a, b) ->
    if bool_of a.pos (eval st fr a) then eval st fr b else VBool false
  | Binop (Or, a, b) ->
    if bool_of a.pos (eval st fr a) then VBool true else eval st fr b
  | Binop (op, a, b) -> (
    let va = eval st fr a in
    let vb = eval st fr b in
    match op with
    | Add -> VInt (int_of a.pos va + int_of b.pos vb)
    | Sub -> VInt (int_of a.pos va - int_of b.pos vb)
    | Mul -> VInt (int_of a.pos va * int_of b.pos vb)
    | Div ->
      let d = int_of b.pos vb in
      if d = 0 then error e.pos "division by zero";
      VInt (int_of a.pos va / d)
    | Mod ->
      let d = int_of b.pos vb in
      if d = 0 then error e.pos "modulo by zero";
      VInt (int_of a.pos va mod d)
    | Cat -> VText (text_of a.pos va ^ text_of b.pos vb)
    | Eq -> VBool (equal va vb)
    | Ne -> VBool (not (equal va vb))
    | Lt -> VBool (int_of a.pos va < int_of b.pos vb)
    | Le -> VBool (int_of a.pos va <= int_of b.pos vb)
    | Gt -> VBool (int_of a.pos va > int_of b.pos vb)
    | Ge -> VBool (int_of a.pos va >= int_of b.pos vb)
    | And | Or -> assert false)
  | Call (callee, args) -> (
    match eval_call st fr e.pos callee args with
    | Some v -> v
    | None -> error e.pos "proper procedure call in expression position")

and eval_call st fr pos callee args : value option =
  match callee with
  | Cproc "Print" ->
    List.iter
      (fun a -> Buffer.add_string st.out (to_string (eval st fr a)))
      args;
    None
  | Cproc p -> (
    match Hashtbl.find_opt st.env.procs p with
    | None -> error pos "unknown procedure %s" p
    | Some pd ->
      let argv = List.map (eval st fr) args in
      dispatch st pos pd pd.ppragma argv)
  | Cmethod (oe, mname) -> (
    let recv = eval st fr oe in
    let o = obj_of oe.pos recv in
    match Tc.lookup_method st.env o.cls mname with
    | None -> error pos "object %s has no method %s" o.cls mname
    | Some mi -> (
      match Hashtbl.find_opt st.env.procs mi.mi_impl with
      | None -> error pos "method %s bound to unknown procedure" mname
      | Some pd ->
        let argv = List.map (eval st fr) args in
        dispatch st pos pd mi.mi_pragma (recv :: argv)))

(* call(p, a1 … ak): the dynamic test of Algorithm 5 — if the resolved
   target carries no pragma, a conventional call; otherwise go through
   its argument table. *)
and dispatch st pos pd pragma argv : value option =
  match pragma with
  | None -> call_proc st pd argv
  | Some pragma -> (
    let func =
      match Hashtbl.find_opt st.funcs pd.pname with
      | Some f -> f
      | None ->
        let strategy, policy =
          match pragma with
          | Maintained s -> (strategy_of st s, Policy.Unbounded)
          | Cached (s, p) -> (strategy_of st s, policy_of p)
        in
        let f =
          Func.create st.eng ~name:pd.pname ~strategy ~policy
            ~hash_arg:hash_list ~equal_arg:equal_list
            ~equal_result:(fun a b ->
              match (a, b) with
              | None, None -> true
              | Some x, Some y -> equal x y
              | None, Some _ | Some _, None -> false)
            (fun _self argv -> call_proc st pd argv)
        in
        Hashtbl.replace st.funcs pd.pname f;
        f
    in
    match Func.call func argv with
    | v -> v
    | exception Engine.Cycle name ->
      error pos "incremental procedure %s depends on itself" name
    | exception Engine.Poisoned name ->
      error pos "incremental procedure %s is poisoned after repeated failures"
        name
    | exception Alphonse.Faults.Injected _ -> (
      (* the engine unwound and quarantined the faulted instance; one
         retry normally succeeds since injectors are one-shot or rare *)
      match Func.call func argv with
      | v -> v
      | exception Engine.Cycle name ->
        error pos "incremental procedure %s depends on itself" name
      | exception Engine.Poisoned name ->
        error pos "incremental procedure %s is poisoned after repeated failures"
          name
      | exception Alphonse.Faults.Injected site ->
        error pos "injected fault at %s persisted across retry" site))

and call_proc st (pd : proc_decl) argv : value option =
  let fr : frame = Hashtbl.create 8 in
  (try List.iter2 (fun (n, _) v -> Hashtbl.replace fr n (ref v)) pd.params argv
   with Invalid_argument _ ->
     error pd.ppos "arity mismatch calling %s" pd.pname);
  List.iter
    (fun l ->
      let v =
        match l.linit with
        | Some e -> eval st fr e
        | None -> init_value st l.lty
      in
      Hashtbl.replace fr l.lname (ref v))
    pd.locals;
  try
    exec_stmts st fr pd.body;
    if pd.ret <> None then
      error pd.ppos "procedure %s fell off the end without RETURN" pd.pname;
    None
  with Return_value v -> v

and exec_stmts st fr stmts = List.iter (exec st fr) stmts

and exec st fr s =
  tick st s.spos;
  match s.sdesc with
  | Assign (d, e) -> (
    let v = eval st fr e in
    match d.desc with
    | Var x -> (
      match Hashtbl.find_opt fr x with
      | Some r -> r := v
      | None -> (
        match Hashtbl.find_opt st.globals x with
        | Some r ->
          tracked_write st d.note.tracked
            (fun () -> Hashtbl.find_opt st.global_nodes x)
            (fun () -> global_node st x)
            !r v
            (fun () -> r := v)
        | None -> error d.pos "unbound variable %s" x))
    | Field (b, f) -> (
      let o = obj_of b.pos (eval st fr b) in
      match Hashtbl.find_opt o.fields f with
      | Some r ->
        tracked_write st d.note.tracked
          (fun () -> Hashtbl.find_opt st.field_nodes (o.oid, f))
          (fun () -> field_node st o f)
          !r v
          (fun () -> r := v)
      | None -> error d.pos "object %s#%d has no field %s" o.cls o.oid f)
    | Index (b, i) ->
      let a = arr_of b.pos (eval st fr b) in
      let idx = int_of i.pos (eval st fr i) in
      let r = elem_slot d.pos a idx in
      tracked_write st d.note.tracked
        (fun () -> Hashtbl.find_opt st.elem_nodes (a.aid, idx))
        (fun () -> elem_node st a idx)
        !r v
        (fun () -> r := v)
    | _ -> error d.pos "bad assignment target")
  | Call_stmt e -> (
    match e.desc with
    | Call (callee, args) -> ignore (eval_call st fr e.pos callee args)
    | _ -> error e.pos "expression is not a statement")
  | If (branches, els) ->
    let rec go = function
      | [] -> exec_stmts st fr els
      | (c, body) :: rest ->
        if bool_of c.pos (eval st fr c) then exec_stmts st fr body else go rest
    in
    go branches
  | While (c, body) ->
    while bool_of c.pos (eval st fr c) do
      exec_stmts st fr body
    done
  | Repeat (body, c) ->
    let continue_ = ref true in
    while !continue_ do
      exec_stmts st fr body;
      if bool_of c.pos (eval st fr c) then continue_ := false
    done
  | For (v, lo, hi, body) ->
    let lo = int_of lo.pos (eval st fr lo) in
    let hi = int_of hi.pos (eval st fr hi) in
    let r = ref (VInt lo) in
    let shadowed = Hashtbl.find_opt fr v in
    Hashtbl.replace fr v r;
    for i = lo to hi do
      r := VInt i;
      exec_stmts st fr body
    done;
    (match shadowed with
    | Some old -> Hashtbl.replace fr v old
    | None -> Hashtbl.remove fr v)
  | Return e -> raise (Return_value (Option.map (eval st fr) e))

let state_engine st = st.eng

(* ------------------------------------------------------------------ *)
(* Whole-module execution                                              *)
(* ------------------------------------------------------------------ *)

type outcome = {
  output : string;
  error : string option;
  steps : int;
  engine_stats : Engine.stats;
  graph_stats : Depgraph.Graph.stats;
}

let init_state ?fuel ?default_strategy ?partitioning ?telemetry ?metrics
    ?fault_seed ?audit (env : Tc.env) (analysis : Analysis.result) =
  let eng = Engine.create ?default_strategy ?partitioning () in
  Option.iter (Engine.set_self_audit eng) audit;
  Engine.set_telemetry eng telemetry;
  (* metrics before the fault injector: injectors resolve their counter
     from the engine's registry at install time *)
  Engine.set_metrics eng metrics;
  (match (telemetry, metrics) with
  | Some tm, Some _ -> Alphonse.Telemetry.set_metrics tm metrics
  | _ -> ());
  (match fault_seed with
  | Some seed -> ignore (Alphonse.Faults.install_seeded eng ~seed ())
  | None -> ());
  let st =
    {
      env;
      analysis;
      eng;
      globals = Hashtbl.create 16;
      global_nodes = Hashtbl.create 16;
      field_nodes = Hashtbl.create 64;
      elem_nodes = Hashtbl.create 64;
      funcs = Hashtbl.create 8;
      out = Buffer.create 256;
      next_oid = 0;
      steps = 0;
      fuel;
    }
  in
  List.iter
    (fun (g : global_decl) ->
      Hashtbl.replace st.globals g.gname (ref (init_value st g.gty)))
    env.m.globals;
  let fr : frame = Hashtbl.create 1 in
  List.iter
    (fun (g : global_decl) ->
      match g.ginit with
      | Some e -> Hashtbl.replace st.globals g.gname (ref (eval st fr e))
      | None -> ())
    env.m.globals;
  st

(** Run the module body under Alphonse execution. *)
let run ?fuel ?default_strategy ?partitioning ?telemetry ?metrics ?fault_seed
    ?audit (env : Tc.env) : outcome =
  let analysis = Analysis.analyze env in
  match
    init_state ?fuel ?default_strategy ?partitioning ?telemetry ?metrics
      ?fault_seed ?audit env analysis
  with
  | exception Runtime_error (msg, p) ->
    {
      output = "";
      error = Some (Fmt.str "%a: %s" pp_pos p msg);
      steps = 0;
      engine_stats = Engine.stats (Engine.create ());
      graph_stats = Depgraph.Graph.stats (Depgraph.Graph.create ());
    }
  | st -> (
    let finish error =
      {
        output = Buffer.contents st.out;
        error;
        steps = st.steps;
        engine_stats = Engine.stats st.eng;
        graph_stats = Engine.graph_stats st.eng;
      }
    in
    let fr : frame = Hashtbl.create 8 in
    match exec_stmts st fr env.m.main with
    | () -> finish None
    | exception Runtime_error (msg, p) ->
      finish (Some (Fmt.str "%a: %s" pp_pos p msg))
    | exception Return_value _ -> finish (Some "RETURN outside a procedure")
    | exception Engine.Audit_failure errs ->
      finish (Some (Fmt.str "audit failure: %s" (String.concat "; " errs)))
    | exception Alphonse.Faults.Injected site ->
      finish (Some (Fmt.str "injected fault at %s escaped recovery" site)))
