(* Randomized end-to-end tests.

   - Random well-typed expression programs: the conventional interpreter
     must agree with a plain OCaml evaluation oracle, and every generated
     module must round-trip through the pretty-printer and parser.
   - Random mutator schedules over a maintained-property program family:
     Theorem 5.1 checked by construction (Alphonse execution output equals
     conventional execution output) under all strategy/partitioning
     combinations.
   - Random dependency DAGs of Func instances, created in a shuffled
     order and driven by random writes: values equal exhaustive
     recomputation, and on all-eager static shapes no instance runs
     twice in one stabilize.
   - Oracle tests for the remaining substrate pieces: the closure-based
     hash table against Stdlib.Hashtbl, and the order-maintenance list
     under interleaved inserts and deletes. *)

open Lang.Ast
module P = Lang.Parser
module Tc = Lang.Typecheck
module Interp = Lang.Interp
module Incr = Transform.Incr_interp
module Engine = Alphonse.Engine


(* ------------------------------------------------------------------ *)
(* Random well-typed integer expressions with an evaluation oracle     *)
(* ------------------------------------------------------------------ *)

let global_names = [| "g0"; "g1"; "g2"; "g3" |]
let global_values = [| 3; -7; 11; 2 |]

(* generator of (AST, oracle value) pairs *)
let rec int_expr_gen depth =
  let open QCheck.Gen in
  if depth = 0 then
    oneof
      [
        map (fun n -> (mk_expr (Int n), n)) (int_range (-50) 50);
        map
          (fun i ->
            (mk_expr (Var global_names.(i)), global_values.(i)))
          (int_bound 3);
      ]
  else
    let sub = int_expr_gen (depth - 1) in
    frequency
      [
        (1, int_expr_gen 0);
        ( 3,
          map3
            (fun op (ea, va) (eb, vb) ->
              let v =
                match op with
                | Add -> va + vb
                | Sub -> va - vb
                | Mul -> va * vb
                | _ -> assert false
              in
              (mk_expr (Binop (op, ea, eb)), v))
            (oneofl [ Add; Sub; Mul ])
            sub sub );
        (1, map (fun (e, v) -> (mk_expr (Unop (Neg, e)), -v)) sub);
        ( 1,
          (* IF cond THEN a ELSE b END, expressed as a value via a helper
             procedure is heavy; instead encode the conditional with a
             comparison feeding a multiply: (a < b) is not first-class
             int, so wrap via the Choose procedure declared below *)
          map3
            (fun (ec, vc) (ea, va) (eb, vb) ->
              let cond = mk_expr (Binop (Gt, ec, mk_expr (Int 0))) in
              ( mk_expr (Call (Cproc "Choose", [ cond; ea; eb ])),
                if vc > 0 then va else vb ))
            sub sub sub );
      ]

let module_of_expr e =
  {
    modname = "Fuzz";
    types = [];
    globals =
      Array.to_list
        (Array.mapi
           (fun i g ->
             {
               gname = g;
               gty = Tint;
               ginit = Some (mk_expr (Int global_values.(i)));
               gpos = no_pos;
             })
           global_names);
    procs =
      [
        {
          pname = "Choose";
          params = [ ("c", Tbool); ("a", Tint); ("b", Tint) ];
          ret = Some Tint;
          locals = [];
          body =
            [
              mk_stmt
                (If
                   ( [ (mk_expr (Var "c"), [ mk_stmt (Return (Some (mk_expr (Var "a")))) ]) ],
                     [ mk_stmt (Return (Some (mk_expr (Var "b")))) ] ));
            ];
          ppragma = None;
          ppos = no_pos;
        };
      ];
    main =
      [
        mk_stmt (Call_stmt (mk_expr (Call (Cproc "Print", [ e ]))));
      ];
  }

let prop_expr_oracle =
  QCheck.Test.make ~name:"random expressions: interpreter = oracle" ~count:200
    (QCheck.make
       ~print:(fun (e, v) ->
         Fmt.str "%a = %d" (Lang.Pretty.pp_expr ~marks:false 0) e v)
       (int_expr_gen 4))
    (fun (e, oracle) ->
      let m = module_of_expr e in
      match Tc.check m with
      | Error _ -> false
      | Ok env -> (
        let out = Interp.run ~fuel:1_000_000 env in
        match out.Interp.error with
        | Some _ -> false
        | None -> out.Interp.output = string_of_int oracle))

let prop_module_roundtrip =
  QCheck.Test.make ~name:"random modules: print/parse round trip" ~count:200
    (QCheck.make
       ~print:(fun (e, _) -> Fmt.str "%a" (Lang.Pretty.pp_expr ~marks:false 0) e)
       (int_expr_gen 4))
    (fun (e, _) ->
      let m = module_of_expr e in
      let printed = Lang.Pretty.to_string m in
      match P.parse printed with
      | Error _ -> false
      | Ok m2 -> Lang.Pretty.to_string m2 = printed)

(* ------------------------------------------------------------------ *)
(* Random mutator schedules: Theorem 5.1 by construction               *)
(* ------------------------------------------------------------------ *)

(* CI audit mode: with ALPHONSE_AUDIT=1 in the environment every
   incremental execution below runs with the per-step invariant auditor
   enabled — a metadata incoherence surfaces as a run error and fails the
   property. *)
let audit_mode = Sys.getenv_opt "ALPHONSE_AUDIT" = Some "1"

type op = Set of int * int | Query | Show of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun i v -> Set (i, v)) (int_bound 3) (int_range (-20) 20));
        (2, return Query);
        (1, map (fun i -> Show i) (int_bound 3));
      ])

let print_op = function
  | Set (i, v) -> Fmt.str "g%d := %d" i v
  | Query -> "query"
  | Show i -> Fmt.str "show g%d" i

(* the program family: a maintained total over the four globals, driven
   by a random mutator *)
let module_of_schedule ops =
  let total_body =
    (* g0 + 2*g1 + 3*g2 - g3 *)
    let g i = mk_expr (Var global_names.(i)) in
    let ( +! ) a b = mk_expr (Binop (Add, a, b)) in
    let ( -! ) a b = mk_expr (Binop (Sub, a, b)) in
    let ( *! ) a b = mk_expr (Binop (Mul, a, b)) in
    g 0 +! (mk_expr (Int 2) *! g 1) +! ((mk_expr (Int 3) *! g 2) -! g 3)
  in
  let main =
    mk_stmt (Assign (mk_expr (Var "calc"), mk_expr (New "Calc")))
    :: List.map
         (fun op ->
           match op with
           | Set (i, v) ->
             mk_stmt
               (Assign (mk_expr (Var global_names.(i)), mk_expr (Int v)))
           | Query ->
             mk_stmt
               (Call_stmt
                  (mk_expr
                     (Call
                        ( Cproc "Print",
                          [
                            mk_expr
                              (Call
                                 ( Cmethod (mk_expr (Var "calc"), "total"),
                                   [] ));
                            mk_expr (Text " ");
                          ] ))))
           | Show i ->
             mk_stmt
               (Call_stmt
                  (mk_expr
                     (Call
                        ( Cproc "Print",
                          [ mk_expr (Var global_names.(i)); mk_expr (Text "|") ]
                        )))))
         ops
  in
  {
    modname = "Schedule";
    types =
      [
        {
          tname = "Calc";
          super = None;
          fields = [];
          methods =
            [
              {
                mname = "total";
                mparams = [];
                mret = Some Tint;
                mimpl = "Total";
                mpragma = Some (Maintained S_default);
                mpos = no_pos;
              };
            ];
          overrides = [];
          tpos = no_pos;
        };
      ];
    globals =
      { gname = "calc"; gty = Tobj "Calc"; ginit = None; gpos = no_pos }
      :: Array.to_list
           (Array.map
              (fun g -> { gname = g; gty = Tint; ginit = None; gpos = no_pos })
              global_names);
    procs =
      [
        {
          pname = "Total";
          params = [ ("s", Tobj "Calc") ];
          ret = Some Tint;
          locals = [];
          body = [ mk_stmt (Return (Some total_body)) ];
          ppragma = None;
          ppos = no_pos;
        };
      ];
    main;
  }

let prop_schedule_theorem_5_1 =
  QCheck.Test.make ~name:"random schedules: Theorem 5.1" ~count:100
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_op ops))
       QCheck.Gen.(list_size (int_range 1 40) op_gen))
    (fun ops ->
      let m = module_of_schedule ops in
      match Tc.check m with
      | Error _ -> false
      | Ok env -> (
        let conv = Interp.run ~fuel:10_000_000 env in
        match conv.Interp.error with
        | Some _ -> false
        | None ->
          List.for_all
            (fun (strategy, partitioning) ->
              let inc =
                Incr.run ~fuel:10_000_000 ~default_strategy:strategy
                  ~partitioning ~audit:audit_mode env
              in
              inc.Incr.error = None && inc.Incr.output = conv.Interp.output)
            [
              (Engine.Demand, false);
              (Engine.Eager, false);
              (Engine.Demand, true);
              (Engine.Eager, true);
            ]))

(* ------------------------------------------------------------------ *)
(* Generated dependency DAGs of Func instances                         *)
(* ------------------------------------------------------------------ *)

(* Instance [i] reads inputs among the vars, the instances below it and
   the output cells of the writers below it, as its shape var says: 0
   reads nothing past it ([const]), 1 reads the inputs in order, 2 in
   reverse with every read repeated, 3 every other input, so a round
   that moves a shape reorders, repeats or drops reads. The value is
   [(const + sum of the reads) mod 1000]. A writer (always eager, so a
   settle brings its cell current) writes its output cell and reads it
   back: a write-then-read chain through tracked storage. A DAG drawn
   with rotations also turns some demand instances into demand writers
   in the AVL-rotation shape: one first reads the cell it is about to
   write, as a rotation reads the pointers it moves, so a changed write
   reaches the writer itself while it is on the stack; the mark only
   sets [queued] there, and the engine flips and walks the writer when
   its call returns, once the caller has recorded its edge. Its next
   call re-runs it once to confirm the value it wrote. A demand
   writer's cell is no instance's input: nothing but a call brings it
   current. Instances are
   first called in a shuffled order, so a consumer can be created before
   its inputs and reach them later — an edge recorded against the
   creation order, as in E14. A round may also arm a one-shot fault:
   the instance raises at its [k]th read the next time it gets there,
   and a second settle retries it. *)
type dag_input = In_var of int | In_fn of int | In_out of int

type dag_fn = {
  eager : bool;
  shape0 : int;
  const : int;
  inputs : dag_input list;
  writes : bool;
}

type dag_write = W_var of int * int | W_shape of int * int | W_fault of int * int

type dag = {
  nvars : int;
  partitioned : bool;
  fns : dag_fn array;
  creation : int list; (* the order of the first calls *)
  rounds : dag_write list list; (* each round: writes, then stabilize *)
}

let dag_gen =
  let open QCheck.Gen in
  let* nvars = int_range 1 4 in
  let* nfns = int_range 1 10 in
  let* all_eager = bool in
  let* partitioned = bool in
  let* rotations = bool in
  let* writers = array_size (return nfns) (frequencyl [ (1, true); (2, false) ]) in
  let input i =
    let var = map (fun v -> In_var v) (int_bound (nvars - 1)) in
    let below = List.init i Fun.id in
    let outs = List.filter (fun j -> writers.(j)) below in
    frequency
      ((2, var)
      :: (if i = 0 then [] else [ (3, map (fun j -> In_fn j) (oneofl below)) ])
      @ if outs = [] then [] else [ (2, map (fun j -> In_out j) (oneofl outs)) ])
  in
  let fn i =
    let* eager = if all_eager || writers.(i) then return true else bool in
    let* rotates =
      if rotations && not eager then frequencyl [ (1, true); (2, false) ]
      else return false
    in
    let* shape0 = int_bound 3 in
    let* const = int_bound 9 in
    let+ inputs = list_size (int_range 0 4) (input i) in
    { eager; shape0; const; inputs; writes = writers.(i) || rotates }
  in
  let* fns = flatten_a (Array.init nfns fn) in
  let* creation = shuffle_l (List.init nfns Fun.id) in
  let write =
    frequency
      [ (3, map2 (fun v x -> W_var (v, x)) (int_bound (nvars - 1)) (int_bound 20));
        (3, map2 (fun i s -> W_shape (i, s)) (int_bound (nfns - 1)) (int_bound 3));
        (1, map2 (fun i k -> W_fault (i, k)) (int_bound (nfns - 1)) (int_range 1 8)) ]
  in
  let+ rounds = list_size (int_range 1 12) (list_size (int_range 1 3) write) in
  { nvars; partitioned; fns; creation; rounds }

let print_dag d =
  let input = function
    | In_var v -> Fmt.str "v%d" v
    | In_fn j -> Fmt.str "f%d" j
    | In_out j -> Fmt.str "out%d" j
  in
  let fn i f =
    Fmt.str "f%d=%s%s shape%d %d+[%s]" i (if f.eager then "E" else "D")
      (if f.writes then " W" else "") f.shape0 f.const
      (String.concat "," (List.map input f.inputs))
  in
  let write = function
    | W_var (v, x) -> Fmt.str "v%d:=%d" v x
    | W_shape (i, s) -> Fmt.str "shape%d:=%d" i s
    | W_fault (i, k) -> Fmt.str "fault f%d@%d" i k
  in
  Fmt.str "%d vars%s; %s; created %s; rounds %s" d.nvars
    (if d.partitioned then ", partitioned" else "")
    (String.concat "; " (Array.to_list (Array.mapi fn d.fns)))
    (String.concat "," (List.map string_of_int d.creation))
    (String.concat " | "
       (List.map (fun r -> String.concat "," (List.map write r)) d.rounds))

(* The read sequence of shape [s] over [inputs]. *)
let read_plan s inputs =
  match s with
  | 0 -> []
  | 1 -> inputs
  | 2 -> List.concat_map (fun x -> [ x; x ]) (List.rev inputs)
  | _ -> List.filteri (fun k _ -> k mod 2 = 0) inputs

(* After each round's settle every instance, called from the top
   instance down so that callers force their inputs, must equal the
   specification recomputed from the inputs, and the audit must be
   clean. A round without a fault must then leave nothing to do: a
   settle and a second pass of calls execute nothing, so no propagation
   marked a caller through a read its execution had not made yet. On an
   all-eager DAG without writers, a round that only writes vars runs
   each instance at most once. *)
let prop_dag_theorem_5_1 =
  QCheck.Test.make ~name:"random DAGs: Theorem 5.1"
    ~count:500
    (QCheck.make ~print:print_dag dag_gen)
    (fun d ->
      let module Var = Alphonse.Var in
      let module Func = Alphonse.Func in
      let eng = Engine.create ~partitioning:d.partitioned () in
      Engine.set_self_audit eng true;
      let n = Array.length d.fns in
      let vars = Array.init d.nvars (fun _ -> Var.create eng 1) in
      let shapes = Array.map (fun f -> Var.create eng f.shape0) d.fns in
      let outs = Array.init n (fun _ -> Var.create eng 0) in
      let armed = ref None in
      let runs = Array.make n 0 in
      let fns = Array.make n None in
      let call j = Func.call (Option.get fns.(j)) () in
      let out_of v = ((v * 7) + 1) mod 1000 in
      Array.iteri
        (fun i f ->
          let strategy = if f.eager then Engine.Eager else Engine.Demand in
          fns.(i) <-
            Some
              (Func.create eng ~strategy (fun _ () ->
                   runs.(i) <- runs.(i) + 1;
                   let reads = ref 0 in
                   let read x =
                     incr reads;
                     (match !armed with
                     | Some (fi, k) when fi = i && k = !reads ->
                       armed := None;
                       failwith "injected at a read"
                     | _ -> ());
                     x
                   in
                   if f.writes && not f.eager then
                     ignore (read (Var.get outs.(i)) : int);
                   let v =
                     List.fold_left
                       (fun acc -> function
                         | In_var v -> acc + read (Var.get vars.(v))
                         | In_fn j -> acc + read (call j)
                         | In_out j -> acc + read (Var.get outs.(j)))
                       f.const
                       (read_plan (Var.get shapes.(i)) f.inputs)
                     mod 1000
                   in
                   if f.writes then begin
                     Var.set outs.(i) (out_of v);
                     (v + read (Var.get outs.(i))) mod 1000
                   end
                   else v)))
        d.fns;
      (* the specification: the value before the write-back, from the
         inputs alone *)
      let rec pre i =
        let f = d.fns.(i) in
        List.fold_left
          (fun acc -> function
            | In_var v -> acc + Var.get vars.(v)
            | In_fn j -> acc + spec j
            | In_out j -> acc + out_of (pre j))
          f.const
          (read_plan (Var.get shapes.(i)) f.inputs)
        mod 1000
      and spec i =
        let v = pre i in
        if d.fns.(i).writes then (v + out_of v) mod 1000 else v
      in
      let top_down = List.init n (fun i -> n - 1 - i) in
      let check ?(only_top = false) what =
        List.iter
          (fun i ->
            let got = call i and want = spec i in
            if got <> want then
              QCheck.Test.fail_reportf "%s: f%d = %d, specification %d" what i
                got want)
          (if only_top then [ n - 1 ] else top_down)
      in
      let executions () = (Engine.stats eng).Engine.executions in
      let once_bound =
        Array.for_all (fun f -> f.eager && not f.writes) d.fns
      in
      let demand_writer = Array.exists (fun f -> f.writes && not f.eager) d.fns in
      List.iter (fun i -> ignore (call i : int)) d.creation;
      Engine.stabilize eng;
      check "after creation";
      List.iteri
        (fun r writes ->
          List.iter
            (function
              | W_var (v, x) -> Var.set vars.(v) x
              | W_shape (i, s) -> Var.set shapes.(i) s
              | W_fault (i, k) -> armed := Some (i, k))
            writes;
          Array.fill runs 0 n 0;
          Engine.stabilize eng;
          let static = List.for_all (function W_var _ -> true | _ -> false) writes in
          if once_bound && static && Array.exists (fun k -> k > 1) runs then
            QCheck.Test.fail_reportf "round %d: an instance ran %d times" r
              (Array.fold_left max 0 runs);
          (* a fault that did not fire this round is withdrawn; one that
             did left its instance quarantined, and the dependents it
             has not re-marked yet hold values from its last success:
             the retry settle brings them current *)
          armed := None;
          let faulty = List.exists (function W_fault _ -> true | _ -> false) writes in
          if faulty then Engine.stabilize eng;
          (* With a demand writer (only a DAG drawn with rotations has
             one; every other DAG is checked whole each round), an odd
             round checks the top instance only, so the next round's writes can meet a writer its last
             call left re-dirtied by its own write — where a walk that
             stopped short of its callers would leave them stale for the
             next full check. *)
          let partial = demand_writer && r mod 2 = 1 in
          check ~only_top:partial (Fmt.str "round %d" r);
          (* the writer then re-runs once to confirm its write, and its
             callers with it: the quiescence check makes that pass first *)
          if not (faulty || partial) then begin
            Engine.stabilize eng;
            if demand_writer then begin
              List.iter (fun i -> ignore (call i : int)) top_down;
              Engine.stabilize eng
            end;
            let before = executions () in
            List.iter (fun i -> ignore (call i : int)) top_down;
            Engine.stabilize eng;
            if executions () <> before then
              QCheck.Test.fail_reportf "round %d: %d executions after quiescence"
                r (executions () - before)
          end)
        d.rounds;
      match Engine.audit_errors eng with
      | [] -> true
      | errs -> QCheck.Test.fail_reportf "audit: %s" (String.concat "; " errs))

(* ------------------------------------------------------------------ *)
(* Substrate oracles                                                   *)
(* ------------------------------------------------------------------ *)

let prop_htbl_oracle =
  QCheck.Test.make ~name:"closure hashtable = Stdlib.Hashtbl" ~count:200
    QCheck.(list (pair (int_bound 40) (option (int_bound 1000))))
    (fun ops ->
      let t =
        Alphonse.Htbl.create ~hash:Hashtbl.hash ~equal:Int.equal ()
      in
      let oracle : (int, int) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (k, op) ->
          match op with
          | Some v ->
            (* add-if-absent semantics, like the argument tables *)
            if not (Hashtbl.mem oracle k) then begin
              Alphonse.Htbl.add t k v;
              Hashtbl.replace oracle k v
            end
          | None ->
            Alphonse.Htbl.remove t k;
            Hashtbl.remove oracle k)
        ops;
      Alphonse.Htbl.length t = Hashtbl.length oracle
      && Hashtbl.fold
           (fun k v acc -> acc && Alphonse.Htbl.find_opt t k = Some v)
           oracle true
      && Alphonse.Htbl.fold
           (fun k v acc -> acc && Hashtbl.find_opt oracle k = Some v)
           t true)

let prop_order_list_with_deletes =
  QCheck.Test.make ~name:"order list under inserts and deletes" ~count:100
    QCheck.(list (pair (int_bound 99) bool))
    (fun ops ->
      let module Ol = Depgraph.Order_list in
      let t = Ol.create () in
      (* reference: items in order; index 0 is the undeletable base *)
      let items = ref [ Ol.base t ] in
      List.iter
        (fun (i, delete) ->
          let n = List.length !items in
          if delete && n > 1 then begin
            let idx = 1 + (i mod (n - 1)) in
            Ol.delete (List.nth !items idx);
            items := List.filteri (fun j _ -> j <> idx) !items
          end
          else begin
            let idx = i mod n in
            let fresh = Ol.insert_after (List.nth !items idx) in
            let rec splice k = function
              | [] -> [ fresh ]
              | x :: rest ->
                if k = 0 then x :: fresh :: rest else x :: splice (k - 1) rest
            in
            items := splice idx !items
          end)
        ops;
      Ol.validate t;
      let arr = Array.of_list !items in
      let ok = ref (Ol.length t = Array.length arr) in
      for k = 0 to Array.length arr - 2 do
        if not (Ol.lt arr.(k) arr.(k + 1)) then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* JSON printer/parser round trip                                      *)
(* ------------------------------------------------------------------ *)

(* The durability layer trusts [Json.of_string (Json.to_string j) = j]
   for every value it frames into the journal or checksums into a
   snapshot — so the generator leans on the nasty cases: control
   characters and quotes in strings (escaping), integer edges, deep
   nesting, empty containers. Numbers are restricted to values the
   float-based printer represents exactly; the printer maps non-finite
   numbers to [null] by design, so they are generated as [Null]. *)
let json_gen =
  let open QCheck.Gen in
  let module J = Alphonse.Json in
  let str_gen =
    let char_gen =
      frequency
        [
          (6, char_range 'a' 'z');
          (2, oneofl [ '"'; '\\'; '/'; '\n'; '\t'; '\r'; '\b'; '\012' ]);
          (1, map Char.chr (int_range 0 31));
          (1, map Char.chr (int_range 32 126));
        ]
    in
    string_size ~gen:char_gen (int_bound 12)
  in
  let num_gen =
    frequency
      [
        (3, map float_of_int (int_range (-1000) 1000));
        (1,
         oneofl
           [
             0.; -0.; 1.5; -3.25; 1e-3; 1e10; 4503599627370496.;
             (* 2^52: the float-exact integer edge *)
             -4503599627370496.; infinity; neg_infinity; nan;
           ]);
      ]
  in
  (* non-finite numbers print as null; generate what survives a trip *)
  let num_gen =
    map (fun x -> if Float.is_finite x then J.Num x else J.Null) num_gen
  in
  fix
    (fun self depth ->
      if depth = 0 then
        frequency
          [
            (1, return J.Null);
            (1, map (fun b -> J.Bool b) bool);
            (2, num_gen);
            (2, map (fun s -> J.Str s) str_gen);
          ]
      else
        frequency
          [
            (2, map (fun s -> J.Str s) str_gen);
            (1, num_gen);
            (2,
             map (fun l -> J.Arr l) (list_size (int_bound 4) (self (depth - 1))));
            (2,
             map
               (fun l -> J.Obj l)
               (list_size (int_bound 4)
                  (pair str_gen (self (depth - 1)))));
          ])
    4

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json: print/parse round trip" ~count:500
    (QCheck.make
       ~print:(fun j -> Alphonse.Json.to_string j)
       json_gen)
    (fun j ->
      let module J = Alphonse.Json in
      match J.of_string (J.to_string j) with
      | j' -> j' = j && J.to_string j' = J.to_string j
      | exception J.Parse_error e ->
        QCheck.Test.fail_reportf "parse back failed: %s on %s" e
          (J.to_string j))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "fuzz"
    [
      ( "lang",
        qsuite
          [ prop_expr_oracle; prop_module_roundtrip; prop_schedule_theorem_5_1 ]
      );
      ("engine", qsuite [ prop_dag_theorem_5_1 ]);
      ("substrate", qsuite [ prop_htbl_oracle; prop_order_list_with_deletes ]);
      ("json", qsuite [ prop_json_roundtrip ]);
    ]
