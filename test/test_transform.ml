(* Tests for the Alphonse transformation: the §6.1 static analysis, the
   Algorithm 2 display form, and — the headline — Theorem 5.1: Alphonse
   execution of P produces the same output as conventional execution of P,
   checked for every sample program under every strategy/partitioning
   combination, with incrementality visible in the execution counters. *)

module P = Lang.Parser
module Tc = Lang.Typecheck
module Interp = Lang.Interp
module Engine = Alphonse.Engine
module Analysis = Transform.Analysis
module Incr = Transform.Incr_interp

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let compile src =
  match P.parse src with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok m -> (
    match Tc.check m with
    | Ok env -> env
    | Error es ->
      Alcotest.failf "typecheck failed: %a"
        Fmt.(list ~sep:semi Tc.pp_error)
        es)

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Theorem 5.1: output equivalence                                     *)
(* ------------------------------------------------------------------ *)

let fuel = 100_000_000

(* Theorem 5.1 for one program under every strategy × partitioning
   variant; returns the conventional output. *)
let check_theorem_5_1 name env =
  let conv = Interp.run ~fuel env in
  checkb (name ^ " conventional ok") true (conv.Interp.error = None);
  List.iter
    (fun (variant, strategy, partitioning) ->
      let inc = Incr.run ~fuel ~default_strategy:strategy ~partitioning env in
      (match inc.Incr.error with
      | Some e -> Alcotest.failf "%s (%s): %s" name variant e
      | None -> ());
      checks
        (Fmt.str "%s (%s) output equals conventional" name variant)
        conv.Interp.output inc.Incr.output)
    [
      ("demand", Engine.Demand, false);
      ("eager", Engine.Eager, false);
      ("demand+part", Engine.Demand, true);
      ("eager+part", Engine.Eager, true);
    ];
  conv.Interp.output

let test_theorem_5_1 () =
  List.iter
    (fun (name, src) -> ignore (check_theorem_5_1 name (compile src) : string))
    Lang.Samples.all

(* A FOR index named like a global: inside Get's loop [i] is the index,
   after it the global the module body writes. An analysis that keeps
   the index local after its loop leaves that read untracked, and the
   second call answers 102 from a stale cache. *)
let for_scope =
  {|MODULE ForScope;
    VAR i : INTEGER;
    (*CACHED*) PROCEDURE Get(k : INTEGER) : INTEGER =
    VAR s : INTEGER;
    BEGIN
      s := 0;
      FOR i := 1 TO k DO s := s + i END;
      RETURN s + i
    END Get;
    BEGIN
      i := 92;
      Print(Get(4), "\n");
      i := 192;
      Print(Get(4), "\n")
    END ForScope.|}

let test_for_scope () =
  let env = compile for_scope in
  checks "conventional output" "102\n202\n"
    (check_theorem_5_1 "for_scope" env);
  let r = Analysis.analyze env in
  checkb "global i tracked" true (Hashtbl.mem r.Analysis.tracked_globals "i")

(* ------------------------------------------------------------------ *)
(* Incrementality is observable                                        *)
(* ------------------------------------------------------------------ *)

let test_fib_cached_linear () =
  let env = compile Lang.Samples.fib_cached in
  let conv = Interp.run ~fuel env in
  let inc = Incr.run ~fuel env in
  checks "same output" conv.Interp.output inc.Incr.output;
  (* fib 20 then fib 21: conventional work is exponential in calls, the
     cached run is one execution per distinct argument *)
  checkb "cached run executes O(n) procedures" true
    (inc.Incr.engine_stats.Engine.executions <= 25);
  checkb "conventional interpreter works much harder" true
    (conv.Interp.steps > 10 * inc.Incr.steps)

let test_sums_maintained_counts () =
  let env = compile Lang.Samples.sums_maintained in
  let inc = Incr.run ~fuel env in
  checkb "no error" true (inc.Incr.error = None);
  (* three total() calls: first executes, second re-executes after the b
     change, third is a cache hit after the scratch write (scratch is
     tracked? no — scratch is never read by Total, so it is untracked) *)
  checki "exactly two executions" 2 inc.Incr.engine_stats.Engine.executions;
  checki "one cache hit" 1 inc.Incr.engine_stats.Engine.cache_hits

let test_unchecked_counts () =
  let env = compile Lang.Samples.unchecked_lookup in
  let inc = Incr.run ~fuel env in
  checkb "no error" true (inc.Incr.error = None);
  (* calls: initial execution; p2 write absorbed by UNCHECKED (hit);
     target write re-executes *)
  checki "two executions" 2 inc.Incr.engine_stats.Engine.executions;
  checki "one cache hit" 1 inc.Incr.engine_stats.Engine.cache_hits

let test_height_tree_incremental () =
  let env = compile Lang.Samples.height_tree in
  let inc = Incr.run ~fuel env in
  checkb "no error" true (inc.Incr.error = None);
  let conv = Interp.run ~fuel env in
  checks "same output" conv.Interp.output inc.Incr.output;
  (* the second height query after grafting the deep spine re-executes
     the new spine's instances plus the root, not the whole tree *)
  let execs = inc.Incr.engine_stats.Engine.executions in
  checkb (Fmt.str "executions %d bounded" execs) true (execs < 100)

(* ------------------------------------------------------------------ *)
(* Static analysis (§6.1)                                              *)
(* ------------------------------------------------------------------ *)

let test_analysis_tracked_sets () =
  let env = compile Lang.Samples.sums_maintained in
  let r = Analysis.analyze env in
  checkb "a tracked" true (Hashtbl.mem r.Analysis.tracked_globals "a");
  checkb "b tracked" true (Hashtbl.mem r.Analysis.tracked_globals "b");
  checkb "scratch untracked" false
    (Hashtbl.mem r.Analysis.tracked_globals "scratch");
  checkb "calc global untracked" false
    (Hashtbl.mem r.Analysis.tracked_globals "calc");
  checkb "Total is incremental" true
    (Hashtbl.mem r.Analysis.incremental_procs "Total")

let test_analysis_reachability () =
  let env = compile Lang.Samples.avl in
  let r = Analysis.analyze env in
  (* Fix, Diff, RotateLeft/Right are reachable from the maintained
     Balance; Insert and InOrder are mutator-only *)
  List.iter
    (fun p ->
      checkb (p ^ " reachable") true
        (Hashtbl.mem r.Analysis.reachable_procs p))
    [ "Balance"; "Fix"; "Diff"; "RotateLeft"; "RotateRight"; "Height" ];
  List.iter
    (fun p ->
      checkb (p ^ " not reachable") false
        (Hashtbl.mem r.Analysis.reachable_procs p))
    [ "Insert"; "InOrder" ];
  (* tree fields are tracked; the mutator-only global [root] is read by
     no incremental procedure *)
  checkb "left tracked" true (Hashtbl.mem r.Analysis.tracked_fields "left");
  checkb "key tracked? only mutator and Insert read key" false
    (Hashtbl.mem r.Analysis.tracked_fields "key");
  checkb "root untracked" false
    (Hashtbl.mem r.Analysis.tracked_globals "root")

let test_analysis_call_sites () =
  let env = compile Lang.Samples.fib_cached in
  let r = Analysis.analyze env in
  let s = r.Analysis.stats in
  (* the two recursive calls inside Fib and the two in the mutator *)
  checki "tracked calls" 4 s.Analysis.tracked_calls;
  checkb "untracked reads exist (locals)" true (s.Analysis.untracked_reads > 0)

(* Dynamic-dispatch resolution over an override chain A <- B <- C: a
   static receiver sees every implementation in its subtree, pragma-less
   overrides inherit the overridden method's pragma, and mi_pos is the
   METHODS/OVERRIDES entry that bound the implementation. *)
let test_dispatch_override_chain () =
  let env =
    compile
      {|MODULE M;
        VAR g : INTEGER;
        TYPE A = OBJECT
          x : INTEGER;
        METHODS
          v() : INTEGER := VA;
          plain() : INTEGER := PA;
        END;
        TYPE B = A OBJECT
        OVERRIDES
          (*MAINTAINED*) v := VB;
        END;
        TYPE C = B OBJECT
        OVERRIDES
          v := VC;
        END;
        VAR it : A;
        PROCEDURE VA(s : A) : INTEGER = BEGIN RETURN s.x END VA;
        PROCEDURE VB(s : A) : INTEGER = BEGIN RETURN s.x + g END VB;
        PROCEDURE VC(s : A) : INTEGER = BEGIN RETURN s.x * 2 END VC;
        PROCEDURE PA(s : A) : INTEGER = BEGIN RETURN 0 END PA;
        BEGIN
          it := NEW(C);
          it.x := 1;
          g := 2;
          Print(it.v(), " ", it.plain(), "\n")
        END M.|}
  in
  let impls cls m =
    Analyze.Callgraph.dispatch_targets env cls m
    |> List.map (fun (mi : Tc.method_info) -> mi.Tc.mi_impl)
    |> List.sort compare |> String.concat " "
  in
  checks "A.v sees the whole chain" "VA VB VC" (impls "A" "v");
  checks "B.v sees B and C" "VB VC" (impls "B" "v");
  checks "C.v sees only C" "VC" (impls "C" "v");
  checks "plain has one impl everywhere" "PA" (impls "C" "plain");
  (* pragma inheritance through the chain *)
  let mi_c = Option.get (Tc.lookup_method env "C" "v") in
  checkb "C.v inherits B's MAINTAINED" true (mi_c.Tc.mi_pragma <> None);
  checkb "C.v is bound at its OVERRIDES entry" true
    (mi_c.Tc.mi_pos.Lang.Ast.line = 15);
  let mi_a = Option.get (Tc.lookup_method env "A" "v") in
  checkb "A.v itself has no pragma" true (mi_a.Tc.mi_pragma = None);
  checkb "A.v is bound at its METHODS entry" true
    (mi_a.Tc.mi_pos.Lang.Ast.line = 6);
  (* a call through the static A receiver may reach incremental code *)
  checkb "A.v may be incremental" true
    (Analyze.Callgraph.method_may_be_incremental env "A" "v");
  checkb "C.v may be incremental" true
    (Analyze.Callgraph.method_may_be_incremental env "C" "v");
  checkb "plain never incremental" false
    (Analyze.Callgraph.method_may_be_incremental env "A" "plain")

let test_connectivity_components () =
  let src =
    {|MODULE M;
      TYPE A = OBJECT x : INTEGER; n : A; METHODS (*MAINTAINED*) f() : INTEGER := F; END;
      TYPE B = OBJECT y : INTEGER; n : B; METHODS (*MAINTAINED*) g() : INTEGER := G; END;
      VAR a : A;
      VAR b : B;
      PROCEDURE F(s : A) : INTEGER = BEGIN RETURN s.x END F;
      PROCEDURE G(s : B) : INTEGER = BEGIN RETURN s.y END G;
      BEGIN
        a := NEW(A); b := NEW(B);
        a.x := 1; b.y := 2;
        Print(a.f(), b.g(), "\n")
      END M.|}
  in
  let env = compile src in
  let r = Analysis.analyze env in
  let comps = Analysis.connectivity env r in
  let id_of name = List.assoc name comps in
  (* two disjoint type hierarchies land in distinct static partitions *)
  checkb "A and B separate" true (id_of "type:A" <> id_of "type:B");
  checkb "F with A" true (id_of "proc:F" = id_of "type:A");
  checkb "G with B" true (id_of "proc:G" = id_of "type:B")

let test_spreadsheet_incrementality () =
  (* Algorithm 10: after the initial evaluation, editing cell 1 must
     re-execute only the dependent expression instances *)
  let env = compile Lang.Samples.spreadsheet in
  let inc = Incr.run ~fuel env in
  checkb "no error" true (inc.Incr.error = None);
  let conv = Interp.run ~fuel env in
  checks "same output" conv.Interp.output inc.Incr.output;
  (* arrays are tracked in this program *)
  let r = Analysis.analyze env in
  checkb "array elements instrumented" true r.Analysis.arrays_tracked

let test_arrays_untracked_when_unused_incrementally () =
  let src =
    {|MODULE M;
      VAR a : ARRAY [1..4] OF INTEGER;
      VAR probe : P;
      VAR x : INTEGER;
      TYPE P = OBJECT METHODS (*MAINTAINED*) v() : INTEGER := V; END;
      PROCEDURE V(s : P) : INTEGER = BEGIN RETURN x END V;
      BEGIN
        probe := NEW(P);
        a[1] := 5;
        x := a[1];
        Print(probe.v(), "
")
      END M.|}
  in
  let env = compile src in
  let r = Analysis.analyze env in
  checkb "no incremental code touches arrays" false r.Analysis.arrays_tracked;
  let inc = Incr.run ~fuel env in
  let conv = Interp.run ~fuel env in
  checks "outputs agree" conv.Interp.output inc.Incr.output;
  (* the array element never got a graph node *)
  checkb "graph stays small" true
    (inc.Incr.graph_stats.Depgraph.Graph.live_nodes <= 2)

(* ------------------------------------------------------------------ *)
(* Effect soundness: the static summaries cover the run-time edges     *)
(* ------------------------------------------------------------------ *)

module Effects = Analyze.Effects
module Telemetry = Alphonse.Telemetry

(* The effect location a storage node of [Incr_interp] stands for. *)
let loc_of_storage name =
  let after i = String.sub name i (String.length name - i) in
  if String.starts_with ~prefix:"global:" name then
    Effects.Global (after (String.length "global:"))
  else if String.starts_with ~prefix:"arr#" name then Effects.Arrays
  else Effects.Field (after (String.rindex name '.' + 1))

(* With every site instrumented, each dependency edge the engine records
   from storage into an instance must name a location in the effect
   summary of the instance's procedure. An edge outside it is a read
   the sharpened §6.1 analysis may leave untracked: a silent stale
   answer. Returns the number of storage edges checked. *)
let check_effect_soundness name src =
  let env = compile src in
  let r = Analysis.analyze env in
  Lang.Ast.iter_exprs (fun e -> e.Lang.Ast.note.tracked <- true) env.Tc.m;
  let eff = Effects.compute env in
  let names = Hashtbl.create 64 and storage = Hashtbl.create 64 in
  let edges = ref 0 in
  let tm = Telemetry.create () in
  Telemetry.set_sink tm
    (Some
       (fun (rc : Telemetry.record) ->
         match rc.ev with
         | Telemetry.Storage_created { id; name } ->
           Hashtbl.replace names id name;
           Hashtbl.replace storage id ()
         | Telemetry.Instance_created { id; name } ->
           Hashtbl.replace names id name;
           Hashtbl.remove storage id
         | Telemetry.Edge_added { src; dst } when Hashtbl.mem storage src ->
           incr edges;
           let cell = Hashtbl.find names src in
           let inst = Hashtbl.find names dst in
           let proc =
             match String.index_opt inst '(' with
             | Some i -> String.sub inst 0 i
             | None -> inst
           in
           let s = Effects.summary eff proc in
           let l = loc_of_storage cell in
           if not (Effects.Locs.mem l (Effects.Locs.union s.reads s.writes))
           then
             Alcotest.failf "%s: %s reads %s, outside its effects %a" name inst
               cell Effects.pp_eff s
         | _ -> ()));
  let st = Incr.init_state ~fuel ~telemetry:tm env r in
  Incr.exec_stmts st (Hashtbl.create 8) env.Tc.m.main;
  !edges

let test_effect_soundness () =
  let edges =
    List.fold_left
      (fun n (name, src) -> n + check_effect_soundness name src)
      0 Lang.Samples.all
  in
  checkb "the samples record storage edges" true (edges > 0);
  checkb "the FOR-scope program reads global i" true
    (check_effect_soundness "for_scope" for_scope > 0)

(* ------------------------------------------------------------------ *)
(* Algorithm 2: the transformed-source display                         *)
(* ------------------------------------------------------------------ *)

let test_marked_output () =
  let env = compile Lang.Samples.sums_maintained in
  let _r = Analysis.analyze env in
  let marked = Lang.Pretty.to_string ~marks:true env.Tc.m in
  checkb "reads of a become access" true (contains "access(a)" marked);
  checkb "writes of b become modify" true (contains "modify(b," marked);
  checkb "total() becomes call" true (contains "call(calc.total)" marked);
  checkb "untracked scratch stays plain" true
    (contains "scratch := 999" marked || contains "scratch :=" marked);
  checkb "scratch not modified-wrapped" false (contains "modify(scratch" marked);
  (* and the unmarked print still parses *)
  let plain = Lang.Pretty.to_string env.Tc.m in
  checkb "plain text has no access()" false (contains "access(" plain)

let () =
  Alcotest.run "transform"
    [
      ( "theorem-5.1",
        [
          Alcotest.test_case "output equivalence" `Quick test_theorem_5_1;
          Alcotest.test_case "FOR index scoped to its loop" `Quick
            test_for_scope;
        ] );
      ( "incrementality",
        [
          Alcotest.test_case "cached fib is linear" `Quick
            test_fib_cached_linear;
          Alcotest.test_case "maintained sums counts" `Quick
            test_sums_maintained_counts;
          Alcotest.test_case "unchecked counts" `Quick test_unchecked_counts;
          Alcotest.test_case "height tree incremental" `Quick
            test_height_tree_incremental;
          Alcotest.test_case "spreadsheet (Algorithm 10)" `Quick
            test_spreadsheet_incrementality;
          Alcotest.test_case "untracked arrays" `Quick
            test_arrays_untracked_when_unused_incrementally;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "tracked sets" `Quick test_analysis_tracked_sets;
          Alcotest.test_case "reachability" `Quick test_analysis_reachability;
          Alcotest.test_case "call sites" `Quick test_analysis_call_sites;
          Alcotest.test_case "dispatch over override chains" `Quick
            test_dispatch_override_chain;
          Alcotest.test_case "connectivity" `Quick
            test_connectivity_components;
          Alcotest.test_case "effect soundness" `Quick test_effect_soundness;
        ] );
      ( "emission",
        [ Alcotest.test_case "marked output" `Quick test_marked_output ] );
    ]
