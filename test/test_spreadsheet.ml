(* Tests for the §7.2 spreadsheet: formula parser, evaluation semantics,
   incremental recalculation counts, cycle handling and recovery, and a
   randomized differential test against the exhaustive oracle. *)

module Engine = Alphonse.Engine
module F = Spreadsheet.Formula

(* CI audit mode: ALPHONSE_AUDIT=1 runs the invariant auditor after
   every settle step of every sheet these tests create. *)
let audit_mode = Sys.getenv_opt "ALPHONSE_AUDIT" = Some "1"

module S = struct
  include Spreadsheet.Sheet

  let create ?strategy ?partitioning () =
    let s = create ?strategy ?partitioning () in
    if audit_mode then Engine.set_self_audit (engine s) true;
    s
end

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let executions eng = (Engine.stats eng).Engine.executions

let value_testable =
  Alcotest.testable
    (fun ppf v -> S.pp_value ppf v)
    (fun a b ->
      match (a, b) with
      | S.Num x, S.Num y -> Float.abs (x -. y) < 1e-9
      | a, b -> a = b)

let check_value = Alcotest.check value_testable

(* ------------------------------------------------------------------ *)
(* Formula parsing                                                     *)
(* ------------------------------------------------------------------ *)

let parse_ok src =
  match F.parse src with
  | Ok e -> e
  | Error msg -> Alcotest.failf "parse %S failed: %s" src msg

let test_parse_basics () =
  checkb "number" true (parse_ok "42" = F.Num 42.);
  checkb "float" true (parse_ok "3.5" = F.Num 3.5);
  checkb "cell" true (parse_ok "B3" = F.Cell (1, 2));
  checkb "two-letter col" true (parse_ok "AA1" = F.Cell (26, 0));
  checkb "precedence" true
    (parse_ok "1+2*3"
    = F.Binop (F.Add, F.Num 1., F.Binop (F.Mul, F.Num 2., F.Num 3.)));
  checkb "parens" true
    (parse_ok "(1+2)*3"
    = F.Binop (F.Mul, F.Binop (F.Add, F.Num 1., F.Num 2.), F.Num 3.));
  checkb "unary minus" true (parse_ok "-A1" = F.Neg (F.Cell (0, 0)));
  checkb "power right assoc" true
    (parse_ok "2^3^2"
    = F.Binop (F.Pow, F.Num 2., F.Binop (F.Pow, F.Num 3., F.Num 2.)));
  checkb "comparison" true
    (parse_ok "A1<=5" = F.Binop (F.Le, F.Cell (0, 0), F.Num 5.));
  checkb "ne" true (parse_ok "A1<>5" = F.Binop (F.Ne, F.Cell (0, 0), F.Num 5.))

let test_parse_functions () =
  checkb "sum range" true
    (parse_ok "SUM(A1:B3)" = F.Agg (F.Sum, { c0 = 0; r0 = 0; c1 = 1; r1 = 2 }));
  checkb "reversed range normalized" true
    (parse_ok "SUM(B3:A1)" = F.Agg (F.Sum, { c0 = 0; r0 = 0; c1 = 1; r1 = 2 }));
  checkb "single-cell range" true
    (parse_ok "COUNT(C2)" = F.Agg (F.Count, { c0 = 2; r0 = 1; c1 = 2; r1 = 1 }));
  checkb "if" true
    (parse_ok "IF(A1,1,2)" = F.If (F.Cell (0, 0), F.Num 1., F.Num 2.));
  checkb "abs" true (parse_ok "ABS(-3)" = F.Fn1 (F.Abs, F.Neg (F.Num 3.)));
  checkb "case-insensitive fn" true
    (parse_ok "sum(A1:A2)" = F.Agg (F.Sum, { c0 = 0; r0 = 0; c1 = 0; r1 = 1 }))

let test_parse_errors () =
  let bad src = match F.parse src with Ok _ -> false | Error _ -> true in
  checkb "empty" true (bad "");
  checkb "trailing" true (bad "1 2");
  checkb "unknown fn" true (bad "FOO(1)");
  checkb "unclosed" true (bad "(1+2");
  checkb "lone op" true (bad "*3");
  checkb "bad char" true (bad "1 $ 2");
  (* coordinates run to 2^31 - 1: a cell-value instance is keyed by
     both packed in one int *)
  checkb "last row" false (bad "A2147483648");
  checkb "row out of range" true (bad "A2147483649");
  checkb "row overflows an int" true (bad "A99999999999999999999");
  checkb "last column" false (bad "FXSHRXX1");
  checkb "column out of range" true (bad "FXSHRXY1");
  let s = S.create () in
  S.set_raw s (0, F.max_coord) "3";
  check_value "last row holds a value" (S.Num 3.) (S.value s (0, F.max_coord));
  check_value "first row apart" S.Empty (S.value s (0, 0));
  Alcotest.check_raises "negative row"
    (Invalid_argument "Sheet: cell (0, -1) out of range") (fun () ->
      ignore (S.value s (0, -1)))

let test_cell_names () =
  Alcotest.(check string) "A1" "A1" (F.name_of_cell (0, 0));
  Alcotest.(check string) "Z10" "Z10" (F.name_of_cell (25, 9));
  Alcotest.(check string) "AA1" "AA1" (F.name_of_cell (26, 0));
  Alcotest.(check string) "AB12" "AB12" (F.name_of_cell (27, 11))

(* Round trip: pretty-printing then parsing is the identity. *)
let rec expr_gen depth =
  let open QCheck.Gen in
  if depth = 0 then
    oneof
      [
        map (fun n -> F.Num (float_of_int n)) (int_bound 100);
        map2 (fun c r -> F.Cell (c, r)) (int_bound 30) (int_bound 30);
      ]
  else
    frequency
      [
        (2, expr_gen 0);
        ( 2,
          map3
            (fun op a b -> F.Binop (op, a, b))
            (oneofl [ F.Add; F.Sub; F.Mul; F.Div; F.Lt; F.Ge; F.Ne ])
            (expr_gen (depth - 1))
            (expr_gen (depth - 1)) );
        (1, map (fun e -> F.Neg e) (expr_gen (depth - 1)));
        ( 1,
          map
            (fun (a, (c0, r0), (c1, r1)) ->
              F.Agg
                ( a,
                  {
                    c0 = min c0 c1;
                    r0 = min r0 r1;
                    c1 = max c0 c1;
                    r1 = max r0 r1;
                  } ))
            (triple
               (oneofl [ F.Sum; F.Avg; F.Min; F.Max; F.Count ])
               (pair (int_bound 10) (int_bound 10))
               (pair (int_bound 10) (int_bound 10))) );
        ( 1,
          map3
            (fun a b c -> F.If (a, b, c))
            (expr_gen (depth - 1))
            (expr_gen (depth - 1))
            (expr_gen (depth - 1)) );
        ( 1,
          map2
            (fun f e -> F.Fn1 (f, e))
            (oneofl [ F.Abs; F.Sqrt; F.Round ])
            (expr_gen (depth - 1)) );
      ]

let prop_parse_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip"
    (QCheck.make ~print:F.to_string (expr_gen 3))
    (fun e ->
      match F.parse (F.to_string e) with Ok e' -> e' = e | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Sheet evaluation                                                    *)
(* ------------------------------------------------------------------ *)

let test_sheet_basics () =
  let s = S.create () in
  S.set s "A1" "10";
  S.set s "A2" "32";
  S.set s "A3" "=A1+A2";
  check_value "sum" (S.Num 42.) (S.value_at s "A3");
  S.set s "A1" "100";
  check_value "after edit" (S.Num 132.) (S.value_at s "A3");
  check_value "blank cell" S.Empty (S.value_at s "Z9");
  S.set s "B1" "=Z9+1" (* blank reads as 0 *);
  check_value "blank in arithmetic" (S.Num 1.) (S.value_at s "B1")

let test_sheet_aggregates () =
  let s = S.create () in
  for r = 1 to 10 do
    S.set s (Printf.sprintf "A%d" r) (string_of_int r)
  done;
  S.set s "B1" "=SUM(A1:A10)";
  S.set s "B2" "=AVG(A1:A10)";
  S.set s "B3" "=MIN(A1:A10)";
  S.set s "B4" "=MAX(A1:A10)";
  S.set s "B5" "=COUNT(A1:A10)";
  check_value "sum" (S.Num 55.) (S.value_at s "B1");
  check_value "avg" (S.Num 5.5) (S.value_at s "B2");
  check_value "min" (S.Num 1.) (S.value_at s "B3");
  check_value "max" (S.Num 10.) (S.value_at s "B4");
  check_value "count" (S.Num 10.) (S.value_at s "B5");
  (* blanks are skipped by aggregates *)
  S.set s "A5" "";
  check_value "sum skips blank" (S.Num 50.) (S.value_at s "B1");
  check_value "count skips blank" (S.Num 9.) (S.value_at s "B5")

let test_sheet_errors () =
  let s = S.create () in
  S.set s "A1" "=1/0";
  check_value "div0" (S.Error S.Div_by_zero) (S.value_at s "A1");
  S.set s "A2" "=SQRT(-1)";
  check_value "sqrt neg" (S.Error S.Bad_arg) (S.value_at s "A2");
  S.set s "A3" "=A1+1" (* errors propagate *);
  check_value "propagates" (S.Error S.Div_by_zero) (S.value_at s "A3");
  S.set s "A4" "=FOO(";
  (match S.value_at s "A4" with
  | S.Error (S.Parse _) -> ()
  | v -> Alcotest.failf "expected parse error, got %a" S.pp_value v);
  S.set s "A5" "hello";
  (match S.value_at s "A5" with
  | S.Error (S.Parse _) -> ()
  | v -> Alcotest.failf "expected parse error, got %a" S.pp_value v);
  (* errors inside an aggregated range *)
  S.set s "B1" "=SUM(A1:A3)";
  check_value "agg surfaces error" (S.Error S.Div_by_zero) (S.value_at s "B1")

(* Errors are plain values: they flow through multi-level dependents,
   and fixing the origin cell heals the whole cone incrementally. *)
let test_sheet_error_recovery () =
  let s = S.create () in
  S.set s "A1" "=1/0";
  S.set s "B1" "=A1*2";
  S.set s "C1" "=B1+A1";
  check_value "origin" (S.Error S.Div_by_zero) (S.value_at s "A1");
  check_value "level 1" (S.Error S.Div_by_zero) (S.value_at s "B1");
  check_value "level 2" (S.Error S.Div_by_zero) (S.value_at s "C1");
  S.set s "A1" "4";
  check_value "origin healed" (S.Num 4.) (S.value_at s "A1");
  check_value "cone healed" (S.Num 12.) (S.value_at s "C1");
  (* a reference that fails to parse becomes an error value too *)
  S.set s "A1" "=B$Z";
  (match S.value_at s "C1" with
  | S.Error (S.Parse _) -> ()
  | v -> Alcotest.failf "expected parse error downstream, got %a" S.pp_value v);
  S.set s "A1" "1";
  check_value "healed again" (S.Num 3.) (S.value_at s "C1");
  (* incremental and exhaustive agree throughout error states *)
  S.set s "A1" "=1/0";
  List.iter
    (fun c ->
      Alcotest.(check bool)
        "inc = exhaustive" true
        (S.value s c = S.exhaustive_value s c))
    (S.coords s)

let test_sheet_if () =
  let s = S.create () in
  S.set s "A1" "5";
  S.set s "B1" "=IF(A1>3, 100, 200)";
  check_value "then" (S.Num 100.) (S.value_at s "B1");
  S.set s "A1" "2";
  check_value "else" (S.Num 200.) (S.value_at s "B1")

let test_sheet_render () =
  let s = S.create () in
  S.set s "A1" "10";
  S.set s "B2" "=A1*2";
  let grid = S.render s in
  let contains sub str =
    let n = String.length sub and m = String.length str in
    let rec go i = i + n <= m && (String.sub str i n = sub || go (i + 1)) in
    go 0
  in
  checkb "has headers" true (contains "A" grid && contains "B" grid);
  checkb "has value 10" true (contains "10" grid);
  checkb "has computed 20" true (contains "20" grid);
  Alcotest.(check string) "empty sheet" "(empty sheet)\n" (S.render (S.create ()))

let test_sheet_cycles () =
  let s = S.create () in
  S.set s "A1" "=B1";
  S.set s "B1" "=A1";
  check_value "cycle A" (S.Error S.Cycle) (S.value_at s "A1");
  check_value "cycle B" (S.Error S.Cycle) (S.value_at s "B1");
  (* break the cycle at B: both cells must recover *)
  S.set s "B1" "7";
  check_value "B recovered" (S.Num 7.) (S.value_at s "B1");
  check_value "A recovered" (S.Num 7.) (S.value_at s "A1");
  (* self-cycle *)
  S.set s "C1" "=C1+1";
  check_value "self cycle" (S.Error S.Cycle) (S.value_at s "C1");
  S.set s "C1" "=A1+1";
  check_value "self recovered" (S.Num 8.) (S.value_at s "C1")

(* Regression: an eager sheet closes a cycle through a range while
   every cell of it is consistent. D2 sums A1:C3, so it reads B1; then
   B1 := D2+0 reads D2, which is still consistent, so no execution
   meets B1 on the call stack. The engine must still see the cycle that
   edge closes and answer [Error Cycle] for both cells, as the
   exhaustive evaluation does (the parent answered 0 for both). *)
let test_eager_range_cycle () =
  let s = S.create ~strategy:Engine.Eager () in
  let read_all what =
    for c = 0 to 3 do
      for r = 0 to 3 do
        let inc = S.value s (c, r) and ora = S.exhaustive_value s (c, r) in
        if inc <> ora then
          Alcotest.failf "%s: %s is %a, exhaustive %a" what
            (F.name_of_cell (c, r)) S.pp_value inc S.pp_value ora
      done
    done
  in
  read_all "empty sheet";
  S.set s "D2" "=SUM(A1:C3)";
  read_all "after D2";
  S.set s "B1" "=D2+0";
  read_all "after B1";
  check_value "B1" (S.Error S.Cycle) (S.value_at s "B1");
  check_value "D2" (S.Error S.Cycle) (S.value_at s "D2")

(* Regression: [Inspect.parallel_profile] on a graph with a cycle. The
   level computation cuts cycles at level 0, so an instance on the cut
   used to land on level -1 and vanish from the width table (its width
   went missing while total_instances still counted it). *)
let test_parallel_profile_cycle () =
  let s = S.create () in
  S.set s "A1" "=B1";
  S.set s "B1" "=A1";
  check_value "cycle A" (S.Error S.Cycle) (S.value_at s "A1");
  S.set s "C1" "=A1+1";
  check_value "downstream of cycle" (S.Error S.Cycle) (S.value_at s "C1");
  let p = Alphonse.Inspect.parallel_profile (S.engine s) in
  let widths = p.Alphonse.Inspect.level_widths in
  checkb "no negative levels: widths account for every instance" true
    (List.fold_left ( + ) 0 widths = p.Alphonse.Inspect.total_instances);
  checkb "all widths non-negative" true (List.for_all (fun w -> w >= 0) widths);
  checkb "critical path positive" true (p.Alphonse.Inspect.critical_path >= 1)

let test_sheet_incremental_chain () =
  let s = S.create () in
  let eng = S.engine s in
  S.set s "A1" "1";
  for r = 2 to 100 do
    S.set_raw s (0, r - 1) (Printf.sprintf "=A%d+1" (r - 1))
  done;
  check_value "chain end" (S.Num 100.) (S.value s (0, 99));
  let before = executions eng in
  (* editing the middle re-executes only the downstream half *)
  S.set s "A50" "1000";
  check_value "after middle edit" (S.Num 1050.) (S.value s (0, 99));
  let cost = executions eng - before in
  checkb (Fmt.str "chain edit cost %d ≈ downstream" cost) true
    (cost >= 50 && cost <= 55);
  (* A50 is now a constant, so the tail no longer depends on the head:
     a head edit leaves the queried tail value a pure cache hit *)
  let before = executions eng in
  S.set s "A1" "2";
  check_value "after head edit" (S.Num 1050.) (S.value s (0, 99));
  checki "tail query untouched by head edit" 0 (executions eng - before);
  (* the upstream half re-executes only when something demands it *)
  check_value "upstream demanded" (S.Num 50.) (S.value s (0, 48));
  let cost = executions eng - before in
  checkb (Fmt.str "upstream cost %d ≈ 49" cost) true
    (cost >= 48 && cost <= 52)

let test_sheet_fan_in () =
  let s = S.create () in
  let eng = S.engine s in
  for r = 1 to 64 do
    S.set_raw s (0, r - 1) (string_of_int r)
  done;
  S.set s "B1" "=SUM(A1:A64)";
  check_value "sum" (S.Num 2080.) (S.value_at s "B1");
  let before = executions eng in
  S.set s "A32" "0";
  check_value "after edit" (S.Num 2048.) (S.value_at s "B1");
  (* exactly A32's value instance and the sum re-execute *)
  checki "only A32 and the sum re-executed" 2 (executions eng - before)

let test_sheet_cutoff () =
  let s = S.create ~strategy:Engine.Eager () in
  let eng = S.engine s in
  S.set s "A1" "5";
  S.set s "B1" "=A1>0";
  S.set s "C1" "=B1*100";
  check_value "c1" (S.Num 100.) (S.value_at s "C1");
  let before = executions eng in
  S.set s "A1" "9" (* still positive: B1 recomputes to the same 1 *);
  check_value "unchanged" (S.Num 100.) (S.value_at s "C1");
  (* A1's value and B1 re-execute; quiescence stops propagation at B1,
     so C1 is never re-executed *)
  checki "propagation stopped at B1" 2 (executions eng - before)

(* ------------------------------------------------------------------ *)
(* Randomized differential test                                        *)
(* ------------------------------------------------------------------ *)

(* Random edits over a 4×4 grid, with formulas referencing random cells
   and ranges (cycles permitted); after every edit, every cell must agree
   with the exhaustive oracle. *)
let random_input rand =
  match Random.State.int rand 6 with
  | 0 -> string_of_int (Random.State.int rand 20)
  | 1 -> "" (* clear *)
  | 2 ->
    Printf.sprintf "=%s+%d"
      (F.name_of_cell (Random.State.int rand 4, Random.State.int rand 4))
      (Random.State.int rand 10)
  | 3 ->
    Printf.sprintf "=%s*%s"
      (F.name_of_cell (Random.State.int rand 4, Random.State.int rand 4))
      (F.name_of_cell (Random.State.int rand 4, Random.State.int rand 4))
  | 4 ->
    let c0 = Random.State.int rand 4 and r0 = Random.State.int rand 4 in
    let c1 = Random.State.int rand 4 and r1 = Random.State.int rand 4 in
    Printf.sprintf "=SUM(%s:%s)"
      (F.name_of_cell (min c0 c1, min r0 r1))
      (F.name_of_cell (max c0 c1, max r0 r1))
  | _ ->
    Printf.sprintf "=IF(%s>5,%s,%d)"
      (F.name_of_cell (Random.State.int rand 4, Random.State.int rand 4))
      (F.name_of_cell (Random.State.int rand 4, Random.State.int rand 4))
      (Random.State.int rand 10)

let values_agree a b =
  match (a, b) with
  | S.Num x, S.Num y -> Float.abs (x -. y) < 1e-6
  | a, b -> a = b

(* The same generated edits under each configuration, cycles included:
   an eager engine must report every cycle as the exhaustive evaluation
   does, and settle — a step cap turns a settle that diverges into a
   failed case ([Engine.Cancelled]) instead of a hung test. *)
let prop_sheet_differential ?strategy ?partitioning ~max_steps name =
  QCheck.Test.make ~name
    QCheck.(make Gen.(pair int (int_range 5 max_steps)))
    (fun (seed, steps) ->
      let rand = Random.State.make [| seed |] in
      let s = S.create ?strategy ?partitioning () in
      let ok = ref true in
      for _ = 1 to steps do
        let c = Random.State.int rand 4 and r = Random.State.int rand 4 in
        S.set_raw s (c, r) (random_input rand);
        Engine.with_budget (S.engine s)
          (Engine.Budget.create ~max_steps:100_000 ())
          (fun () ->
            for c = 0 to 3 do
              for r = 0 to 3 do
                let inc = S.value s (c, r) in
                let ora = S.exhaustive_value s (c, r) in
                if not (values_agree inc ora) then ok := false
              done
            done)
      done;
      !ok)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "spreadsheet"
    [
      ( "formula",
        Alcotest.test_case "basics" `Quick test_parse_basics
        :: Alcotest.test_case "functions" `Quick test_parse_functions
        :: Alcotest.test_case "errors" `Quick test_parse_errors
        :: Alcotest.test_case "cell names" `Quick test_cell_names
        :: qsuite [ prop_parse_roundtrip ] );
      ( "sheet",
        [
          Alcotest.test_case "basics" `Quick test_sheet_basics;
          Alcotest.test_case "aggregates" `Quick test_sheet_aggregates;
          Alcotest.test_case "errors" `Quick test_sheet_errors;
          Alcotest.test_case "error recovery" `Quick test_sheet_error_recovery;
          Alcotest.test_case "if" `Quick test_sheet_if;
          Alcotest.test_case "cycles" `Quick test_sheet_cycles;
          Alcotest.test_case "eager range cycle" `Quick test_eager_range_cycle;
          Alcotest.test_case "parallel profile with cycle" `Quick
            test_parallel_profile_cycle;
          Alcotest.test_case "render" `Quick test_sheet_render;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "chain" `Quick test_sheet_incremental_chain;
          Alcotest.test_case "fan-in" `Quick test_sheet_fan_in;
          Alcotest.test_case "quiescence cutoff" `Quick test_sheet_cutoff;
        ] );
      ( "differential",
        qsuite
          [
            prop_sheet_differential ~max_steps:40
              "sheet incremental = exhaustive oracle";
            prop_sheet_differential ~strategy:Engine.Eager ~partitioning:true
              ~max_steps:30 "sheet incremental = oracle (eager+partitions)";
            prop_sheet_differential ~strategy:Engine.Eager ~max_steps:30
              "sheet incremental = oracle (eager)";
          ] );
    ]
