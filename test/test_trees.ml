(* Tests for the maintained-height trees (Algorithm 1) and the
   self-balancing AVL trees (Algorithm 11 / §7.3), including differential
   tests against the hand-coded baseline of §9. *)

(* CI audit mode: ALPHONSE_AUDIT=1 runs the invariant auditor after
   every settle step of every engine these tests create. *)
let audit_mode = Sys.getenv_opt "ALPHONSE_AUDIT" = Some "1"

module Engine = struct
  include Alphonse.Engine

  let create ?partitioning ?default_strategy ?max_retries () =
    let eng = create ?partitioning ?default_strategy ?max_retries () in
    if audit_mode then set_self_audit eng true;
    eng
end

module Var = Alphonse.Var
module Itree = Trees.Itree
module Avl = Trees.Avl
module B = Trees.Avl_baseline

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let executions eng = (Engine.stats eng).Engine.executions

(* ------------------------------------------------------------------ *)
(* Maintained height (Algorithm 1)                                     *)
(* ------------------------------------------------------------------ *)

let test_height_basic () =
  let eng = Engine.create () in
  let t = Itree.create eng in
  let tree = Itree.perfect t 0 62 in
  (* 63 keys: perfect tree of height 6 *)
  checki "height" 6 (Itree.height t tree);
  checki "matches exhaustive" (Itree.height_exhaustive tree)
    (Itree.height t tree);
  (* first call pays O(n): one execution per subtree incl. Nil *)
  checkb "first call O(n)" true (executions eng >= 63);
  let before = executions eng in
  checki "repeat" 6 (Itree.height t tree);
  checki "repeat is O(1)" before (executions eng)

let test_height_single_change_costs_path () =
  let eng = Engine.create () in
  let t = Itree.create eng in
  let tree = Itree.perfect t 0 1022 in
  (* height 9, 1023 nodes *)
  checki "initial height" 10 (Itree.height t tree);
  let before = executions eng in
  (* graft a spine under a deep leaf: only the root path must re-run *)
  let deep =
    let rec leftmost = function
      | Itree.Nil -> assert false
      | Itree.Node n -> (
        match Var.get n.left with Itree.Nil -> n | sub -> leftmost sub)
    in
    leftmost tree
  in
  Var.set deep.Itree.left (Itree.spine t 4);
  checki "height grew" 14 (Itree.height t tree);
  let cost = executions eng - before in
  (* re-executions: new spine subtrees (≈ 2*4+1 nodes incl Nils) plus the
     root path (≈ 10) — far less than the 1023-node tree *)
  checkb "cost bounded by path + new nodes" true (cost <= 40)

let test_height_batched_changes () =
  let eng = Engine.create () in
  let t = Itree.create eng in
  let tree = Itree.perfect t 0 254 in
  checki "initial" 8 (Itree.height t tree);
  let before = executions eng in
  (* batch several changes before asking again: updates are shared *)
  let interior = Itree.nodes tree in
  let pick i = List.nth interior (i * 37 mod List.length interior) in
  for i = 0 to 4 do
    let n = pick i in
    Var.set n.Itree.left (Var.get n.Itree.left)
    (* equal write: no-op *);
    Var.set n.Itree.right (Var.get n.Itree.right)
  done;
  ignore (Itree.height t tree);
  checki "no-op batch costs nothing" before (executions eng)

let test_height_spine_vs_random () =
  let eng = Engine.create () in
  let t = Itree.create eng in
  let s = Itree.spine t 50 in
  checki "spine height" 50 (Itree.height t s);
  let rand = Random.State.make [| 7 |] in
  let r = Itree.random t ~rand 200 in
  let h = Itree.height t r in
  checkb "random tree reasonably shallow" true (h < 50);
  checki "exhaustive agrees" (Itree.height_exhaustive r) h

(* Random pointer mutations: incremental height must always equal the
   exhaustive recomputation (Theorem 5.1 instance). *)
let prop_height_equals_exhaustive =
  QCheck.Test.make ~name:"maintained height = exhaustive height"
    QCheck.(list (pair (int_bound 30) bool))
    (fun moves ->
      let eng = Engine.create () in
      let t = Itree.create eng in
      let rand = Random.State.make [| 99 |] in
      let tree = Itree.random t ~rand 32 in
      List.for_all
        (fun (i, to_left) ->
          (* move: detach some subtree and graft it elsewhere *)
          let interior = Itree.nodes tree in
          let n = List.nth interior (i mod List.length interior) in
          let donor = List.nth interior (i * 13 mod List.length interior) in
          if n.Itree.id <> donor.Itree.id then begin
            (* detach donor's right subtree, graft under n — this can
               create shared/odd shapes; height is still well-defined as
               long as no cycle forms, so only graft leaves *)
            let sub = Var.get donor.Itree.right in
            match sub with
            | Itree.Nil ->
              if to_left then Var.set n.Itree.left Itree.Nil
              else Var.set n.Itree.right Itree.Nil
            | Itree.Node _ -> ()
          end;
          Itree.height t tree = Itree.height_exhaustive tree)
        moves)

(* ------------------------------------------------------------------ *)
(* AVL (Algorithm 11)                                                  *)
(* ------------------------------------------------------------------ *)

let test_avl_sorted_inserts () =
  let eng = Engine.create () in
  let t = Avl.create eng in
  for k = 1 to 100 do
    Avl.insert t k
  done;
  Avl.rebalance t;
  checkb "balanced" true (Avl.is_balanced (Avl.root t));
  checkb "ordered" true (Avl.is_ordered (Avl.root t));
  checki "all present" 100 (Avl.size t);
  checkb "logarithmic height" true (Avl.check_height (Avl.root t) <= 8);
  Alcotest.(check (list int))
    "sorted contents"
    (List.init 100 (fun i -> i + 1))
    (Avl.to_list t)

let test_avl_interleaved_ops () =
  let eng = Engine.create () in
  let t = Avl.create eng in
  for k = 1 to 60 do
    Avl.insert t k
  done;
  Avl.rebalance t;
  for k = 1 to 30 do
    Avl.delete t (2 * k)
  done;
  Avl.rebalance t;
  checkb "balanced after deletes" true (Avl.is_balanced (Avl.root t));
  checkb "ordered after deletes" true (Avl.is_ordered (Avl.root t));
  Alcotest.(check (list int))
    "odd keys remain"
    (List.init 30 (fun i -> (2 * i) + 1))
    (Avl.to_list t);
  checkb "mem finds odd" true (Avl.mem t 31);
  checkb "mem misses even" false (Avl.mem t 30)

let test_avl_batch_then_balance () =
  (* the off-line mode: arbitrary batched mutations, then one balance *)
  let eng = Engine.create () in
  let t = Avl.create eng in
  for k = 100 downto 1 do
    Avl.insert t k
  done;
  (* no intermediate rebalances at all: tree is currently a left spine *)
  checki "spine height before" 100 (Avl.check_height (Avl.root t));
  Avl.rebalance t;
  checkb "balanced in one pass" true (Avl.is_balanced (Avl.root t));
  checkb "still ordered" true (Avl.is_ordered (Avl.root t))

let test_avl_incremental_cheapness () =
  let eng = Engine.create () in
  let t = Avl.create eng in
  for k = 1 to 512 do
    Avl.insert t k;
    Avl.rebalance t
  done;
  let before = executions eng in
  Avl.insert t 1000;
  Avl.rebalance t;
  let cost = executions eng - before in
  (* one insertion re-runs only the root path's balance/height instances *)
  checkb
    (Fmt.str "single insert is O(log n) work (cost=%d)" cost)
    true (cost < 150)

let test_avl_eager_strategy () =
  let eng = Engine.create ~default_strategy:Engine.Eager () in
  let t = Avl.create eng in
  for k = 1 to 50 do
    Avl.insert t k;
    Avl.rebalance t
  done;
  checkb "balanced (eager)" true (Avl.is_balanced (Avl.root t));
  checkb "ordered (eager)" true (Avl.is_ordered (Avl.root t))

let test_avl_with_partitioning () =
  let eng = Engine.create ~partitioning:true () in
  let t = Avl.create eng in
  for k = 1 to 50 do
    Avl.insert t (k * 7 mod 53);
    Avl.rebalance t
  done;
  checkb "balanced (partitioned)" true (Avl.is_balanced (Avl.root t));
  checkb "ordered (partitioned)" true (Avl.is_ordered (Avl.root t))

(* Differential: Alphonse AVL vs hand-coded baseline vs sorted list. *)
let prop_avl_differential =
  QCheck.Test.make ~name:"alphonse AVL = baseline AVL = model"
    QCheck.(list (pair bool (int_bound 40)))
    (fun ops ->
      let eng = Engine.create () in
      let t = Avl.create eng in
      let b = ref B.Nil in
      let model = ref [] in
      List.for_all
        (fun (is_insert, k) ->
          if is_insert then begin
            Avl.insert t k;
            b := B.insert !b k;
            if not (List.mem k !model) then model := k :: !model
          end
          else begin
            Avl.delete t k;
            b := B.delete !b k;
            model := List.filter (fun x -> x <> k) !model
          end;
          Avl.rebalance t;
          let expected = List.sort compare !model in
          Avl.to_list t = expected
          && B.to_list !b = expected
          && Avl.is_balanced (Avl.root t)
          && Avl.is_ordered (Avl.root t)
          && B.is_balanced !b)
        ops)

(* ------------------------------------------------------------------ *)
(* Order statistics (maintained size)                                  *)
(* ------------------------------------------------------------------ *)

module Ostat = Trees.Ostat

let test_ostat_basic () =
  let eng = Engine.create () in
  let t = Ostat.create eng in
  List.iter (Ostat.insert t) [ 50; 20; 80; 10; 30; 70; 90 ];
  checki "size" 7 (Ostat.size t);
  checki "select 0" 10 (Ostat.select t 0);
  checki "select 3" 50 (Ostat.select t 3);
  checki "select 6" 90 (Ostat.select t 6);
  checki "rank of absent key" 2 (Ostat.rank t 25);
  checki "rank of present key" 4 (Ostat.rank t 70);
  checki "median" 50 (Ostat.median t);
  checkb "select out of range" true
    (match Ostat.select t 7 with _ -> false | exception Not_found -> true)

let test_ostat_incremental_updates () =
  let eng = Engine.create () in
  let t = Ostat.create eng in
  for k = 1 to 256 do
    Ostat.insert t k
  done;
  checki "initial size" 256 (Ostat.size t);
  (* warm up: the first query after the bulk rebalance pays a one-time
     O(n) because the rotations created new subtree-root positions *)
  ignore (Ostat.size t);
  let before = executions eng in
  Ostat.insert t 1000;
  checki "size tracks insert" 257 (Ostat.size t);
  let cost = executions eng - before in
  checkb (Fmt.str "one insert updates O(log n) sizes (cost=%d)" cost) true
    (cost < 120);
  Ostat.delete t 128;
  checki "size tracks delete" 256 (Ostat.size t);
  checki "select skips deleted" 129 (Ostat.select t 127)

let prop_ostat_matches_sorted_list =
  QCheck.Test.make ~name:"rank/select = sorted-list oracle"
    QCheck.(list (pair bool (int_bound 60)))
    (fun ops ->
      let eng = Engine.create () in
      let t = Ostat.create eng in
      let model = ref [] in
      List.for_all
        (fun (is_insert, k) ->
          if is_insert then begin
            Ostat.insert t k;
            if not (List.mem k !model) then model := k :: !model
          end
          else begin
            Ostat.delete t k;
            model := List.filter (fun x -> x <> k) !model
          end;
          let sorted = List.sort compare !model in
          let n = List.length sorted in
          Ostat.size t = n
          && List.for_all2
               (fun i want -> Ostat.select t i = want)
               (List.init n (fun i -> i))
               sorted
          && List.for_all
               (fun k ->
                 Ostat.rank t k
                 = List.length (List.filter (fun x -> x < k) sorted))
               [ 0; 15; 30; 45; 61 ])
        ops)

(* ------------------------------------------------------------------ *)
(* Baseline self-checks                                                *)
(* ------------------------------------------------------------------ *)

let test_baseline_avl () =
  let t = ref B.Nil in
  for k = 1 to 1000 do
    t := B.insert !t k
  done;
  checkb "balanced" true (B.is_balanced !t);
  checki "size" 1000 (B.size !t);
  checkb "height logarithmic" true (B.check_height !t <= 12);
  for k = 1 to 500 do
    t := B.delete !t (k * 2)
  done;
  checkb "balanced after deletes" true (B.is_balanced !t);
  checki "size after deletes" 500 (B.size !t);
  checkb "mem" true (B.mem !t 499);
  checkb "not mem" false (B.mem !t 500)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "trees"
    [
      ( "height",
        Alcotest.test_case "basic" `Quick test_height_basic
        :: Alcotest.test_case "single change costs path" `Quick
             test_height_single_change_costs_path
        :: Alcotest.test_case "batched no-op changes" `Quick
             test_height_batched_changes
        :: Alcotest.test_case "spine vs random" `Quick
             test_height_spine_vs_random
        :: qsuite [ prop_height_equals_exhaustive ] );
      ( "avl",
        Alcotest.test_case "sorted inserts" `Quick test_avl_sorted_inserts
        :: Alcotest.test_case "interleaved ops" `Quick test_avl_interleaved_ops
        :: Alcotest.test_case "batch then balance" `Quick
             test_avl_batch_then_balance
        :: Alcotest.test_case "incremental cheapness" `Quick
             test_avl_incremental_cheapness
        :: Alcotest.test_case "eager strategy" `Quick test_avl_eager_strategy
        :: Alcotest.test_case "with partitioning" `Quick
             test_avl_with_partitioning
        :: qsuite [ prop_avl_differential ] );
      ( "ostat",
        Alcotest.test_case "basics" `Quick test_ostat_basic
        :: Alcotest.test_case "incremental updates" `Quick
             test_ostat_incremental_updates
        :: qsuite [ prop_ostat_matches_sorted_list ] );
      ("baseline", [ Alcotest.test_case "hand-coded AVL" `Quick test_baseline_avl ]);
    ]
