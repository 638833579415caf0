(* Benchmark harness reproducing the paper's evaluation claims (E1–E16 in
   DESIGN.md). The paper has no numeric tables; its evaluation is the
   asymptotic analysis of §9, the per-example claims of §3.4/§7, and the
   optimizations of §6. Each experiment below prints a table of
   paper-claim vs measured rows; the Bechamel suite at the end provides
   wall-clock microbenchmarks for the timing-sensitive comparisons.

     dune exec bench/main.exe                 # all experiments + micro
     dune exec bench/main.exe -- report       # count/shape tables only
     dune exec bench/main.exe -- micro        # Bechamel suite only
     dune exec bench/main.exe -- E4 E7        # a subset of experiments *)

module Engine = Alphonse.Engine
module Var = Alphonse.Var
module Func = Alphonse.Func
module Policy = Alphonse.Policy
module Json = Alphonse.Json
module Itree = Trees.Itree
module Avl = Trees.Avl
module Base = Trees.Avl_baseline
module Sheet = Spreadsheet.Sheet
module L = Attrgram.Let_lang

let executions eng = (Engine.stats eng).Engine.executions
let settle_steps eng = (Engine.stats eng).Engine.settle_steps

let now () = Unix.gettimeofday ()

let time_of f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Table printing                                                      *)
(* ------------------------------------------------------------------ *)

(* Machine-readable results: every table printed below is also recorded
   here, and the driver dumps them (with per-experiment wall clock) to
   BENCH_results.json, so the perf trajectory is tracked across PRs
   instead of living in scrollback. *)
type recorded_table = {
  rt_title : string;
  rt_claim : string;
  rt_headers : string list;
  rt_rows : string list list;
}

let recorded_tables : recorded_table list ref = ref []

let print_table ~title ~claim headers rows =
  recorded_tables :=
    { rt_title = title; rt_claim = claim; rt_headers = headers;
      rt_rows = rows }
    :: !recorded_tables;
  Fmt.pr "@.== %s ==@." title;
  Fmt.pr "   claim: %s@." claim;
  let cols = List.length headers in
  let width c =
    List.fold_left
      (fun w row -> max w (String.length (List.nth row c)))
      (String.length (List.nth headers c))
      rows
  in
  let widths = List.init cols width in
  let line row =
    Fmt.pr "   %s@."
      (String.concat "  "
         (List.mapi
            (fun i cell ->
              let w = List.nth widths i in
              cell ^ String.make (w - String.length cell) ' ')
            row))
  in
  line headers;
  line (List.map (fun w -> String.make w '-') widths);
  List.iter line rows

let fi = string_of_int
let ff f = Fmt.str "%.2f" f
let fms t = Fmt.str "%.2fms" (t *. 1000.)

(* ------------------------------------------------------------------ *)
(* E1 — §3.4: maintained height cost profile                           *)
(* ------------------------------------------------------------------ *)

let e1 () =
  let rows =
    List.map
      (fun n ->
        let eng = Engine.create () in
        let forest = Itree.create eng in
        let tree = Itree.perfect forest 0 (n - 1) in
        ignore (Itree.height forest tree);
        let first = executions eng in
        Engine.reset_stats eng;
        ignore (Itree.height forest tree);
        let repeat = executions eng in
        (* one pointer change at a deepest leaf *)
        let rec leftmost = function
          | Itree.Nil -> assert false
          | Itree.Node nd -> (
            match Var.get nd.Itree.left with
            | Itree.Nil -> nd
            | sub -> leftmost sub)
        in
        Engine.reset_stats eng;
        let leaf = leftmost tree in
        Var.set leaf.Itree.left (Itree.node forest (-1));
        ignore (Itree.height forest tree);
        let single = executions eng in
        (* a batch of 8 pointer changes before one query *)
        Engine.reset_stats eng;
        let interior = Array.of_list (Itree.nodes tree) in
        for i = 1 to 8 do
          let nd = interior.(i * 997 mod Array.length interior) in
          Var.set nd.Itree.right (Var.get nd.Itree.right)
          (* no-op write *);
          Var.set nd.Itree.left (Var.get nd.Itree.left)
        done;
        let nd = interior.(Array.length interior / 3) in
        Var.set nd.Itree.left (Itree.node forest (-2));
        ignore (Itree.height forest tree);
        let batched = executions eng in
        [ fi n; fi first; fi repeat; fi single; fi batched ])
      [ 1023; 4095; 16383; 65535 ]
  in
  print_table ~title:"E1  maintained height (§3.4)"
    ~claim:
      "first call O(n); repeats O(1); a pointer change O(height); batched \
       no-op changes propagate nothing"
    [ "n"; "first-call"; "re-query"; "1-change"; "batch(8 noop + 1)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E2 — §7.1: attribute grammars                                       *)
(* ------------------------------------------------------------------ *)

let e2 () =
  let module LS = Attrgram.Let_lang_static in
  let rows =
    List.map
      (fun leaves ->
        let eng = Engine.create () in
        let l = L.create eng in
        let leaf_nodes = Array.init leaves (fun i -> L.int l i) in
        (* balanced plus-tree over the leaves *)
        let rec build lo hi =
          if lo = hi then leaf_nodes.(lo)
          else
            let mid = (lo + hi) / 2 in
            L.plus l (build lo mid) (build (mid + 1) hi)
        in
        let root = L.root l (build 0 (leaves - 1)) in
        ignore (L.value_of l root);
        let first = executions eng in
        Engine.reset_stats eng;
        L.set_int leaf_nodes.(0) 10_000;
        ignore (L.value_of l root);
        let edit = executions eng in
        let _, exh_t = time_of (fun () -> L.exhaustive_value root) in
        Engine.reset_stats eng;
        let _, inc_t =
          time_of (fun () ->
              L.set_int leaf_nodes.(1) 20_000;
              L.value_of l root)
        in
        (* the paper's section-10 comparator: same grammar, static deps *)
        let ls = LS.create () in
        let s_leaves = Array.init leaves (fun i -> LS.int ls i) in
        let rec sbuild lo hi =
          if lo = hi then s_leaves.(lo)
          else
            let mid = (lo + hi) / 2 in
            LS.plus ls (sbuild lo mid) (sbuild (mid + 1) hi)
        in
        let s_root = LS.root ls (sbuild 0 (leaves - 1)) in
        ignore (LS.value_of ls s_root);
        LS.set_int ls s_leaves.(0) 10_000;
        ignore (LS.value_of ls s_root);
        let _, static_t =
          time_of (fun () ->
              LS.set_int ls s_leaves.(1) 20_000;
              LS.value_of ls s_root)
        in
        [ fi leaves; fi first; fi edit; fms inc_t; fms static_t; fms exh_t ])
      [ 64; 256; 1024; 4096 ]
  in
  print_table ~title:"E2  attribute grammar re-attribution (§7.1, §10)"
    ~claim:
      "a leaf edit re-evaluates O(depth) attribute instances, not the whole \
       tree; the static-dependency AG baseline (the paper's §10 \
       comparators) is faster in constants but cannot express non-local \
       references"
    [
      "leaves"; "initial-attrs"; "edit-cost"; "alphonse"; "static-AG";
      "exhaustive";
    ]
    rows

(* ------------------------------------------------------------------ *)
(* E3 — §7.2: spreadsheet                                              *)
(* ------------------------------------------------------------------ *)

let e3 () =
  let rows =
    List.concat_map
      (fun n ->
        (* chain: A(r) = A(r-1) + 1 *)
        let s = Sheet.create () in
        let eng = Sheet.engine s in
        Sheet.set_raw s (0, 0) "1";
        for r = 1 to n - 1 do
          Sheet.set_raw s (0, r) (Printf.sprintf "=A%d+1" r)
        done;
        ignore (Sheet.value s (0, n - 1));
        Engine.reset_stats eng;
        Sheet.set_raw s (0, n / 2) "1000";
        ignore (Sheet.value s (0, n - 1));
        let mid_edit = executions eng in
        let _, oracle_t =
          time_of (fun () -> Sheet.exhaustive_value s (0, n - 1))
        in
        Engine.reset_stats eng;
        let _, inc_t =
          time_of (fun () ->
              Sheet.set_raw s (0, n / 2) "2000";
              Sheet.value s (0, n - 1))
        in
        (* fan: B1 = SUM(A1:An) *)
        let s2 = Sheet.create () in
        let eng2 = Sheet.engine s2 in
        for r = 0 to n - 1 do
          Sheet.set_raw s2 (0, r) (string_of_int r)
        done;
        Sheet.set_raw s2 (1, 0) (Printf.sprintf "=SUM(A1:A%d)" n);
        ignore (Sheet.value s2 (1, 0));
        Engine.reset_stats eng2;
        Sheet.set_raw s2 (0, n / 2) "424242";
        ignore (Sheet.value s2 (1, 0));
        let fan_edit = executions eng2 in
        [
          [
            Printf.sprintf "chain-%d" n; fi mid_edit; fms inc_t; fms oracle_t;
          ];
          [ Printf.sprintf "fan-%d" n; fi fan_edit; "-"; "-" ];
        ])
      [ 128; 512; 2048 ]
  in
  print_table ~title:"E3  spreadsheet recalculation (§7.2)"
    ~claim:
      "a middle edit in an n-cell chain re-executes ~n/2 cells (only the \
       downstream); an edit under an n-ary SUM re-executes 2 instances"
    [ "workload"; "edit-cost"; "inc-time"; "exhaustive-time" ]
    rows

(* ------------------------------------------------------------------ *)
(* E4 — §7.3/§9: AVL vs the hand-coded baseline                        *)
(* ------------------------------------------------------------------ *)

let e4 () =
  let n = 1024 in
  (* Alphonse AVL: plain BST insert + maintained balance *)
  let eng = Engine.create () in
  let t = Avl.create eng in
  let (), alphonse_t =
    time_of (fun () ->
        for k = 1 to n do
          Avl.insert t k;
          Avl.rebalance t
        done)
  in
  let total_execs = executions eng in
  Engine.reset_stats eng;
  Avl.insert t (n + 100);
  Avl.rebalance t;
  let one_more = executions eng in
  (* hand-coded baseline *)
  let (), base_t =
    time_of (fun () ->
        let b = ref Base.Nil in
        for k = 1 to n do
          b := Base.insert !b k
        done)
  in
  (* exhaustive: conventional execution re-balances from scratch each time;
     approximate with the baseline rebuilt from all keys on every insert *)
  let (), exhaustive_t =
    time_of (fun () ->
        for m = 1 to n / 8 do
          (* sampled 1/8 to keep the quadratic baseline tolerable *)
          let b = ref Base.Nil in
          for k = 1 to m * 8 do
            b := Base.insert !b k
          done
        done)
  in
  let exhaustive_t = exhaustive_t *. 8. in
  (* lookups on the final balanced tree *)
  let (), lookup_t =
    time_of (fun () ->
        for k = 1 to n do
          ignore (Avl.mem t k)
        done)
  in
  print_table ~title:"E4  self-balancing AVL (§7.3, §9)"
    ~claim:
      "Alphonse AVL keeps the tree balanced with O(log n) re-executions per \
       insert; asymptotics match the hand-coded AVL, with a constant-factor \
       bookkeeping cost; both beat exhaustive re-balancing"
    [ "metric"; "value" ]
    [
      [ "inserts"; fi n ];
      [ "alphonse total re-executions"; fi total_execs ];
      [ "alphonse re-executions for 1 more insert"; fi one_more ];
      [ "alphonse time (insert+rebalance each)"; fms alphonse_t ];
      [ "hand-coded baseline time"; fms base_t ];
      [ "exhaustive rebuild-per-insert time (est)"; fms exhaustive_t ];
      [ "alphonse n lookups (mem, rebalancing)"; fms lookup_t ];
      [ "final height"; fi (Avl.check_height (Avl.root t)) ];
      [ "balanced"; string_of_bool (Avl.is_balanced (Avl.root t)) ];
    ]

(* ------------------------------------------------------------------ *)
(* E5 — §9.1: space                                                    *)
(* ------------------------------------------------------------------ *)

let e5 () =
  let rows =
    List.map
      (fun n ->
        let eng = Engine.create () in
        let forest = Itree.create eng in
        let tree = Itree.perfect forest 0 (n - 1) in
        ignore (Itree.height forest tree);
        let g = Engine.graph_stats eng in
        let nodes = g.Depgraph.Graph.live_nodes in
        let edges = g.Depgraph.Graph.live_edges in
        [
          fi n; fi nodes; fi edges;
          ff (float_of_int edges /. float_of_int nodes);
          ff (float_of_int nodes /. float_of_int n);
        ])
      [ 1023; 4095; 16383; 65535 ]
  in
  print_table ~title:"E5  dependency graph space (§9.1)"
    ~claim:
      "O(M) nodes and — with constant-size referenced-argument sets — O(M) \
       edges: the edges/node and nodes/M ratios stay constant as M grows"
    [ "M (tree nodes)"; "graph nodes"; "graph edges"; "edges/node"; "nodes/M" ]
    rows

(* ------------------------------------------------------------------ *)
(* E6 — §9.2: instrumentation overhead is O(T)                         *)
(* ------------------------------------------------------------------ *)

let overhead_program =
  {|MODULE Loops;
    VAR acc : INTEGER;
    PROCEDURE Work(n : INTEGER) : INTEGER =
    VAR s : INTEGER;
    BEGIN
      s := 0;
      FOR i := 1 TO n DO
        FOR j := 1 TO n DO
          s := s + i * j MOD 97
        END
      END;
      RETURN s
    END Work;
    BEGIN
      acc := Work(150);
      Print(acc, "\n")
    END Loops.|}

let e6 () =
  (* (a) the embedded DSL: reads and writes of tracked vs untracked cells
     vs plain references, outside incremental execution *)
  let iters = 1_000_000 in
  let eng = Engine.create () in
  let plain = ref 0 in
  let untracked = Var.create eng 0 in
  let tracked = Var.create eng 0 in
  let probe = Func.create eng (fun _ () -> Var.get tracked) in
  ignore (Func.call probe ()) (* materialize the node *);
  (* warm up every path, then take the best of three to dodge GC noise *)
  let best_of_3 f =
    ignore (f ());
    let r = ref infinity and v = ref None in
    for _ = 1 to 3 do
      let x, t = time_of f in
      if t < !r then begin
        r := t;
        v := Some x
      end
    done;
    (Option.get !v, !r)
  in
  let (), t_plain =
    best_of_3 (fun () ->
        for i = 1 to iters do plain := !plain + i mod 7 done)
  in
  let (), t_untracked =
    best_of_3 (fun () ->
        for i = 1 to iters do
          Var.set untracked (Var.get untracked + (i mod 7))
        done)
  in
  let (), t_tracked =
    best_of_3 (fun () ->
        for i = 1 to iters do
          Var.set tracked (Var.get tracked + (i mod 7))
        done)
  in
  ignore (Func.call probe ());
  (* (b) the language: a pragma-free program under both interpreters *)
  let env =
    match Lang.Parser.parse overhead_program with
    | Ok m -> (
      match Lang.Typecheck.check m with
      | Ok env -> env
      | Error _ -> assert false)
    | Error e -> failwith e
  in
  let conv, t_conv = best_of_3 (fun () -> Lang.Interp.run env) in
  let inc, t_inc = best_of_3 (fun () -> Transform.Incr_interp.run env) in
  assert (conv.Lang.Interp.output = inc.Transform.Incr_interp.output);
  print_table ~title:"E6  dynamic dependence analysis overhead (§9.2)"
    ~claim:
      "instrumentation is O(T): a constant factor over conventional \
       execution, and ~1x when the analysis proves sites untracked (§6.1)"
    [ "workload"; "time"; "vs plain" ]
    [
      [ "plain ref loop (1M ops)"; fms t_plain; "1.00x" ];
      [ "untracked Var loop"; fms t_untracked; ff (t_untracked /. t_plain) ^ "x" ];
      [ "tracked Var loop (mutator)"; fms t_tracked; ff (t_tracked /. t_plain) ^ "x" ];
      [ "Alphonse-L conventional run"; fms t_conv; "1.00x" ];
      [ "Alphonse-L instrumented run"; fms t_inc; ff (t_inc /. t_conv) ^ "x" ];
    ]

(* ------------------------------------------------------------------ *)
(* E7 — §6.3: graph partitioning                                       *)
(* ------------------------------------------------------------------ *)

let e7 () =
  let k = 64 and size = 255 in
  let run ~partitioning =
    let eng = Engine.create ~partitioning () in
    let forests = Array.init k (fun _ -> Itree.create eng) in
    (* NOTE: one forest shares one height Func; for separate partitions
       each tree gets its own forest context *)
    let trees =
      Array.map (fun forest -> Itree.perfect forest 0 (size - 1)) forests
    in
    Array.iteri (fun i tree -> ignore (Itree.height forests.(i) tree)) trees;
    Engine.reset_stats eng;
    (* dirty every tree except #0 *)
    for i = 1 to k - 1 do
      let interior = Itree.nodes trees.(i) in
      let nd = List.nth interior (List.length interior / 2) in
      Var.set nd.Itree.left (Itree.node forests.(i) (-1))
    done;
    (* ask only tree #0 *)
    let (), t = time_of (fun () -> ignore (Itree.height forests.(0) trees.(0))) in
    (settle_steps eng, executions eng, t)
  in
  let s_on, e_on, t_on = run ~partitioning:true in
  let s_off, e_off, t_off = run ~partitioning:false in
  print_table ~title:"E7  dependency graph partitioning (§6.3)"
    ~claim:
      "with partitioning, a query touches only its own partition's \
       inconsistent set; unrelated changes stay batched (zero settle work); \
       union-find adds only ~alpha(M)"
    [ "config"; "settle-steps"; "re-executions"; "query-time" ]
    [
      [ "partitioned (64 independent trees)"; fi s_on; fi e_on; fms t_on ];
      [ "single global inconsistent set"; fi s_off; fi e_off; fms t_off ];
    ]

(* ------------------------------------------------------------------ *)
(* E8 — §6.4: the UNCHECKED pragma                                     *)
(* ------------------------------------------------------------------ *)

let e8 () =
  let n = 1024 in
  let run ~unchecked =
    let eng = Engine.create () in
    let path = Array.init n (fun i -> Var.create eng i) in
    let target = Var.create eng 0 in
    let lookup =
      Func.create eng ~name:"lookup" (fun _ () ->
          let walk () = Array.iter (fun v -> ignore (Var.get v)) path in
          if unchecked then Engine.unchecked eng walk else walk ();
          Var.get target)
    in
    ignore (Func.call lookup ());
    let deps =
      match Func.node lookup () with
      | Some node -> Engine.pred_count node
      | None -> -1
    in
    Engine.reset_stats eng;
    (* 50 writes along the path, querying after each *)
    for i = 1 to 50 do
      Var.set path.(i * 13 mod n) (i * 1000);
      ignore (Func.call lookup ())
    done;
    let spurious = executions eng in
    (* a real change must still invalidate *)
    Var.set target 7;
    let v = Func.call lookup () in
    assert (v = 7);
    (deps, spurious)
  in
  let d_chk, s_chk = run ~unchecked:false in
  let d_unc, s_unc = run ~unchecked:true in
  print_table ~title:"E8  UNCHECKED dependency pruning (§6.4)"
    ~claim:
      "the pragma cuts a lookup's recorded dependencies from O(path) to \
       O(1) and eliminates the spurious re-executions caused by path \
       perturbations"
    [ "config"; "deps recorded"; "re-execs after 50 path writes" ]
    [
      [ "checked (default)"; fi d_chk; fi s_chk ];
      [ "(*UNCHECKED*) walk"; fi d_unc; fi s_unc ];
    ]

(* ------------------------------------------------------------------ *)
(* E9 — §3.3/§4.5: DEMAND vs EAGER                                     *)
(* ------------------------------------------------------------------ *)

let e9 () =
  let depth = 64 in
  let build strategy =
    let eng = Engine.create ~default_strategy:strategy () in
    let a = Var.create eng 1024 in
    (* a chain of halvers: small changes are absorbed early *)
    let rec chain i prev =
      if i = depth then prev
      else
        let f =
          Func.create eng ~name:(Fmt.str "lvl%d" i) (fun _ () ->
              Func.call prev () / 2)
        in
        chain (i + 1) f
    in
    let base = Func.create eng (fun _ () -> Var.get a) in
    let top = chain 0 base in
    ignore (Func.call top ());
    Engine.reset_stats eng;
    (eng, a, top)
  in
  let scenario name f =
    let eng_d, a_d, top_d = build Engine.Demand in
    let eng_e, a_e, top_e = build Engine.Eager in
    f a_d top_d;
    f a_e top_e;
    [ name; fi (executions eng_d); fi (executions eng_e) ]
  in
  let absorbed_change a top =
    Var.set a 1025 (* 1025/2 = 1024/2: absorbed at level 1 *);
    ignore (Func.call top ())
  in
  let batch_then_query a top =
    for i = 1 to 100 do
      Var.set a (2048 + i)
    done;
    ignore (Func.call top ())
  in
  let interleaved a top =
    for i = 1 to 100 do
      Var.set a (4096 + (i * 2));
      ignore (Func.call top ())
    done
  in
  print_table ~title:"E9  DEMAND vs EAGER evaluation (§3.3, §4.5)"
    ~claim:
      "eager propagation cuts off at unchanged values (quiescence); demand \
       dirties transitively but defers and batches work until a call"
    [ "scenario (64-deep chain)"; "demand execs"; "eager execs" ]
    [
      scenario "one absorbed change + query" absorbed_change;
      scenario "100 changes, then 1 query" batch_then_query;
      scenario "100 x (change; query)" interleaved;
    ]

(* ------------------------------------------------------------------ *)
(* E10 — §6.1: the cost of runtime checks                              *)
(* ------------------------------------------------------------------ *)

let e10 () =
  (* measured precisely by the Bechamel suite; here, the count view *)
  let eng = Engine.create () in
  let v = Var.create eng 0 in
  let probe = Func.create eng (fun _ () -> Var.get v) in
  ignore (Func.call probe ());
  Engine.reset_stats eng;
  let edges_before = (Engine.graph_stats eng).Depgraph.Graph.total_edges in
  for _ = 1 to 1000 do
    ignore (Var.get v)
  done;
  let g = Engine.graph_stats eng in
  print_table ~title:"E10  limiting runtime checks (§6.1)"
    ~claim:
      "mutator reads of tracked storage do no graph work at all (no edges, \
       no queue traffic); see the micro suite for ns/op"
    [ "metric"; "value" ]
    [
      [ "mutator reads performed"; "1000" ];
      [ "edges created by them";
        fi (g.Depgraph.Graph.total_edges - edges_before) ];
      [ "queue pushes"; fi (Engine.stats eng).Engine.queue_pushes ];
    ]

(* ------------------------------------------------------------------ *)
(* E11 — §3.3: cache size and replacement pragma arguments             *)
(* ------------------------------------------------------------------ *)

let e11 () =
  let calls = 50_000 in
  let universe = 1000 in
  let rand = Random.State.make [| 2024 |] in
  let keys =
    Array.init calls (fun _ ->
        (* quadratic skew: low keys dominate *)
        let r = Random.State.float rand 1.0 in
        int_of_float (r *. r *. float_of_int universe))
  in
  let rows =
    List.map
      (fun (name, policy) ->
        let eng = Engine.create () in
        let f = Func.create eng ~policy (fun _ k -> k * k) in
        Array.iter (fun k -> ignore (Func.call f k)) keys;
        let s = Engine.stats eng in
        [
          name;
          fi s.Engine.executions;
          fi s.Engine.cache_hits;
          ff
            (100.
            *. float_of_int s.Engine.cache_hits
            /. float_of_int calls)
          ^ "%";
          fi (Func.size f);
          fi s.Engine.evictions;
        ])
      [
        ("unbounded", Policy.Unbounded);
        ("lru 64", Policy.Lru 64);
        ("lru 256", Policy.Lru 256);
        ("fifo 64", Policy.Fifo 64);
        ("fifo 256", Policy.Fifo 256);
      ]
  in
  print_table ~title:"E11  cache replacement pragma arguments (§3.3)"
    ~claim:
      "bounded tables trade recomputation for space; LRU dominates FIFO \
       under skewed access; hit rates rise with capacity"
    [ "policy"; "executions"; "hits"; "hit rate"; "table size"; "evictions" ]
    rows

(* ------------------------------------------------------------------ *)
(* E12 — Theorem 5.1 + §8: the transformation end to end               *)
(* ------------------------------------------------------------------ *)

let e12 () =
  let rows =
    List.map
      (fun (name, src) ->
        let env =
          match Lang.Parser.parse src with
          | Ok m -> (
            match Lang.Typecheck.check m with
            | Ok env -> env
            | Error _ -> assert false)
          | Error e -> failwith e
        in
        let conv = Lang.Interp.run ~fuel:200_000_000 env in
        let inc = Transform.Incr_interp.run ~fuel:200_000_000 env in
        let same = conv.Lang.Interp.output = inc.Transform.Incr_interp.output in
        [
          name;
          fi conv.Lang.Interp.steps;
          fi inc.Transform.Incr_interp.steps;
          ff
            (float_of_int conv.Lang.Interp.steps
            /. float_of_int (max 1 inc.Transform.Incr_interp.steps))
          ^ "x";
          fi inc.Transform.Incr_interp.engine_stats.Engine.executions;
          (if same then "HOLDS" else "VIOLATED");
        ])
      Lang.Samples.all
  in
  print_table ~title:"E12  the transformation end to end (Theorem 5.1, §8)"
    ~claim:
      "Alphonse execution produces the same output as conventional \
       execution while doing asymptotically less work"
    [ "program"; "conv steps"; "alphonse steps"; "speedup"; "execs"; "thm 5.1" ]
    rows

(* ------------------------------------------------------------------ *)
(* E13 — §6.2: static subgraph construction                            *)
(* ------------------------------------------------------------------ *)

let e13 () =
  let funcs = 500 and rounds = 40 in
  let run ~static_deps =
    let eng = Engine.create ~default_strategy:Engine.Eager () in
    let a = Var.create eng 0 in
    let fs =
      Array.init funcs (fun i ->
          Func.create eng ~static_deps (fun _ () -> Var.get a + i))
    in
    Array.iter (fun f -> ignore (Func.call f ())) fs;
    Engine.reset_stats eng;
    let (), t =
      time_of (fun () ->
          for r = 1 to rounds do
            Var.set a (r * 1000);
            Engine.stabilize eng
          done)
    in
    let g = Engine.graph_stats eng in
    (executions eng, g.Depgraph.Graph.removed_edges,
     g.Depgraph.Graph.total_edges, t)
  in
  let e_dyn, rm_dyn, tot_dyn, t_dyn = run ~static_deps:false in
  let e_st, rm_st, tot_st, t_st = run ~static_deps:true in
  print_table ~title:"E13  static subgraph construction (§6.2)"
    ~claim:
      "instances with static referenced-argument sets keep their first        execution's edges: re-executions do no RemovePredEdges / re-record        work, cutting the graph-manipulation overhead the paper attributes        to production-based systems"
    [ "config"; "re-executions"; "edges removed"; "edges ever"; "time" ]
    [
      [ "dynamic R(p) (default)"; fi e_dyn; fi rm_dyn; fi tot_dyn; fms t_dyn ];
      [ "static R(p) (§6.2)"; fi e_st; fi rm_st; fi tot_st; fms t_st ];
    ]

(* ------------------------------------------------------------------ *)
(* E14 — §4.5/§2: the drain order is topological                      *)
(* ------------------------------------------------------------------ *)

(* Stacked diamonds with inverted creation order: layer consumers are
   created (and prioritized) before the chains they later depend on.
   Drained in creation order, each consumer would run before its chain
   and re-execute; the engine's Pearce–Kelly repair of out-of-order
   edges into eager instances restores topological order, so every
   instance runs at most once per change. *)
let e14 () =
  let layers = 128 and rounds = 40 in
  let eng = Engine.create ~default_strategy:Engine.Eager () in
  let base = Var.create eng 1 in
  let modes = Array.init layers (fun _ -> Var.create eng false) in
  let sides = Array.make layers None in
  (* a cascade of consumers, created first (earliest priorities); each
     reads its predecessor plus a side input that does not exist yet *)
  let consumers = Array.make layers None in
  for i = 0 to layers - 1 do
    let f =
      Func.create eng ~name:(Fmt.str "f%d" i) (fun _ () ->
          let prev =
            if i = 0 then Var.get base
            else Func.call (Option.get consumers.(i - 1)) ()
          in
          let side =
            if Var.get modes.(i) then
              match sides.(i) with Some c -> Func.call c () | None -> 0
            else 0
          in
          prev + side)
    in
    consumers.(i) <- Some f
  done;
  Array.iter (fun f -> ignore (Func.call (Option.get f) ())) consumers;
  (* side inputs second: later priorities than every consumer. Two
     levels, so that when a change marks the bottom, the top a consumer
     reads is not yet queued — a stale read under non-topological
     drain order. *)
  for i = 0 to layers - 1 do
    let bottom = Func.create eng (fun _ () -> Var.get base * 10) in
    let top = Func.create eng (fun _ () -> Func.call bottom () + 1) in
    sides.(i) <- Some top;
    ignore (Func.call top ())
  done;
  Array.iter (fun m -> Var.set m true) modes;
  let top = Option.get consumers.(layers - 1) in
  ignore (Func.call top ());
  let fixups_setup = (Engine.stats eng).Engine.order_fixups in
  Engine.reset_stats eng;
  let (), t =
    time_of (fun () ->
        for r = 1 to rounds do
          Var.set base r;
          Engine.stabilize eng
        done)
  in
  let execs = executions eng
  and fixups = fixups_setup + (Engine.stats eng).Engine.order_fixups in
  let instances = ref 0 in
  Engine.iter_nodes eng (fun n ->
      if Engine.node_kind n = `Instance then incr instances);
  print_table ~title:"E14  topological drain order (§2, §4.5)"
    ~claim:
      "\"the amount of computation is minimized when done in a topological \
       order\": with Pearce-Kelly repair of out-of-order edges into eager \
       instances, no instance runs more than once per change (gated by \
       check_bench)"
    [ "diamonds"; "re-executions"; "bound (instances x rounds)";
      "order fixups"; "time" ]
    [ [ fi layers; fi execs; fi (!instances * rounds); fi fixups; fms t ] ]

(* ------------------------------------------------------------------ *)
(* E15 — §10: parallel-execution potential                             *)
(* ------------------------------------------------------------------ *)

(* "the dynamic dependence information gathered by Alphonse can also be
   used for additional advantage, such as … scheduling parallel
   execution": measure the level structure of real dependency graphs —
   total instances / critical path = the re-establishment speedup an
   ideal parallel evaluator could reach. *)
let e15 () =
  let profile_of build =
    let eng = Engine.create () in
    build eng;
    Alphonse.Inspect.parallel_profile eng
  in
  let height_tree eng =
    let forest = Itree.create eng in
    ignore (Itree.height forest (Itree.perfect forest 0 1022))
  in
  let avl_tree eng =
    let t = Avl.create eng in
    for k = 1 to 512 do
      Avl.insert t k;
      Avl.rebalance t
    done
  in
  let sheet _eng =
    () (* the sheet owns its engine; profiled separately below *)
  in
  ignore sheet;
  let sheet_profile =
    let s = Sheet.create () in
    for r = 0 to 255 do
      Sheet.set_raw s (0, r) (string_of_int r)
    done;
    for c = 1 to 3 do
      for r = 0 to 255 do
        Sheet.set_raw s (c, r)
          (Printf.sprintf "=%s+1" (Spreadsheet.Formula.name_of_cell (c - 1, r)))
      done
    done;
    Sheet.set_raw s (4, 0) "=SUM(D1:D256)";
    ignore (Sheet.recalc_all s);
    Alphonse.Inspect.parallel_profile (Sheet.engine s)
  in
  let row name (p : Alphonse.Inspect.parallel_profile) =
    [
      name;
      fi p.Alphonse.Inspect.total_instances;
      fi p.Alphonse.Inspect.critical_path;
      fi p.Alphonse.Inspect.max_width;
      ff p.Alphonse.Inspect.speedup_bound ^ "x";
    ]
  in
  print_table ~title:"E15  parallel-execution potential (§10)"
    ~claim:
      "the dependency graph's level structure bounds the speedup of a        parallel evaluator: wide shallow graphs (trees, sheets)        parallelize well; deep chains do not"
    [ "workload"; "instances"; "critical path"; "max width"; "bound" ]
    [
      row "height over a 1023-node perfect tree" (profile_of height_tree);
      row "AVL after 512 insert+rebalance" (profile_of avl_tree);
      row "256x4 spreadsheet + SUM" sheet_profile;
    ]

(* ------------------------------------------------------------------ *)
(* E16 — failure model: recovery overhead                              *)
(* ------------------------------------------------------------------ *)

(* The fault-tolerance machinery must be pay-as-you-go: poking an inert
   hook on the normal path should cost next to nothing, and a run that
   absorbs injected crashes (quarantine, retry, re-settle) should still
   converge to the fault-free answer at a bounded cost multiple. *)
let e16 () =
  let funcs = 200 and rounds = 50 in
  let build () =
    (* max_retries high enough that the seeded injector never poisons:
       poisoning would need a manual clear_poison per node, which is the
       UI's job (see Sheet.clear_fault), not the benchmark's *)
    let eng =
      Engine.create ~default_strategy:Engine.Eager ~max_retries:1_000 ()
    in
    let a = Var.create eng 0 in
    let prev = ref (Func.create eng (fun _ () -> Var.get a)) in
    for i = 1 to funcs - 1 do
      let p = !prev in
      prev := Func.create eng (fun _ () -> Func.call p () + i)
    done;
    ignore (Func.call !prev ());
    (eng, a, !prev)
  in
  let drive (eng, a, top) =
    Engine.reset_stats eng;
    let (), t =
      time_of (fun () ->
          for r = 1 to rounds do
            Var.set a r;
            (try Engine.stabilize eng
             with Alphonse.Faults.Injected _ -> ());
            (try ignore (Func.call top ())
             with Alphonse.Faults.Injected _ -> ())
          done)
    in
    (* drain: clear the injector, requeue anything still quarantined,
       and read the final answer *)
    Alphonse.Faults.clear eng;
    Engine.stabilize eng;
    let final = Func.call top () in
    (t, Engine.stats eng, final)
  in
  let clean = build () in
  let t_clean, s_clean, v_clean = drive clean in
  let inert = build () in
  let eng_i, _, _ = inert in
  Engine.set_fault_hook eng_i (Some (fun _ -> ()));
  let t_inert, s_inert, v_inert = drive inert in
  let faulted = build () in
  let eng_f, _, _ = faulted in
  let fired = Alphonse.Faults.install_seeded eng_f ~seed:42 ~rate:0.0005 () in
  let t_fault, s_fault, v_fault = drive faulted in
  let row name (t, (s : Engine.stats), v) faults =
    [
      name;
      fi s.Engine.executions;
      faults;
      fi s.Engine.failures;
      fi s.Engine.retries;
      fms t;
      (if v = v_clean then "HOLDS" else "VIOLATED");
    ]
  in
  print_table ~title:"E16  recovery overhead (failure model)"
    ~claim:
      "fault tolerance is pay-as-you-go: an inert hook adds ~nothing to        the settle path, and runs that absorb injected crashes still        converge to the fault-free answer after quarantine and retry"
    [ "config"; "executions"; "faults"; "failures"; "retries"; "time";
      "converges" ]
    [
      row "no hook (baseline)" (t_clean, s_clean, v_clean) "-";
      row "inert hook installed" (t_inert, s_inert, v_inert) "-";
      row "seeded crashes (rate 0.05%)" (t_fault, s_fault, v_fault)
        (fi !fired);
    ]

(* ------------------------------------------------------------------ *)
(* E17 — §6.1 sharpened: effect analysis vs pure reachability          *)
(* ------------------------------------------------------------------ *)

let e17 () =
  (* analyze mutates the AST site notes, so each variant gets a fresh
     parse of the sample *)
  let fresh src =
    match Lang.Parser.parse src with
    | Ok m -> (
      match Lang.Typecheck.check m with
      | Ok env -> env
      | Error _ -> assert false)
    | Error e -> failwith e
  in
  let sites (s : Transform.Analysis.site_stats) =
    s.Transform.Analysis.tracked_reads + s.Transform.Analysis.tracked_writes
    + s.Transform.Analysis.tracked_calls
  in
  let storage (r : Transform.Analysis.result) =
    Hashtbl.length r.Transform.Analysis.tracked_globals
    + Hashtbl.length r.Transform.Analysis.tracked_fields
    + if r.Transform.Analysis.arrays_tracked then 1 else 0
  in
  let rows =
    List.map
      (fun (name, src) ->
        let base = Transform.Analysis.analyze ~sharpen:false (fresh src) in
        let env = fresh src in
        let sharp = Transform.Analysis.analyze env in
        let conv = Lang.Interp.run ~fuel:200_000_000 (fresh src) in
        let inc = Transform.Incr_interp.run ~fuel:200_000_000 env in
        let same = conv.Lang.Interp.output = inc.Transform.Incr_interp.output in
        [
          name;
          fi (storage base);
          fi (storage sharp);
          fi (sites base.Transform.Analysis.stats);
          fi (sites sharp.Transform.Analysis.stats);
          fi
            (sites base.Transform.Analysis.stats
            - sites sharp.Transform.Analysis.stats);
          (if same then "HOLDS" else "VIOLATED");
        ])
      Lang.Samples.all
  in
  print_table
    ~title:"E17  effect-sharpened instrumentation (§6.1 + lib/analyze)"
    ~claim:
      "the interprocedural effect analysis drops tracked storage no \
       incremental instance can observe (never read by incremental code, \
       or never written at all); instrumented sites shrink on some \
       programs while Theorem 5.1 still holds on all of them"
    [ "program"; "storage"; "sharpened"; "sites"; "sharpened"; "dropped";
      "thm 5.1" ]
    rows

(* ------------------------------------------------------------------ *)
(* E18 — durability: WAL and snapshot overhead                         *)
(* ------------------------------------------------------------------ *)

module Durable = Alphonse.Durable
module Wal = Alphonse.Wal

(* The durable engine must also be pay-as-you-go: journaling every edit
   is a bounded tax on the settle loop whose size is set by the fsync
   policy (flush-only vs fsync-per-commit vs fsync-per-append), a
   snapshot costs one linear serialization, and cold recovery restores
   the exact pre-crash answers. *)
let e18 () =
  let edits = 100 in
  let rec rm_rf path =
    match Sys.is_directory path with
    | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    | false -> Sys.remove path
    | exception Sys_error _ -> ()
  in
  let fresh_dir =
    let n = ref 0 in
    fun () ->
      incr n;
      let d =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Fmt.str "alphonse-e18-%d-%d" (Unix.getpid ()) !n)
      in
      rm_rf d;
      d
  in
  (* a column of chained formulas: each edit of A1 re-settles the chain *)
  let build () =
    let s = Sheet.create () in
    Sheet.set s "A1" "0";
    for r = 2 to 20 do
      Sheet.set s (Fmt.str "A%d" r) (Fmt.str "=A%d+%d" (r - 1) r)
    done;
    ignore (Sheet.value_at s "A20");
    s
  in
  let drive s =
    snd
      (time_of (fun () ->
           for r = 1 to edits do
             Sheet.set s "A1" (string_of_int r);
             ignore (Sheet.value_at s "A20")
           done))
  in
  (* throwaway pass so the first timed config doesn't pay the global
     warm-up (allocator growth, page faults) *)
  ignore (drive (build ()));
  let t_mem = drive (build ()) in
  let durable_run policy =
    let s = build () in
    let dir = fresh_dir () in
    let d = Durable.attach ~policy ~dir (Sheet.engine s) (Sheet.persist s) in
    Sheet.set_journal s (Some (Durable.journal_op d));
    let t = drive s in
    (t, s, d, dir)
  in
  let t_never, _, d_never, dir_never = durable_run Wal.Never in
  Durable.detach d_never;
  let t_always, _, d_always, dir_always = durable_run Wal.Always in
  Durable.detach d_always;
  let t_commit, s_commit, d_commit, dir_commit = durable_run Wal.Commit in
  (* snapshot write + cold recovery on the commit-policy state *)
  let snap, t_snap = time_of (fun () -> Durable.checkpoint d_commit) in
  let snap_bytes = (Unix.stat snap).Unix.st_size in
  Durable.detach d_commit;
  let s2 = Sheet.create () in
  let _o, t_rec =
    time_of (fun () ->
        Durable.recover ~dir:dir_commit (Sheet.engine s2) (Sheet.persist s2))
  in
  let agree = Sheet.render s2 = Sheet.render s_commit in
  List.iter rm_rf [ dir_never; dir_always; dir_commit ];
  let per t = Fmt.str "%.1fus" (t /. float_of_int edits *. 1e6) in
  let ratio t = Fmt.str "%.2fx" (t /. t_mem) in
  print_table ~title:"E18  durability overhead (WAL + snapshots)"
    ~claim:
      "write-ahead journaling is a bounded, policy-priced tax on the edit \
       loop (flush-only < fsync-per-commit < fsync-per-append), a \
       snapshot is one linear serialization, and cold recovery restores \
       the exact pre-crash state"
    [ "config"; "time"; "per-edit"; "vs in-memory"; "state" ]
    [
      [ "in-memory settle"; fms t_mem; per t_mem; "1.00x"; "-" ];
      [ "wal policy=never"; fms t_never; per t_never; ratio t_never; "-" ];
      [ "wal policy=commit"; fms t_commit; per t_commit; ratio t_commit; "-" ];
      [ "wal policy=always"; fms t_always; per t_always; ratio t_always; "-" ];
      [ Fmt.str "snapshot write (%dB)" snap_bytes; fms t_snap; "-"; "-"; "-" ];
      [
        "recover (restore+replay)"; fms t_rec; "-"; "-";
        (if agree then "HOLDS" else "VIOLATED");
      ];
    ]

(* ------------------------------------------------------------------ *)
(* E20 — metrics registry overhead (observability PR)                  *)
(* ------------------------------------------------------------------ *)

(* The three E15 workload shapes E20 times, with no-op bodies. Each
   builder returns [(edit, read)]: [edit r] rewrites the inputs for
   round [r], [read ()] forces the root and renders the observation. *)
let settle_shapes =
  (* 511 instances over 9 levels (widths 256..1): the E15 tree shape *)
  let tree eng =
    let leaves = Array.init 256 (fun i -> Var.create eng i) in
    let layer =
      Array.map (fun v -> Func.create eng (fun _ () -> Var.get v)) leaves
    in
    let rec up arr =
      if Array.length arr = 1 then arr.(0)
      else
        up
          (Array.init
             (Array.length arr / 2)
             (fun i ->
               let l = arr.(2 * i) and r = arr.((2 * i) + 1) in
               Func.create eng (fun _ () -> Func.call l () + Func.call r ())))
    in
    let root = up layer in
    let edit r = Array.iteri (fun i v -> Var.set v (i + r)) leaves in
    let read () = string_of_int (Func.call root ()) in
    (edit, read)
  in
  (* 128x4 grid of chained columns plus a SUM: the E15 sheet shape *)
  let grid eng =
    let rows = 128 and cols = 4 in
    let inputs = Array.init rows (fun i -> Var.create eng i) in
    let layer =
      ref (Array.map (fun v -> Func.create eng (fun _ () -> Var.get v)) inputs)
    in
    for _c = 2 to cols do
      let prev = !layer in
      layer :=
        Array.map (fun f -> Func.create eng (fun _ () -> Func.call f () + 1)) prev
    done;
    let last = !layer in
    let sum =
      Func.create eng (fun _ () ->
          Array.fold_left (fun acc f -> acc + Func.call f ()) 0 last)
    in
    let edit r = Array.iteri (fun i v -> Var.set v ((i * 7) + r)) inputs in
    let read () = string_of_int (Func.call sum ()) in
    (edit, read)
  in
  (* 64-deep chain: every level has width 1 — the E15 bound is 1.00x *)
  let chain eng =
    let a = Var.create eng 0 in
    let first = Func.create eng (fun _ () -> Var.get a) in
    let last = ref first in
    for _i = 2 to 64 do
      let prev = !last in
      last := Func.create eng (fun _ () -> Func.call prev () + 1)
    done;
    let top = !last in
    let edit r = Var.set a r in
    let read () = string_of_int (Func.call top ()) in
    (edit, read)
  in
  [
    ("height-tree shape (511 over 9 levels)", tree);
    ("sheet shape (128x4 + SUM)", grid);
    ("deep chain (64 levels of width 1)", chain);
  ]

(* The engine's counters are plain fields an attached registry reads
   when it is scraped, so no per-event site touches the registry; what
   a registry adds is on [stabilize]: one [match t.metrics] per call
   and, when attached, two clock reads and one [settle_seconds]
   observation per session. E20 measures what that costs on the E15
   shapes with no-op bodies — the regime where per-settle cost has
   nowhere to hide. Three configurations per shape:

     base      a fresh engine, registry never attached
     disabled  registry attached, then detached ([set_metrics None])
               before the timed rounds — must price like base, or the
               "disabled instrumentation is one dead branch" claim
               (E6/E17 discipline) is broken; check_bench gates these
               rows at <= 1.05x
     enabled   registry attached for the timed rounds: two clock reads
               and one histogram observation per stabilize session —
               reported, not gated (it is the price of observability) *)
let e20 () =
  let module Metrics = Alphonse.Metrics in
  let measure build config rounds =
    let eng = Engine.create ~default_strategy:Engine.Eager () in
    (match config with
    | `Base -> ()
    | `Disabled ->
      Engine.set_metrics eng (Some (Metrics.create ()));
      Engine.set_metrics eng None
    | `Enabled -> Engine.set_metrics eng (Some (Metrics.create ())));
    let edit, read = build eng in
    edit 0;
    Engine.stabilize eng;
    ignore (read ());
    let (), t =
      time_of (fun () ->
          for r = 1 to rounds do
            edit r;
            Engine.stabilize eng;
            ignore (read ())
          done)
    in
    t /. float_of_int rounds
  in
  (* The gated base/disabled comparison is between two identical code
     paths, so any measured difference is noise; the statistic must not
     amplify it. Three defenses: each timed block is calibrated to
     ~0.3s (a 40us round would otherwise drown in timer jitter); the
     configurations are interleaved across 7 repetitions so clock drift
     and GC phase hit all three equally; and the overhead column is the
     {e minimum across repetitions of the within-repetition ratio} — a
     real k% overhead is present in every repetition, so it survives
     the minimum, while one-sided scheduler noise does not. *)
  let best3 build =
    let t0 = measure build `Base 50 in
    let rounds = max 50 (int_of_float (0.3 /. Float.max t0 1e-7)) in
    let t_base = ref infinity
    and t_dis = ref infinity
    and t_en = ref infinity
    and r_dis = ref infinity
    and r_en = ref infinity in
    for _ = 1 to 7 do
      let b = measure build `Base rounds in
      let d = measure build `Disabled rounds in
      let e = measure build `Enabled rounds in
      t_base := Float.min !t_base b;
      t_dis := Float.min !t_dis d;
      t_en := Float.min !t_en e;
      r_dis := Float.min !r_dis (d /. b);
      r_en := Float.min !r_en (e /. b)
    done;
    ((!t_base, 1.0), (!t_dis, !r_dis), (!t_en, !r_en))
  in
  let rows =
    List.concat_map
      (fun (name, build) ->
        let base, dis, en = best3 build in
        let row config (t, r) =
          [ name; "serial"; config; Printf.sprintf "%.0fus" (t *. 1e6); ff r ^ "x" ]
        in
        [ row "base" base; row "disabled" dis; row "enabled" en ])
      settle_shapes
  in
  print_table ~title:"E20  metrics registry overhead (per settle round)"
    ~claim:
      "detached metrics cost nothing measurable (disabled rows <= 1.05x \
       base, gated by check_bench); an attached registry costs two clock \
       reads and one histogram observation per stabilize session, not \
       per-event atomics"
    [ "workload"; "mode"; "config"; "time"; "overhead" ]
    rows


(* E21: the daemon under multi-tenant load. Phase "1x" drives a closed
   loop within the admission capacity: every request is accepted, and
   the edits/sec + batch latency percentiles are the daemon's sustained
   service rate across 1000 independent tenants. Phase "2x" doubles the
   offered concurrency over a deliberately tiny admission window: the
   daemon must degrade by shedding fast 503s (bounded latency for the
   accepted work) rather than by queueing without bound. In-process
   [Daemon.submit] keeps the socket layer out of the measurement — this
   is the admission + budget + settle path itself. *)
let e21 () =
  let module Daemon = Alphonse.Daemon in
  let module Json = Alphonse.Json in
  let tenants = 1000 in
  let mk_cfg ~tenant_queue ~global_queue ~max_settles =
    {
      (Daemon.default_config ~root:"/nonexistent-e21" ()) with
      Daemon.d_durable = false;
      d_max_tenants = tenants + 8;
      d_tenant_queue = tenant_queue;
      d_global_queue = global_queue;
      d_max_settles = max_settles;
      d_default_deadline = Some 10.0;
    }
  in
  let request ~tenant ops =
    Json.Obj [ ("tenant", Json.Str tenant); ("ops", Json.Arr ops) ]
  in
  let set_op cell v =
    Json.Obj
      [ ("op", Json.Str "set"); ("cell", Json.Str cell); ("v", Json.Str v) ]
  in
  let get_op cell =
    Json.Obj [ ("op", Json.Str "get"); ("cell", Json.Str cell) ]
  in
  let tenant_id i = Printf.sprintf "t%04d" i in
  let status resp =
    match Option.bind (Json.member "status" resp) Json.to_float with
    | Some f -> int_of_float f
    | None -> 0
  in
  (* each tenant holds a 64-cell formula chain; editing A1 and reading
     the tail makes every batch a real propagation (64 settle pops), so
     a batch occupies the settle gate for a measurable slice *)
  let depth = 64 in
  let tail = Printf.sprintf "A%d" depth in
  let seed d =
    let ops =
      set_op "A1" "1"
      :: List.init (depth - 1) (fun j ->
             set_op
               (Printf.sprintf "A%d" (j + 2))
               (Printf.sprintf "=A%d+1" (j + 1)))
      @ [ get_op tail ]
    in
    for i = 0 to tenants - 1 do
      let r = Daemon.submit d (request ~tenant:(tenant_id i) ops) in
      assert (status r = 200)
    done
  in
  (* closed loop: [threads] drivers, each issuing [per_thread] one-edit
     batches round-robin over the tenant space; latencies of accepted
     batches only (a shed answers in microseconds by design) *)
  let run_phase d ~threads ~per_thread =
    let oks = Atomic.make 0 and sheds = Atomic.make 0 in
    let lats = Array.init threads (fun _ -> Array.make per_thread 0.0) in
    let body k () =
      let lat = lats.(k) in
      for r = 0 to per_thread - 1 do
        let i = (k + (r * threads)) mod tenants in
        let v = string_of_int (1 + ((k + r) mod 97)) in
        let t0 = Unix.gettimeofday () in
        let resp =
          Daemon.submit d
            (request ~tenant:(tenant_id i) [ set_op "A1" v; get_op tail ])
        in
        let dt = Unix.gettimeofday () -. t0 in
        match status resp with
        | 200 ->
          Atomic.incr oks;
          lat.(r) <- dt
        | 503 ->
          Atomic.incr sheds;
          lat.(r) <- -1.0
        | _ -> lat.(r) <- -1.0
      done
    in
    let (), wall =
      time_of (fun () ->
          let ths = List.init threads (fun k -> Thread.create (body k) ()) in
          List.iter Thread.join ths)
    in
    let accepted =
      Array.to_list lats
      |> List.concat_map Array.to_list
      |> List.filter (fun x -> x >= 0.0)
      |> List.sort compare |> Array.of_list
    in
    let pct p =
      if Array.length accepted = 0 then 0.0
      else
        accepted.(min
                    (Array.length accepted - 1)
                    (int_of_float (p *. float_of_int (Array.length accepted))))
    in
    (Atomic.get oks, Atomic.get sheds, wall, pct 0.50, pct 0.99)
  in
  let phase ~load ~cfg ~threads ~per_thread =
    let d = Daemon.create cfg (Spreadsheet.Sheet.workload ()) in
    seed d;
    let ok, shed, wall, p50, p99 = run_phase d ~threads ~per_thread in
    Daemon.drain d;
    let total = threads * per_thread in
    [
      load;
      string_of_int tenants;
      string_of_int threads;
      string_of_int ok;
      string_of_int shed;
      Printf.sprintf "%.1f%%" (100.0 *. float_of_int shed /. float_of_int total);
      Printf.sprintf "%.0f" (float_of_int ok /. wall);
      Printf.sprintf "%.2fms" (p50 *. 1e3);
      Printf.sprintf "%.2fms" (p99 *. 1e3);
    ]
  in
  let rows =
    [
      (* within capacity: 8 drivers against an 8-settle gate and roomy
         queues — nothing sheds, this is the sustained service rate *)
      phase ~load:"1x"
        ~cfg:(mk_cfg ~tenant_queue:16 ~global_queue:1024 ~max_settles:8)
        ~threads:8 ~per_thread:500;
      (* 2x overload: sixteen drivers against an admission window of
         six and a single-batch settle gate — the surplus must shed *)
      phase ~load:"2x"
        ~cfg:(mk_cfg ~tenant_queue:16 ~global_queue:6 ~max_settles:1)
        ~threads:16 ~per_thread:250;
    ]
  in
  print_table ~title:"E21  daemon: 1000 tenants, sustained load and overload"
    ~claim:
      "the daemon sustains a thousand independent tenants with \
       millisecond batch latency, and under 2x offered load it sheds \
       the surplus with fast 503s (gated by check_bench: the 2x row \
       must shed > 0 and still accept > 0) instead of stalling"
    [
      "load"; "tenants"; "threads"; "ok"; "shed"; "shed%"; "edits/s"; "p50";
      "p99";
    ]
    rows

(* ------------------------------------------------------------------ *)
(* Bechamel micro suite                                                *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  (* E1: re-query after a toggled pointer change, vs exhaustive pass *)
  let eng = Engine.create () in
  let forest = Itree.create eng in
  let tree = Itree.perfect forest 0 4094 in
  ignore (Itree.height forest tree);
  let rec leftmost = function
    | Itree.Nil -> assert false
    | Itree.Node nd -> (
      match Var.get nd.Itree.left with
      | Itree.Nil -> nd
      | sub -> leftmost sub)
  in
  let leaf = leftmost tree in
  let graft = Itree.node forest (-1) in
  let flip = ref false in
  let t_height_inc =
    Test.make ~name:"E1 height: change+query (incremental)"
      (Staged.stage (fun () ->
           flip := not !flip;
           Var.set leaf.Itree.left (if !flip then graft else Itree.Nil);
           Itree.height forest tree))
  in
  let t_height_exh =
    Test.make ~name:"E1 height: exhaustive pass"
      (Staged.stage (fun () -> Itree.height_exhaustive tree))
  in
  (* E3: sheet edit+query vs oracle *)
  let s = Sheet.create () in
  Sheet.set_raw s (0, 0) "1";
  for r = 1 to 511 do
    Sheet.set_raw s (0, r) (Printf.sprintf "=A%d+1" r)
  done;
  ignore (Sheet.value s (0, 511));
  let tick = ref 0 in
  let t_sheet_inc =
    Test.make ~name:"E3 sheet: edit mid-chain + query (incremental)"
      (Staged.stage (fun () ->
           incr tick;
           Sheet.set_raw s (0, 256) (string_of_int (!tick mod 2));
           Sheet.value s (0, 511)))
  in
  let t_sheet_exh =
    Test.make ~name:"E3 sheet: exhaustive query"
      (Staged.stage (fun () -> Sheet.exhaustive_value s (0, 511)))
  in
  (* E4: steady-state insert/delete pair *)
  let eng4 = Engine.create () in
  let avl = Avl.create eng4 in
  for k = 1 to 1024 do
    Avl.insert avl (2 * k)
  done;
  Avl.rebalance avl;
  let k4 = ref 0 in
  let t_avl_alphonse =
    Test.make ~name:"E4 avl: insert+delete (alphonse)"
      (Staged.stage (fun () ->
           incr k4;
           let k = (2 * (!k4 mod 1024)) + 1 in
           Avl.insert avl k;
           Avl.rebalance avl;
           Avl.delete avl k;
           Avl.rebalance avl))
  in
  let base = ref Base.Nil in
  for k = 1 to 1024 do
    base := Base.insert !base (2 * k)
  done;
  let k5 = ref 0 in
  let t_avl_base =
    Test.make ~name:"E4 avl: insert+delete (hand-coded)"
      (Staged.stage (fun () ->
           incr k5;
           let k = (2 * (!k5 mod 1024)) + 1 in
           base := Base.insert !base k;
           base := Base.delete !base k))
  in
  (* E10: read/write cost by tracking status *)
  let eng10 = Engine.create () in
  let r_plain = ref 1 in
  let v_untracked = Var.create eng10 1 in
  let v_tracked = Var.create eng10 1 in
  let probe = Func.create eng10 (fun _ () -> Var.get v_tracked) in
  ignore (Func.call probe ());
  let t_ref =
    Test.make ~name:"E10 read: plain ref"
      (Staged.stage (fun () -> !r_plain + 1))
  in
  let t_untracked =
    Test.make ~name:"E10 read: untracked Var"
      (Staged.stage (fun () -> Var.get v_untracked + 1))
  in
  let t_tracked =
    Test.make ~name:"E10 read: tracked Var (mutator)"
      (Staged.stage (fun () -> Var.get v_tracked + 1))
  in
  let t_write_same =
    Test.make ~name:"E10 write: tracked Var, equal value"
      (Staged.stage (fun () -> Var.set v_tracked 1))
  in
  (* E6: interpreters on the pragma-free program *)
  let env6 =
    match Lang.Parser.parse overhead_program with
    | Ok m -> (
      match Lang.Typecheck.check m with Ok e -> e | Error _ -> assert false)
    | Error e -> failwith e
  in
  let t_interp =
    Test.make ~name:"E6 lang: conventional interpreter"
      (Staged.stage (fun () -> Lang.Interp.run env6))
  in
  let t_incr_interp =
    Test.make ~name:"E6 lang: instrumented interpreter"
      (Staged.stage (fun () -> Transform.Incr_interp.run env6))
  in
  [
    t_height_inc; t_height_exh; t_sheet_inc; t_sheet_exh; t_avl_alphonse;
    t_avl_base; t_ref; t_untracked; t_tracked; t_write_same; t_interp;
    t_incr_interp;
  ]

let run_micro () =
  let open Bechamel in
  let open Toolkit in
  Fmt.pr "@.== Bechamel micro-benchmarks (ns/run, OLS on monotonic clock) \
          ==@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let tests = micro_tests () in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let est = Analyze.one ols Instance.monotonic_clock raw in
          let nanos =
            match Analyze.OLS.estimates est with
            | Some [ t ] -> t
            | _ -> nan
          in
          let r2 =
            match Analyze.OLS.r_square est with Some r -> r | None -> nan
          in
          Fmt.pr "   %-46s %12.1f ns/run   (r²=%.3f)@." (Test.Elt.name elt)
            nanos r2)
        (Test.elements test))
    tests

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11);
    ("E12", e12); ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16);
    ("E17", e17); ("E18", e18); ("E20", e20); ("E21", e21);
  ]

(* ------------------------------------------------------------------ *)
(* Machine-readable output                                             *)
(* ------------------------------------------------------------------ *)

type experiment_result = {
  er_name : string;
  er_wall_clock : float;
  er_tables : recorded_table list;
}

(* Runs one experiment, capturing its wall clock and the tables it
   printed. *)
let run_experiment (name, f) =
  let before = !recorded_tables in
  let (), wall = time_of f in
  let rec fresh acc l =
    if l == before then acc else
      match l with
      | [] -> acc
      | t :: rest -> fresh (t :: acc) rest
  in
  {
    er_name = name;
    er_wall_clock = wall;
    er_tables = fresh [] !recorded_tables;
  }

let results_file = "BENCH_results.json"

let json_of_table t =
  Json.Obj
    [
      ("title", Json.Str t.rt_title);
      ("claim", Json.Str t.rt_claim);
      ("headers", Json.Arr (List.map (fun h -> Json.Str h) t.rt_headers));
      ( "rows",
        Json.Arr
          (List.map
             (fun row -> Json.Arr (List.map (fun c -> Json.Str c) row))
             t.rt_rows) );
    ]

let write_results results =
  let json =
    Json.Obj
      [
        ("schema", Json.Str "alphonse-bench/1");
        ("generator", Json.Str "bench/main.exe");
        ( "experiments",
          Json.Arr
            (List.map
               (fun r ->
                 Json.Obj
                   [
                     ("name", Json.Str r.er_name);
                     ("wall_clock_s", Json.Num r.er_wall_clock);
                     ("tables", Json.Arr (List.map json_of_table r.er_tables));
                   ])
               results) );
      ]
  in
  Out_channel.with_open_text results_file (fun oc ->
      Out_channel.output_string oc (Json.to_string json);
      Out_channel.output_char oc '\n');
  Fmt.epr "[bench: %d experiment(s) -> %s]@." (List.length results)
    results_file

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  Fmt.pr "Alphonse evaluation harness — paper claims vs measured@.";
  Fmt.pr "(see DESIGN.md for the experiment index, EXPERIMENTS.md for \
          analysis)@.";
  match args with
  | [] ->
    write_results (List.map run_experiment experiments);
    run_micro ()
  | [ "report" ] -> write_results (List.map run_experiment experiments)
  | [ "micro" ] -> run_micro ()
  | names ->
    let results =
      List.filter_map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> Some (run_experiment (name, f))
          | None when name = "micro" ->
            run_micro ();
            None
          | None ->
            Fmt.epr "unknown experiment %s@." name;
            None)
        names
    in
    if results <> [] then write_results results
