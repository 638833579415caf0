(* Benchmark harness reproducing the paper's evaluation claims (E1–E21 in
   DESIGN.md). The paper has no numeric tables; its evaluation is the
   asymptotic analysis of §9, the per-example claims of §3.4/§7, and the
   optimizations of §6. Each experiment prints a table of measured rows
   and checks, in place, the claims its rows carry.

   Cells are typed values (counts, seconds, ratios, booleans, labels),
   formatted only when printed. Every timed cell outside E20 and E21 is
   taken by [time]: one warm-up run, then [reps] timed runs, recorded as
   their median and range. A run writes BENCH_results.json (schema
   alphonse-bench/2) even when a claim fails, then lists each failed
   claim on stderr and exits 1.

     dune exec bench/main.exe                 # every experiment
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

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let reps = 5

type timing = { median : float; lo : float; hi : float }

(* [time_with setup f] runs [f (setup ())] once to warm up, then [reps]
   times with only [f] on the clock; returns the last run's result and
   the timing. *)
let time_with setup f =
  ignore (f (setup ()));
  let last = ref None in
  let ts =
    Array.init reps (fun _ ->
        let x = setup () in
        let t0 = now () in
        let r = f x in
        let dt = now () -. t0 in
        last := Some r;
        dt)
  in
  Array.sort compare ts;
  (Option.get !last, { median = ts.(reps / 2); lo = ts.(0); hi = ts.(reps - 1) })

let time f = time_with ignore f

let scale k t = { median = t.median *. k; lo = t.lo *. k; hi = t.hi *. k }

(* the timing of one of [n] operations inside each timed run *)
let per n t = scale (1. /. float_of_int n) t

(* ------------------------------------------------------------------ *)
(* Cells, tables and claims                                            *)
(* ------------------------------------------------------------------ *)

type cell =
  | Count of int
  | Secs of float  (** one reading (E20, E21) *)
  | Timed of timing
  | Ratio of float
  | Words of float  (** heap words per node or key (E5) *)
  | Bool of bool
  | Label of string
  | Nil  (** "-": nothing measured *)

let ratio a b = Ratio (a.median /. b.median)

let secs t =
  if t >= 1. then Fmt.str "%.2fs" t
  else if t >= 1e-3 then Fmt.str "%.2fms" (t *. 1e3)
  else if t >= 1e-6 then Fmt.str "%.2fus" (t *. 1e6)
  else Fmt.str "%.1fns" (t *. 1e9)

(* a timed cell prints its median and half its range, relative *)
let text = function
  | Count n -> string_of_int n
  | Secs t -> secs t
  | Timed t when t.median > 0. ->
    Fmt.str "%s ±%.0f%%" (secs t.median) (50. *. (t.hi -. t.lo) /. t.median)
  | Timed t -> secs t.median
  | Ratio r -> Fmt.str "%.2fx" r
  | Words w -> Fmt.str "%.1f" w
  | Bool b -> string_of_bool b
  | Label s -> s
  | Nil -> "-"

let json_of_cell c =
  let v unit x = Json.Obj [ ("unit", Json.Str unit); ("value", x) ] in
  match c with
  | Count n -> v "count" (Json.Num (float_of_int n))
  | Secs t -> v "s" (Json.Num t)
  | Timed t ->
    Json.Obj
      [
        ("unit", Json.Str "s"); ("value", Json.Num t.median);
        ("min", Json.Num t.lo); ("max", Json.Num t.hi);
        ("reps", Json.Num (float_of_int reps));
      ]
  | Ratio r -> v "ratio" (Json.Num r)
  | Words w -> v "words" (Json.Num w)
  | Bool b -> v "bool" (Json.Bool b)
  | Label s -> v "label" (Json.Str s)
  | Nil -> Json.Null

(* Every table and claim of the running experiment, newest first; the
   driver collects and resets them after each experiment. *)
let tables : Json.t list ref = ref []
let claims : (string * bool) list ref = ref []

let claim holds fmt = Fmt.kstr (fun s -> claims := (s, holds) :: !claims) fmt

let print_table ~title ~claim headers rows =
  tables :=
    Json.Obj
      [
        ("title", Json.Str title); ("claim", Json.Str claim);
        ("headers", Json.Arr (List.map (fun h -> Json.Str h) headers));
        ( "rows",
          Json.Arr (List.map (fun r -> Json.Arr (List.map json_of_cell r)) rows)
        );
      ]
    :: !tables;
  let rows = List.map (List.map text) rows in
  Fmt.pr "@.== %s ==@." title;
  Fmt.pr "   claim: %s@." claim;
  (* display width: UTF-8 continuation bytes take no column *)
  let width s =
    String.fold_left
      (fun n c -> if Char.code c land 0xC0 = 0x80 then n else n + 1)
      0 s
  in
  let widths =
    List.mapi
      (fun c h ->
        List.fold_left
          (fun w row -> max w (width (List.nth row c)))
          (width h) rows)
      headers
  in
  let line row =
    Fmt.pr "   %s@."
      (String.concat "  "
         (List.map2
            (fun w cell -> cell ^ String.make (w - width cell) ' ')
            widths row))
  in
  line headers;
  line (List.map (fun w -> String.make w '-') widths);
  List.iter line rows

let parse_env src =
  match Lang.Parser.parse src with
  | Ok m -> (
    match Lang.Typecheck.check m with
    | Ok env -> env
    | Error _ -> failwith "bench program does not typecheck")
  | Error e -> failwith e

(* Theorem 5.1 over rows of [Label sample :: ... Bool same ...] *)
let claim_thm51 rows =
  let broken =
    List.filter_map
      (function
        | Label n :: cells when List.mem (Bool false) cells -> Some n
        | _ -> None)
      rows
  in
  claim (broken = []) "Theorem 5.1 holds on every sample (violated: [%s])"
    (String.concat ", " broken)

(* ------------------------------------------------------------------ *)
(* E1 — §3.4: maintained height cost profile                           *)
(* ------------------------------------------------------------------ *)

let rec leftmost = function
  | Itree.Nil -> assert false
  | Itree.Node nd -> (
    match Var.get nd.Itree.left with Itree.Nil -> nd | sub -> leftmost sub)

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
        (* timed: toggle a graft under the deepest leaf, then re-query *)
        let leaf = leftmost tree and graft = Itree.node forest (-3) in
        let flip = ref false in
        let (), t_inc =
          time (fun () ->
              for _ = 1 to 100 do
                flip := not !flip;
                Var.set leaf.Itree.left (if !flip then graft else Itree.Nil);
                ignore (Itree.height forest tree)
              done)
        in
        let _, t_exh = time (fun () -> Itree.height_exhaustive tree) in
        [
          Count n; Count first; Count repeat; Count single; Count batched;
          Timed (per 100 t_inc); Timed t_exh;
        ])
      [ 1023; 4095; 16383; 65535 ]
  in
  claim
    (List.for_all (function _ :: _ :: Count 0 :: _ -> true | _ -> false) rows)
    "re-query = 0 at every n";
  print_table ~title:"E1  maintained height (§3.4)"
    ~claim:
      "first call O(n); repeats O(1); a pointer change O(height); batched \
       no-op changes propagate nothing"
    [
      "n"; "first-call"; "re-query"; "1-change"; "batch(8 noop + 1)";
      "change+query"; "exhaustive";
    ]
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
        let _, exh_t = time (fun () -> L.exhaustive_value root) in
        let k = ref 0 in
        let _, inc_t =
          time (fun () ->
              incr k;
              L.set_int leaf_nodes.(1) (20_000 + !k);
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
        let _, static_t =
          time (fun () ->
              incr k;
              LS.set_int ls s_leaves.(1) (20_000 + !k);
              LS.value_of ls s_root)
        in
        [
          Count leaves; Count first; Count edit; Timed inc_t; Timed static_t;
          Timed exh_t;
        ])
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
        let _, oracle_t = time (fun () -> Sheet.exhaustive_value s (0, n - 1)) in
        let k = ref 0 in
        let _, inc_t =
          time (fun () ->
              incr k;
              Sheet.set_raw s (0, n / 2) (string_of_int (2000 + !k));
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
          [ Label (Fmt.str "chain-%d" n); Count mid_edit; Timed inc_t;
            Timed oracle_t ];
          [ Label (Fmt.str "fan-%d" n); Count fan_edit; Nil; Nil ];
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
  (* Alphonse AVL: plain BST insert + maintained balance, fresh each run *)
  let (eng, t), alphonse_t =
    time_with
      (fun () ->
        let eng = Engine.create () in
        (eng, Avl.create eng))
      (fun (eng, t) ->
        for k = 1 to n do
          Avl.insert t k;
          Avl.rebalance t
        done;
        (eng, t))
  in
  let total_execs = executions eng in
  Engine.reset_stats eng;
  Avl.insert t (n + 100);
  Avl.rebalance t;
  let one_more = executions eng in
  (* hand-coded baseline *)
  let build m =
    let b = ref Base.Nil in
    for k = 1 to m do
      b := Base.insert !b k
    done;
    !b
  in
  let _, base_t = time (fun () -> build n) in
  (* exhaustive: conventional execution re-balances from scratch each time;
     approximate with the baseline rebuilt from all keys on every insert,
     sampled 1/8 to keep the quadratic baseline tolerable *)
  let (), exhaustive_t =
    time (fun () ->
        for m = 1 to n / 8 do
          ignore (build (m * 8))
        done)
  in
  let exhaustive_t = scale 8. exhaustive_t in
  (* lookups on the final balanced tree *)
  let (), lookup_t =
    time (fun () ->
        for k = 1 to n do
          ignore (Avl.mem t k)
        done)
  in
  (* steady state: insert and delete an odd key in a tree of 1024 even
     keys, so each pair leaves the tree as it found it *)
  let pairs = 1000 in
  let steady insert delete =
    let k = ref 0 in
    time (fun () ->
        for _ = 1 to pairs do
          incr k;
          let key = (2 * (!k mod n)) + 1 in
          insert key;
          delete key
        done)
    |> snd |> per pairs
  in
  let st = Avl.create (Engine.create ()) in
  for k = 1 to n do
    Avl.insert st (2 * k)
  done;
  Avl.rebalance st;
  let steady_alphonse =
    steady
      (fun k -> Avl.insert st k; Avl.rebalance st)
      (fun k -> Avl.delete st k; Avl.rebalance st)
  in
  let b = ref Base.Nil in
  for k = 1 to n do
    b := Base.insert !b (2 * k)
  done;
  let steady_hand =
    steady (fun k -> b := Base.insert !b k) (fun k -> b := Base.delete !b k)
  in
  let factor = alphonse_t.median /. base_t.median in
  claim (factor <= 250.) "alphonse/hand-coded %.0fx <= 250x" factor;
  print_table ~title:"E4  self-balancing AVL (§7.3, §9)"
    ~claim:
      "Alphonse AVL keeps the tree balanced with O(log n) re-executions per \
       insert; asymptotics match the hand-coded AVL, with a constant-factor \
       bookkeeping cost; both beat exhaustive re-balancing"
    [ "metric"; "value" ]
    [
      [ Label "inserts"; Count n ];
      [ Label "alphonse total re-executions"; Count total_execs ];
      [ Label "alphonse re-executions for 1 more insert"; Count one_more ];
      [ Label "alphonse time (insert+rebalance each)"; Timed alphonse_t ];
      [ Label "hand-coded baseline time"; Timed base_t ];
      [ Label "alphonse / hand-coded"; Ratio factor ];
      [ Label "exhaustive rebuild-per-insert time (est)"; Timed exhaustive_t ];
      [ Label "alphonse n lookups (mem, rebalancing)"; Timed lookup_t ];
      [ Label "steady insert+delete (alphonse)"; Timed steady_alphonse ];
      [ Label "steady insert+delete (hand-coded)"; Timed steady_hand ];
      [ Label "steady alphonse / hand-coded";
        ratio steady_alphonse steady_hand ];
      [ Label "final height"; Count (Avl.check_height (Avl.root t)) ];
      [ Label "balanced"; Bool (Avl.is_balanced (Avl.root t)) ];
    ]

(* ------------------------------------------------------------------ *)
(* E5 — §9.1: space                                                    *)
(* ------------------------------------------------------------------ *)

let e5 () =
  let ratios =
    List.map
      (fun n ->
        let eng = Engine.create () in
        let forest = Itree.create eng in
        let tree = Itree.perfect forest 0 (n - 1) in
        ignore (Itree.height forest tree);
        let g = Engine.graph_stats eng in
        let nodes = g.Depgraph.Graph.live_nodes in
        let edges = g.Depgraph.Graph.live_edges in
        (n, nodes, edges, float_of_int edges /. float_of_int nodes,
         float_of_int nodes /. float_of_int n))
      [ 1023; 4095; 16383; 65535 ]
  in
  let steady name pick =
    let xs = List.map pick ratios in
    let lo = List.fold_left Float.min infinity xs
    and hi = List.fold_left Float.max 0. xs in
    claim (hi <= lo *. 1.01) "%s within 1%% across M (%.3f..%.3f)" name lo hi
  in
  steady "edges/node" (fun (_, _, _, r, _) -> r);
  steady "nodes/M" (fun (_, _, _, _, r) -> r);
  print_table ~title:"E5  dependency graph space (§9.1)"
    ~claim:
      "O(M) nodes and — with constant-size referenced-argument sets — O(M) \
       edges: the edges/node and nodes/M ratios stay constant as M grows"
    [ "M (tree nodes)"; "graph nodes"; "graph edges"; "edges/node"; "nodes/M" ]
    (List.map
       (fun (n, nodes, edges, en, nm) ->
         [ Count n; Count nodes; Count edges; Ratio en; Ratio nm ])
       ratios);
  (* The constant behind O(M): live heap words after a compaction, per
     graph node of a height-annotated tree and per key of an AVL tree
     after [rebalance] (its keys inserted in a shuffled order). The
     whole structure counts: tracked tree, engine, graph and caches. *)
  let live_words build =
    Gc.compact ();
    let before = (Gc.stat ()).Gc.live_words in
    let x = build () in
    Gc.compact ();
    let after = (Gc.stat ()).Gc.live_words in
    ignore (Sys.opaque_identity x);
    after - before
  in
  let itree_m = 16383 in
  let itree_nodes = ref 0 in
  let itree_words =
    live_words (fun () ->
        let eng = Engine.create () in
        let forest = Itree.create eng in
        let tree = Itree.perfect forest 0 (itree_m - 1) in
        ignore (Itree.height forest tree);
        itree_nodes := (Engine.graph_stats eng).Depgraph.Graph.live_nodes;
        (eng, tree))
  in
  let avl_row n =
    let nodes = ref 0 in
    let words =
      live_words (fun () ->
          let rand = Random.State.make [| n |] in
          let keys = Array.init n Fun.id in
          for i = n - 1 downto 1 do
            let j = Random.State.int rand (i + 1) in
            let k = keys.(i) in
            keys.(i) <- keys.(j);
            keys.(j) <- k
          done;
          let eng = Engine.create () in
          let tree = Avl.create eng in
          Array.iter (Avl.insert tree) keys;
          Avl.rebalance tree;
          nodes := (Engine.graph_stats eng).Depgraph.Graph.live_nodes;
          tree)
    in
    (n, !nodes, words)
  in
  let per a b = float_of_int a /. float_of_int b in
  let node_words = per itree_words !itree_nodes in
  (* bounds: the value measured when they were set, plus 5% (at
     16384 keys, the 275 words/key the change that set them aimed at) *)
  let node_bound = 55.7 in
  claim (node_words <= node_bound) "Itree words/graph node %.1f <= %.1f"
    node_words node_bound;
  let avl = List.map avl_row [ 4096; 16384 ] in
  let avl_bound = function 4096 -> 280. | _ -> 275. in
  List.iter
    (fun (n, _, words) ->
      let w = per words n in
      claim (w <= avl_bound n) "Avl %d words/key %.1f <= %.0f" n w (avl_bound n))
    avl;
  print_table ~title:"E5  space per graph node and per key (§9.1)"
    ~claim:
      "live words after Gc.compact: per graph node of a height-annotated \
       tree, and per key of an AVL tree after rebalance, each under its \
       bound"
    [ "structure"; "graph nodes"; "live words"; "words/node"; "words/key" ]
    ([ Label (Fmt.str "Itree %d" itree_m); Count !itree_nodes;
       Count itree_words; Words node_words; Words (per itree_words itree_m) ]
    :: List.map
         (fun (n, nodes, words) ->
           [ Label (Fmt.str "Avl %d" n); Count nodes; Count words;
             Words (per words nodes); Words (per words n) ])
         avl)

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
  let (), t_plain =
    time (fun () -> for i = 1 to iters do plain := !plain + i mod 7 done)
  in
  let (), t_untracked =
    time (fun () ->
        for i = 1 to iters do
          Var.set untracked (Var.get untracked + (i mod 7))
        done)
  in
  let (), t_tracked =
    time (fun () ->
        for i = 1 to iters do
          Var.set tracked (Var.get tracked + (i mod 7))
        done)
  in
  ignore (Func.call probe ());
  (* (b) the language: a pragma-free program under both interpreters *)
  let env = parse_env overhead_program in
  let conv, t_conv = time (fun () -> Lang.Interp.run env) in
  let inc, t_inc = time (fun () -> Transform.Incr_interp.run env) in
  assert (conv.Lang.Interp.output = inc.Transform.Incr_interp.output);
  let factor = t_tracked.median /. t_plain.median in
  claim (factor <= 20.) "tracked/plain %.1fx <= 20x" factor;
  print_table ~title:"E6  dynamic dependence analysis overhead (§9.2)"
    ~claim:
      "instrumentation is O(T): a constant factor over conventional \
       execution, and ~1x when the analysis proves sites untracked (§6.1)"
    [ "workload"; "time"; "vs plain" ]
    [
      [ Label "plain ref loop (1M ops)"; Timed t_plain; Ratio 1. ];
      [ Label "untracked Var loop"; Timed t_untracked;
        ratio t_untracked t_plain ];
      [ Label "tracked Var loop (mutator)"; Timed t_tracked; Ratio factor ];
      [ Label "Alphonse-L conventional run"; Timed t_conv; Ratio 1. ];
      [ Label "Alphonse-L instrumented run"; Timed t_inc; ratio t_inc t_conv ];
    ]

(* ------------------------------------------------------------------ *)
(* E7 — §6.3: graph partitioning                                       *)
(* ------------------------------------------------------------------ *)

let e7 () =
  let k = 64 and size = 255 in
  (* A write flips a demand forest's heights on the spot, so only an
     eager forest leaves settle work queued: that queued work is what a
     partition spares a query that does not need it. *)
  let run ~strategy ~partitioning =
    let eng = Engine.create ~partitioning () in
    (* one forest per tree, so that each tree is its own partition *)
    let forests = Array.init k (fun _ -> Itree.create ~strategy eng) in
    let trees =
      Array.map (fun forest -> Itree.perfect forest 0 (size - 1)) forests
    in
    let mids =
      Array.map
        (fun tree ->
          let interior = Itree.nodes tree in
          List.nth interior (List.length interior / 2))
        trees
    in
    (* each run brings every tree up to date, dirties all but #0, then
       asks only tree #0 *)
    time_with
      (fun () ->
        Array.iteri (fun i tree -> ignore (Itree.height forests.(i) tree)) trees;
        Engine.reset_stats eng;
        for i = 1 to k - 1 do
          Var.set mids.(i).Itree.left (Itree.node forests.(i) (-1))
        done)
      (fun () ->
        ignore (Itree.height forests.(0) trees.(0));
        (settle_steps eng, executions eng))
  in
  let row label strategy partitioning =
    let (s, e), t = run ~strategy ~partitioning in
    (s, [ Label label; Count s; Count e; Timed t ])
  in
  let s_on, on = row "partitioned, eager (64 trees)" Engine.Eager true in
  let s_off, off = row "single global set, eager" Engine.Eager false in
  let s_demand, demand = row "single global set, demand" Engine.Demand false in
  claim (s_on = 0) "partitioned settle-steps = 0";
  claim (s_off > 0) "unpartitioned eager settle-steps %d > 0" s_off;
  claim (s_demand = 0) "demand marking takes no settle step (%d)" s_demand;
  print_table ~title:"E7  dependency graph partitioning (§6.3)"
    ~claim:
      "with partitioning, a query touches only its own partition's \
       inconsistent set; unrelated changes stay batched (zero settle work); \
       union-find adds only ~alpha(M)"
    [ "config"; "settle-steps"; "re-executions"; "query-time" ]
    [ on; off; demand ]

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
  claim (d_unc = 1 && s_unc = 0)
    "UNCHECKED records 1 dependency (%d) and 0 re-executions (%d)" d_unc s_unc;
  print_table ~title:"E8  UNCHECKED dependency pruning (§6.4)"
    ~claim:
      "the pragma cuts a lookup's recorded dependencies from O(path) to \
       O(1) and eliminates the spurious re-executions caused by path \
       perturbations"
    [ "config"; "deps recorded"; "re-execs after 50 path writes" ]
    [
      [ Label "checked (default)"; Count d_chk; Count s_chk ];
      [ Label "(*UNCHECKED*) walk"; Count d_unc; Count s_unc ];
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
  (* the counts are pinned: a change to how marks spread must show here
     as a failed claim, not as a silently different table *)
  let scenario name f ~demand ~eager =
    let eng_d, a_d, top_d = build Engine.Demand in
    let eng_e, a_e, top_e = build Engine.Eager in
    f a_d top_d;
    f a_e top_e;
    let d = executions eng_d and e = executions eng_e in
    claim (d = demand && e = eager) "%s: demand %d = %d, eager %d = %d execs"
      name d demand e eager;
    [ Label name; Count d; Count e ]
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
      scenario "one absorbed change + query" absorbed_change ~demand:65
        ~eager:2;
      scenario "100 changes, then 1 query" batch_then_query ~demand:65
        ~eager:13;
      scenario "100 x (change; query)" interleaved ~demand:6500 ~eager:408;
    ]

(* ------------------------------------------------------------------ *)
(* E10 — §6.1: the cost of runtime checks                              *)
(* ------------------------------------------------------------------ *)

let e10 () =
  let eng = Engine.create () in
  let v = Var.create eng 0 in
  let probe = Func.create eng (fun _ () -> Var.get v) in
  ignore (Func.call probe ());
  Engine.reset_stats eng;
  let edges_before = (Engine.graph_stats eng).Depgraph.Graph.total_edges in
  for _ = 1 to 1000 do
    ignore (Var.get v)
  done;
  let edges = (Engine.graph_stats eng).Depgraph.Graph.total_edges - edges_before
  and pushes = (Engine.stats eng).Engine.queue_pushes in
  claim (edges = 0 && pushes = 0)
    "1000 mutator reads create 0 edges (%d) and 0 queue pushes (%d)" edges
    pushes;
  print_table ~title:"E10  limiting runtime checks (§6.1)"
    ~claim:
      "mutator reads of tracked storage do no graph work at all (no edges, \
       no queue traffic)"
    [ "metric"; "value" ]
    [
      [ Label "mutator reads performed"; Count 1000 ];
      [ Label "edges created by them"; Count edges ];
      [ Label "queue pushes"; Count pushes ];
    ];
  (* per-op cost of a read and of an equal-value write, by tracking
     status: a plain ref, a Var no instance has read, a Var one has *)
  let ops = 1_000_000 in
  let plain = ref 1 and untracked = Var.create eng 1 in
  let per_op f =
    Timed (per ops (snd (time (fun () -> for _ = 1 to ops do f () done))))
  in
  let read get = per_op (fun () -> ignore (Sys.opaque_identity (get () + 1))) in
  print_table ~title:"E10  per-op cost by tracking status (§6.1)"
    ~claim:
      "outside incremental execution a tracked Var reads like an untracked \
       one, and an equal-value write to it is the change test and the \
       store"
    [ "op"; "plain ref"; "untracked Var"; "tracked Var" ]
    [
      [ Label "read"; read (fun () -> !plain);
        read (fun () -> Var.get untracked); read (fun () -> Var.get v) ];
      [ Label "equal-value write";
        per_op (fun () -> plain := Sys.opaque_identity 1);
        per_op (fun () -> Var.set untracked 1); per_op (fun () -> Var.set v 0) ];
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
  let run policy =
    let eng = Engine.create () in
    let f = Func.create eng ~policy (fun _ k -> k * k) in
    Array.iter (fun k -> ignore (Func.call f k)) keys;
    (Engine.stats eng, Func.size f)
  in
  let policies =
    [
      ("unbounded", Policy.Unbounded); ("lru 64", Policy.Lru 64);
      ("lru 256", Policy.Lru 256); ("fifo 64", Policy.Fifo 64);
      ("fifo 256", Policy.Fifo 256);
    ]
  in
  let runs = List.map (fun (name, p) -> (name, run p)) policies in
  let hits name = (fst (List.assoc name runs)).Engine.cache_hits in
  List.iter
    (fun cap ->
      let lru = hits ("lru " ^ cap) and fifo = hits ("fifo " ^ cap) in
      claim (lru >= fifo) "LRU hits %d >= FIFO hits %d at capacity %s" lru fifo
        cap)
    [ "64"; "256" ];
  print_table ~title:"E11  cache replacement pragma arguments (§3.3)"
    ~claim:
      "bounded tables trade recomputation for space; LRU dominates FIFO \
       under skewed access; hit rates rise with capacity"
    [ "policy"; "executions"; "hits"; "hit rate"; "table size"; "evictions" ]
    (List.map
       (fun (name, ((s : Engine.stats), size)) ->
         [
           Label name; Count s.Engine.executions; Count s.Engine.cache_hits;
           Ratio (float_of_int s.Engine.cache_hits /. float_of_int calls);
           Count size; Count s.Engine.evictions;
         ])
       runs)

(* ------------------------------------------------------------------ *)
(* E12 — Theorem 5.1 + §8: the transformation end to end               *)
(* ------------------------------------------------------------------ *)

let e12 () =
  let rows =
    List.map
      (fun (name, src) ->
        let env = parse_env src in
        let conv = Lang.Interp.run ~fuel:200_000_000 env in
        let inc = Transform.Incr_interp.run ~fuel:200_000_000 env in
        let same = conv.Lang.Interp.output = inc.Transform.Incr_interp.output in
        [
          Label name;
          Count conv.Lang.Interp.steps;
          Count inc.Transform.Incr_interp.steps;
          Ratio
            (float_of_int conv.Lang.Interp.steps
            /. float_of_int (max 1 inc.Transform.Incr_interp.steps));
          Count inc.Transform.Incr_interp.engine_stats.Engine.executions;
          Bool same;
        ])
      Lang.Samples.all
  in
  print_table ~title:"E12  the transformation end to end (Theorem 5.1, §8)"
    ~claim:
      "Alphonse execution produces the same output as conventional \
       execution while doing asymptotically less work"
    [ "program"; "conv steps"; "alphonse steps"; "speedup"; "execs"; "thm 5.1" ]
    rows;
  claim_thm51 rows

(* ------------------------------------------------------------------ *)
(* E13 — §6.2: static subgraph construction                            *)
(* ------------------------------------------------------------------ *)

(* §6.2's static subgraph is the case "every read repeats": a
   re-execution walks a cursor over its recorded preds and keeps each
   edge it re-reads, so instances whose reads are the same each time
   remove and add no edge, with no declaration. Against them, instances
   whose second read alternates between two cells cut and re-record one
   edge per re-execution. *)
let e13 () =
  let funcs = 500 and rounds = 40 in
  let run ~changing =
    let eng = Engine.create ~default_strategy:Engine.Eager () in
    let a = Var.create eng 0 in
    let b = Var.create eng 1 and c = Var.create eng 2 in
    let fs =
      Array.init funcs (fun i ->
          Func.create eng (fun _ () ->
              let x = Var.get a in
              if changing && x mod 2000 = 0 then x + Var.get b + i
              else x + Var.get c + i))
    in
    Array.iter (fun f -> ignore (Func.call f ())) fs;
    let drive () =
      for r = 1 to rounds do
        Var.set a (r * 1000);
        Engine.stabilize eng
      done
    in
    Engine.reset_stats eng;
    let g0 = Engine.graph_stats eng in
    drive ();
    let g = Engine.graph_stats eng in
    let counts =
      (executions eng,
       g.Depgraph.Graph.removed_edges - g0.Depgraph.Graph.removed_edges,
       g.Depgraph.Graph.total_edges - g0.Depgraph.Graph.total_edges)
    in
    (counts, snd (time drive))
  in
  let (e_ch, rm_ch, add_ch), t_ch = run ~changing:true in
  let (e_st, rm_st, add_st), t_st = run ~changing:false in
  claim (rm_st = 0 && add_st = 0) "same reads remove and add 0 edges (%d, %d)"
    rm_st add_st;
  print_table ~title:"E13  static subgraph construction (§6.2)"
    ~claim:
      "a re-execution that reads what its last execution read keeps its \
       edges: no RemovePredEdges / re-record work, the graph-manipulation \
       overhead the paper attributes to production-based systems, and no \
       static-R(p) declaration to get wrong"
    [ "config"; "re-executions"; "edges removed"; "edges added"; "time" ]
    [
      [ Label "changing reads"; Count e_ch; Count rm_ch; Count add_ch;
        Timed t_ch ];
      [ Label "same reads"; Count e_st; Count rm_st; Count add_st;
        Timed t_st ];
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
  let drive () =
    for r = 1 to rounds do
      Var.set base r;
      Engine.stabilize eng
    done
  in
  Engine.reset_stats eng;
  drive ();
  let execs = executions eng
  and fixups = fixups_setup + (Engine.stats eng).Engine.order_fixups in
  let (), t = time drive in
  let instances = ref 0 in
  Engine.iter_nodes eng (fun n ->
      if Engine.node_kind n = `Instance then incr instances);
  let bound = !instances * rounds in
  claim (execs <= bound) "re-executions %d <= bound %d" execs bound;
  (* pinned: the drain order and the marking rules decide this count *)
  claim (execs = 14976) "re-executions %d = 14976" execs;
  print_table ~title:"E14  topological drain order (§2, §4.5)"
    ~claim:
      "\"the amount of computation is minimized when done in a topological \
       order\": with Pearce-Kelly repair of out-of-order edges into eager \
       instances, no instance runs more than once per change"
    [ "diamonds"; "re-executions"; "bound (instances x rounds)";
      "order fixups"; "time" ]
    [ [ Count layers; Count execs; Count bound; Count fixups; Timed t ] ];
  (* The settle queue's unit cost (ROADMAP item 3, substrate
     [Flat_heap]): one insert and one drop_min on a heap held at [size]
     queued ids, whose keys are drawn at random the way marks land
     across a front. *)
  let pairs = 1_000_000 in
  let keys =
    let rng = Random.State.make [| 14 |] in
    Array.init 4096 (fun _ -> Random.State.bits rng)
  in
  let key id = keys.(id) in
  let module Heap = Depgraph.Flat_heap in
  let queue_pair size =
    let fill () =
      let h = Heap.create ~key in
      for id = 0 to size - 1 do
        Heap.insert h id
      done;
      h
    in
    let run h =
      for i = 1 to pairs do
        Heap.insert h (i land 4095);
        Heap.drop_min h
      done
    in
    [ Label (Fmt.str "insert + drop_min, %d queued" size);
      Timed (per pairs (snd (time_with fill run))) ]
  in
  print_table ~title:"E14  settle-queue unit cost"
    ~claim:
      "a queue push and pop move unboxed ints: O(log n) compares, no \
       allocation and no write barrier"
    [ "op"; "time per pair" ]
    [ queue_pair 64; queue_pair 1024 ]

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
  (* the sheet owns its engine *)
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
      Label name;
      Count p.Alphonse.Inspect.total_instances;
      Count p.Alphonse.Inspect.critical_path;
      Count p.Alphonse.Inspect.max_width;
      Ratio p.Alphonse.Inspect.speedup_bound;
    ]
  in
  print_table ~title:"E15  parallel-execution potential (§10)"
    ~claim:
      "the dependency graph's level structure bounds the speedup of a \
       parallel evaluator: wide shallow graphs (trees, sheets) parallelize \
       well; deep chains do not"
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
  (* each timed run gets a fresh chain; [arm] installs its hook *)
  let build arm () =
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
    Engine.reset_stats eng;
    (eng, a, !prev, arm eng)
  in
  let drive (eng, a, top, fired) =
    for r = 1 to rounds do
      Var.set a r;
      (try Engine.stabilize eng with Alphonse.Faults.Injected _ -> ());
      try ignore (Func.call top ()) with Alphonse.Faults.Injected _ -> ()
    done;
    (* drain: clear the injector, requeue anything still quarantined,
       and read the final answer *)
    Alphonse.Faults.clear eng;
    Engine.stabilize eng;
    (Engine.stats eng, Func.call top (), fired)
  in
  let run arm = time_with (build arm) drive in
  let (s_clean, v_clean, _), t_clean = run (fun _ -> None) in
  let row name (((s : Engine.stats), v, fired), t) =
    claim (v = v_clean) "%s converges to the fault-free answer" name;
    [
      Label name; Count s.Engine.executions;
      (match fired with Some n -> Count !n | None -> Nil);
      Count s.Engine.failures; Count s.Engine.retries; Timed t;
      Bool (v = v_clean);
    ]
  in
  let clean = row "no hook (baseline)" ((s_clean, v_clean, None), t_clean) in
  let inert =
    row "inert hook installed"
      (run (fun eng -> Engine.set_fault_hook eng (Some ignore); None))
  in
  let seeded =
    row "seeded crashes (rate 0.05%)"
      (run (fun eng ->
           Some (Alphonse.Faults.install_seeded eng ~seed:42 ~rate:0.0005 ())))
  in
  print_table ~title:"E16  recovery overhead (failure model)"
    ~claim:
      "fault tolerance is pay-as-you-go: an inert hook adds ~nothing to the \
       settle path, and runs that absorb injected crashes still converge to \
       the fault-free answer after quarantine and retry"
    [ "config"; "executions"; "faults"; "failures"; "retries"; "time";
      "converges" ]
    [ clean; inert; seeded ]

(* ------------------------------------------------------------------ *)
(* E17 — §6.1 sharpened: effect analysis vs pure reachability          *)
(* ------------------------------------------------------------------ *)

let e17 () =
  (* analyze mutates the AST site notes, so each variant gets a fresh
     parse of the sample *)
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
        let base = Transform.Analysis.analyze ~sharpen:false (parse_env src) in
        let env = parse_env src in
        let sharp = Transform.Analysis.analyze env in
        let conv = Lang.Interp.run ~fuel:200_000_000 (parse_env src) in
        let inc = Transform.Incr_interp.run ~fuel:200_000_000 env in
        let same = conv.Lang.Interp.output = inc.Transform.Incr_interp.output in
        let s_base = sites base.Transform.Analysis.stats
        and s_sharp = sites sharp.Transform.Analysis.stats in
        [
          Label name; Count (storage base); Count (storage sharp);
          Count s_base; Count s_sharp; Count (s_base - s_sharp); Bool same;
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
    rows;
  claim_thm51 rows

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
      (time (fun () ->
           for r = 1 to edits do
             Sheet.set s "A1" (string_of_int r);
             ignore (Sheet.value_at s "A20")
           done))
  in
  let t_mem = drive (build ()) in
  let durable_run policy =
    let s = build () in
    let dir = fresh_dir () in
    let d = Durable.attach ~policy ~dir (Sheet.engine s) (Sheet.persist s) in
    Sheet.set_journal s (Some (Durable.journal_op d));
    (drive s, s, d, dir)
  in
  let t_never, _, d_never, dir_never = durable_run Wal.Never in
  Durable.detach d_never;
  let t_always, _, d_always, dir_always = durable_run Wal.Always in
  Durable.detach d_always;
  let t_commit, s_commit, d_commit, dir_commit = durable_run Wal.Commit in
  (* snapshot write + cold recovery on the commit-policy state *)
  let snap, t_snap = time (fun () -> Durable.checkpoint d_commit) in
  let snap_bytes = (Unix.stat snap).Unix.st_size in
  Durable.detach d_commit;
  let s2, t_rec =
    time_with Sheet.create (fun s2 ->
        ignore
          (Durable.recover ~dir:dir_commit (Sheet.engine s2) (Sheet.persist s2));
        s2)
  in
  let agree = Sheet.render s2 = Sheet.render s_commit in
  List.iter rm_rf [ dir_never; dir_always; dir_commit ];
  claim agree "recovery restores the pre-crash state";
  let row name t =
    [ Label name; Timed t; Timed (per edits t); ratio t t_mem; Nil ]
  in
  print_table ~title:"E18  durability overhead (WAL + snapshots)"
    ~claim:
      "write-ahead journaling is a bounded, policy-priced tax on the edit \
       loop (flush-only < fsync-per-commit < fsync-per-append), a \
       snapshot is one linear serialization, and cold recovery restores \
       the exact pre-crash state"
    [ "config"; "time"; "per-edit"; "vs in-memory"; "state" ]
    [
      row "in-memory settle" t_mem;
      row "wal policy=never" t_never;
      row "wal policy=commit" t_commit;
      row "wal policy=always" t_always;
      [ Label (Fmt.str "snapshot write (%dB)" snap_bytes); Timed t_snap; Nil;
        Nil; Nil ];
      [ Label "recover (restore+replay)"; Timed t_rec; Nil; Nil; Bool agree ];
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
               (E6/E17 discipline) is broken; claimed <= 1.05x
     enabled   registry attached for the timed rounds: two clock reads
               and one histogram observation per stabilize session —
               reported, not claimed (it is the price of observability) *)
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
    let t0 = now () in
    for r = 1 to rounds do
      edit r;
      Engine.stabilize eng;
      ignore (read ())
    done;
    (now () -. t0) /. float_of_int rounds
  in
  (* The claimed base/disabled comparison is between two identical code
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
        claim (snd dis <= 1.05) "%s: disabled metrics %.2fx <= 1.05x base" name
          (snd dis);
        let row config (t, r) = [ Label name; Label config; Secs t; Ratio r ] in
        [ row "base" base; row "disabled" dis; row "enabled" en ])
      settle_shapes
  in
  print_table ~title:"E20  metrics registry overhead (per settle round)"
    ~claim:
      "detached metrics cost nothing measurable (disabled rows <= 1.05x \
       base); an attached registry costs two clock reads and one histogram \
       observation per stabilize session, not per-event atomics"
    [ "workload"; "config"; "time"; "overhead" ]
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
        let t0 = now () in
        let resp =
          Daemon.submit d
            (request ~tenant:(tenant_id i) [ set_op "A1" v; get_op tail ])
        in
        let dt = now () -. t0 in
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
    let t0 = now () in
    let ths = List.init threads (fun k -> Thread.create (body k) ()) in
    List.iter Thread.join ths;
    let wall = now () -. t0 in
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
    (match load with
    | "1x" -> claim (shed = 0) "1x: %d tenants served, %d shed" tenants shed
    | _ ->
      claim (shed > 0 && ok > 0) "2x: sheds (%d) and still accepts (%d)" shed
        ok);
    [
      Label load; Count tenants; Count threads; Count ok; Count shed;
      Count (int_of_float (float_of_int ok /. wall)); Secs p50; Secs p99;
    ]
  in
  claim (tenants >= 1000) "%d tenants >= 1000" tenants;
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
       the surplus with fast 503s instead of stalling"
    [ "load"; "tenants"; "threads"; "ok"; "shed"; "edits/s"; "p50"; "p99" ]
    rows

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

(* the experiments whose claims a full run must check *)
let required = [ "E4"; "E6"; "E14"; "E16"; "E17"; "E18"; "E20"; "E21" ]

let results_file = "BENCH_results.json"

(* Runs one experiment; returns its JSON record and its claims, oldest
   first. *)
let run_experiment (name, f) =
  tables := [];
  claims := [];
  let t0 = now () in
  f ();
  let wall = now () -. t0 in
  let cs = List.rev !claims in
  List.iter
    (fun (c, holds) -> Fmt.pr "   %s %s@." (if holds then "ok:" else "FAILED:") c)
    cs;
  let json =
    Json.Obj
      [
        ("name", Json.Str name); ("wall_clock_s", Json.Num wall);
        ("tables", Json.Arr (List.rev !tables));
        ( "claims",
          Json.Arr
            (List.map
               (fun (c, holds) ->
                 Json.Obj [ ("claim", Json.Str c); ("holds", Json.Bool holds) ])
               cs) );
      ]
  in
  (json, List.map (fun (c, holds) -> (name ^ ": " ^ c, holds)) cs)

let () =
  let names = List.tl (Array.to_list Sys.argv) in
  let todo =
    if names = [] then experiments
    else
      List.map
        (fun n ->
          match List.assoc_opt n experiments with
          | Some f -> (n, f)
          | None ->
            Fmt.epr "unknown experiment %s@." n;
            exit 2)
        names
  in
  Fmt.pr "Alphonse evaluation harness — paper claims vs measured@.";
  Fmt.pr "(see DESIGN.md for the experiment index, EXPERIMENTS.md for \
          analysis)@.";
  let results = List.map run_experiment todo in
  let claims =
    List.concat_map snd results
    @ List.filter_map
        (fun r ->
          if names = [] && not (List.mem_assoc r todo) then
            Some ("full run includes " ^ r, false)
          else None)
        required
  in
  Out_channel.with_open_text results_file (fun oc ->
      Out_channel.output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("schema", Json.Str "alphonse-bench/2");
                ("generator", Json.Str "bench/main.exe");
                ("experiments", Json.Arr (List.map fst results));
              ]));
      Out_channel.output_char oc '\n');
  let failed = List.filter (fun (_, holds) -> not holds) claims in
  List.iter (fun (c, _) -> Fmt.epr "claim FAILED: %s@." c) failed;
  Fmt.epr "bench: %d experiment(s), %d claim(s), %d failed -> %s@."
    (List.length results) (List.length claims) (List.length failed)
    results_file;
  if failed <> [] then exit 1
