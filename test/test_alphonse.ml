(* Tests for the Alphonse core: Var/Func/Engine semantics — caching,
   quiescence propagation, maintained side effects, unchecked, strategies,
   partitioning, cache replacement, and a randomized equivalence property
   (Theorem 5.1 for the embedded DSL). *)

(* CI audit mode: ALPHONSE_AUDIT=1 runs the invariant auditor after
   every settle step of every engine these tests create. *)
let audit_mode = Sys.getenv_opt "ALPHONSE_AUDIT" = Some "1"

module Engine = struct
  include Alphonse.Engine

  let create ?partitioning ?default_strategy ?max_retries ?max_stack_depth
      () =
    let eng =
      create ?partitioning ?default_strategy ?max_retries ?max_stack_depth ()
    in
    if audit_mode then set_self_audit eng true;
    eng
end

module Var = Alphonse.Var
module Func = Alphonse.Func
module Policy = Alphonse.Policy

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let executions eng = (Engine.stats eng).Engine.executions

(* ------------------------------------------------------------------ *)
(* Basic caching                                                       *)
(* ------------------------------------------------------------------ *)

let test_memo_fib () =
  let eng = Engine.create () in
  let fib =
    Func.create eng ~name:"fib" (fun fib n ->
        if n < 2 then n else Func.call fib (n - 1) + Func.call fib (n - 2))
  in
  checki "fib 20" 6765 (Func.call fib 20);
  (* linear executions thanks to the argument table *)
  checki "executions" 21 (executions eng);
  checki "fib 20 again" 6765 (Func.call fib 20);
  checki "no re-execution" 21 (executions eng);
  checki "table size" 21 (Func.size fib)

let test_var_recompute_on_change () =
  let eng = Engine.create () in
  let a = Var.create eng ~name:"a" 10 in
  let f = Func.create eng ~name:"f" (fun _ () -> Var.get a * 2) in
  checki "initial" 20 (Func.call f ());
  checki "one execution" 1 (executions eng);
  Var.set a 21;
  checki "after change" 42 (Func.call f ());
  checki "re-executed once" 2 (executions eng);
  (* writing an equal value propagates nothing *)
  Var.set a 21;
  checki "equal write" 42 (Func.call f ());
  checki "no spurious execution" 2 (executions eng)

let test_custom_var_equality () =
  let eng = Engine.create () in
  let a = Var.create eng ~equal:(fun x y -> abs (x - y) <= 1) 100 in
  let f = Func.create eng (fun _ () -> Var.get a) in
  checki "initial" 100 (Func.call f ());
  Var.set a 101;
  (* within tolerance: treated as unchanged *)
  checki "tolerated write cached" 100 (Func.call f ());
  checki "executions" 1 (executions eng);
  Var.set a 200;
  checki "big write recomputes" 200 (Func.call f ())

let test_untracked_var_fast_path () =
  let eng = Engine.create () in
  let a = Var.create eng 1 in
  (* never read inside an incremental procedure: stays untracked *)
  Var.set a 2;
  Var.set a 3;
  checkb "untracked" false (Var.is_tracked a);
  checki "plain reads work" 3 (Var.get a);
  let g = Engine.graph_stats eng in
  checki "no graph nodes" 0 g.Depgraph.Graph.live_nodes

(* ------------------------------------------------------------------ *)
(* Quiescence cutoff: eager vs demand                                  *)
(* ------------------------------------------------------------------ *)

(* a → b → c where b = a/2 absorbs small changes of a. *)
let chain strategy =
  let eng = Engine.create ~default_strategy:strategy () in
  let a = Var.create eng ~name:"a" 4 in
  let b = Func.create eng ~name:"b" (fun _ () -> Var.get a / 2) in
  let c = Func.create eng ~name:"c" (fun _ () -> Func.call b () * 10) in
  (eng, a, c)

let test_eager_cutoff () =
  let eng, a, c = chain Engine.Eager in
  checki "initial" 20 (Func.call c ());
  checki "two first executions" 2 (executions eng);
  Var.set a 5 (* 5/2 = 2: b's value is unchanged *);
  checki "cached at c" 20 (Func.call c ());
  (* quiescence: only b re-executed; propagation stopped there *)
  checki "only b re-ran" 3 (executions eng);
  Var.set a 8;
  checki "change reaches c" 40 (Func.call c ());
  checki "both re-ran" 5 (executions eng)

let test_demand_no_cutoff () =
  let eng, a, c = chain Engine.Demand in
  checki "initial" 20 (Func.call c ());
  Var.set a 5;
  checki "still correct" 20 (Func.call c ());
  (* demand propagation dirties transitively: both b and c re-execute *)
  checki "both re-ran" 4 (executions eng)

(* The arena representation's no-change fast paths must not allocate:
   an equal-value write to a settled tracked cell (the equality cutoff —
   no mark, no journal entry, no undo record) and a tracked read in the
   quick regime are both plain loads/stores. Per-iteration allocation is
   measured differentially — the delta for 10x the iterations must equal
   the delta for 1x, which cancels the constant cost of the
   [Gc.minor_words] probes themselves. *)
let test_cutoff_zero_alloc () =
  let eng = Engine.create () in
  let a = Var.create eng ~name:"a" 42 in
  let f = Func.create eng ~name:"f" (fun _ () -> Var.get a * 2) in
  checki "tracked and settled" 84 (Func.call f ());
  let measure iters =
    let w0 = Gc.minor_words () in
    for _ = 1 to iters do
      Var.set a 42;
      (* equal value: cutoff *)
      ignore (Var.get a)
    done;
    Gc.minor_words () -. w0
  in
  ignore (measure 10) (* warm-up: fault any lazy setup *);
  let d1 = measure 1_000 and d10 = measure 10_000 in
  Alcotest.(check (float 0.0)) "no per-iteration allocation" d1 d10;
  checki "still cached" 84 (Func.call f ());
  checki "no re-execution" 1 (executions eng)

(* A settle step — pop, then forward to the successors — allocates
   nothing, also in the demand settle a call runs on its partition. The
   loop below marks [a] and lets [Func.call g] settle it (two steps:
   [a], then its reader [f]); against a control loop that writes an
   untracked cell instead, the only extra allocation allowed is the
   3-word cell that puts the clean partition back on the dirty list.
   The engine is made without the audit-mode wrapper: the per-step
   auditor allocates by design. *)
let test_demand_settle_zero_alloc () =
  let eng = Alphonse.Engine.create () in
  let a = Var.create eng ~name:"a" 0 and b = Var.create eng ~name:"b" 0 in
  let f = Func.create eng ~name:"f" (fun _ () -> Var.get a + 1) in
  let g = Func.create eng ~name:"g" (fun _ () -> 7) in
  ignore (Func.call f () + Func.call g ());
  let i = ref 0 in
  let measure v iters =
    let w0 = Gc.minor_words () in
    for _ = 1 to iters do
      incr i;
      Var.set v !i;
      ignore (Func.call g ())
    done;
    Gc.minor_words () -. w0
  in
  ignore (measure a 10 +. measure b 10) (* warm-up *);
  let per v = (measure v 10_000 -. measure v 1_000) /. 9_000. in
  let steps0 = (Engine.stats eng).Engine.settle_steps in
  let settling = per a in
  checki "two settle steps per iteration" (2 * 11_000)
    ((Engine.stats eng).Engine.settle_steps - steps0);
  let control = per b in
  checkb
    (Printf.sprintf "settle allocates nothing (%.1f vs %.1f words/iter)"
       settling control)
    true
    (settling -. control <= 3.0)

(* Re-executing a [Func] writes its cache cell in place: an eager
   int-valued [f = a + b] whose value changes on every iteration
   allocates no more than a bare engine instance doing the same reads,
   whose [recompute] keeps no cache at all. A fresh [Some v] per
   execution would show up as 2 words per iteration. *)
let test_eager_cache_write_zero_alloc () =
  let eng = Alphonse.Engine.create ~default_strategy:Engine.Eager () in
  let a = Var.create eng ~name:"a" 0 and b = Var.create eng ~name:"b" 1 in
  let f = Func.create eng ~name:"f" (fun _ () -> Var.get a + Var.get b) in
  ignore (Func.call f ());
  let c = Var.create eng ~name:"c" 0 and d = Var.create eng ~name:"d" 1 in
  let bare =
    Engine.new_instance eng ~name:"bare" ~strategy:Engine.Eager
      ~recompute:(fun () ->
        ignore (Var.get c + Var.get d);
        true)
      ()
  in
  Engine.on_call eng bare;
  let i = ref 0 in
  let measure v iters =
    let w0 = Gc.minor_words () in
    for _ = 1 to iters do
      incr i;
      Var.set v !i;
      Engine.stabilize eng
    done;
    Gc.minor_words () -. w0
  in
  ignore (measure a 10 +. measure c 10) (* warm-up *);
  let per v = (measure v 10_000 -. measure v 1_000) /. 9_000. in
  let runs0 = executions eng in
  let cached = per a in
  checki "one re-execution per iteration" 11_000 (executions eng - runs0);
  checki "value tracked" (!i + 1) (Func.call f ());
  let bare_words = per c in
  checkb
    (Printf.sprintf "cache write allocates nothing (%.1f vs %.1f words/iter)"
       cached bare_words)
    true
    (cached -. bare_words <= 0.5)

(* A cache-hit call made by an executing instance whose reads all
   repeat its last execution's: the argument lookup (an int key) and
   the re-read of the callee's edge allocate nothing. The words are
   counted inside the body around 64 calls, against the same probes
   around no call. *)
let test_reexec_hit_zero_alloc () =
  let eng = Alphonse.Engine.create () in
  let a = Var.create eng ~name:"a" 0 in
  let leaf = Func.create eng ~name:"leaf" (fun _ k -> k * 2) in
  let calls = ref 0. and control = ref 0. in
  let top =
    Func.create eng ~name:"top" (fun _ () ->
        let s = ref (Var.get a) in
        let w0 = Gc.minor_words () in
        for k = 0 to 63 do
          s := !s + Func.call leaf k
        done;
        let w1 = Gc.minor_words () in
        let w2 = Gc.minor_words () in
        calls := w1 -. w0;
        control := w2 -. w1;
        !s)
  in
  ignore (Func.call top ());
  let g0 = Engine.graph_stats eng and hits0 = (Engine.stats eng).Engine.cache_hits in
  for i = 1 to 3 do
    Var.set a i;
    checki "value" (i + 4032) (Func.call top ())
  done;
  let g1 = Engine.graph_stats eng in
  checki "every call a cache hit" (3 * 64)
    ((Engine.stats eng).Engine.cache_hits - hits0);
  checki "no edge added" g0.Depgraph.Graph.total_edges g1.Depgraph.Graph.total_edges;
  checki "no edge removed" g0.Depgraph.Graph.removed_edges
    g1.Depgraph.Graph.removed_edges;
  Alcotest.(check (float 0.0)) "64 calls allocate nothing" !control !calls

(* A re-execution whose reads all repeat its last execution's allocates
   nothing: its call-stack frame is reused, and re-reading a recorded
   pred writes no edge. An eager bare instance re-reads 8 cells on every
   iteration; against a control loop that writes a tracked cell nobody
   reads any more (the same mark, dirty-list cell and settle step, but
   no execution), it may not allocate a word more. *)
let test_reexec_zero_alloc () =
  let eng = Alphonse.Engine.create ~default_strategy:Engine.Eager () in
  let cells = Array.init 8 (fun i -> Var.create eng ~name:"c" i) in
  let idle = Var.create eng ~name:"idle" 0 in
  let first = ref true and sum = ref 0 in
  let inst =
    Engine.new_instance eng ~name:"sum" ~strategy:Engine.Eager
      ~recompute:(fun () ->
        if !first then begin
          first := false;
          ignore (Var.get idle)
        end;
        let s = ref 0 in
        for j = 0 to 7 do
          s := !s + Var.get cells.(j)
        done;
        sum := !s;
        true)
      ()
  in
  Engine.on_call eng inst;
  checkb "idle is tracked" true (Var.is_tracked idle);
  let i = ref 0 in
  let measure v iters =
    let w0 = Gc.minor_words () in
    for _ = 1 to iters do
      incr i;
      Var.set v !i;
      Engine.stabilize eng
    done;
    Gc.minor_words () -. w0
  in
  ignore (measure cells.(0) 10 +. measure idle 10) (* warm-up *);
  let per v = (measure v 10_000 -. measure v 1_000) /. 9_000. in
  let runs0 = executions eng and edges0 = (Engine.graph_stats eng).total_edges in
  let reexec = per cells.(0) in
  checki "one re-execution per iteration" 11_000 (executions eng - runs0);
  checki "every read re-read" edges0 (Engine.graph_stats eng).total_edges;
  checki "value tracked" (!i + 28) !sum;
  let control = per idle in
  checkb
    (Printf.sprintf "re-execution allocates nothing (%.1f vs %.1f words/iter)"
       reexec control)
    true
    (reexec -. control <= 0.5)

let test_eager_stabilize_precomputes () =
  let eng = Engine.create ~default_strategy:Engine.Eager () in
  let runs = ref 0 in
  let a = Var.create eng 1 in
  let f =
    Func.create eng (fun _ () ->
        incr runs;
        Var.get a + 1)
  in
  checki "initial" 2 (Func.call f ());
  Var.set a 10;
  checki "not yet" 1 !runs;
  Engine.stabilize eng;
  (* eager evaluation used the available cycles *)
  checki "recomputed in background" 2 !runs;
  checki "call is a pure cache hit" 11 (Func.call f ());
  checki "no extra run" 2 !runs

let test_demand_stabilize_defers () =
  let eng = Engine.create ~default_strategy:Engine.Demand () in
  let runs = ref 0 in
  let a = Var.create eng 1 in
  let f =
    Func.create eng (fun _ () ->
        incr runs;
        Var.get a + 1)
  in
  ignore (Func.call f ());
  Var.set a 10;
  Engine.stabilize eng;
  checki "demand defers work" 1 !runs;
  checki "call recomputes" 11 (Func.call f ());
  checki "now re-ran" 2 !runs

(* ------------------------------------------------------------------ *)
(* Maintained procedures with side effects                             *)
(* ------------------------------------------------------------------ *)

let test_maintained_write_restored () =
  let eng = Engine.create () in
  let src = Var.create eng ~name:"src" 2 in
  let out = Var.create eng ~name:"out" 0 in
  (* maintained property: out = src * 2 *)
  let m =
    Func.create eng ~name:"maintain-out" (fun _ () ->
        Var.set out (Var.get src * 2))
  in
  Func.call m ();
  checki "established" 4 (Var.get out);
  (* the mutator clobbers storage written by the maintained procedure;
     §4.3: "a subsequent execution of p must have the effect of setting it
     back" *)
  Var.set out 999;
  Func.call m ();
  checki "restored" 4 (Var.get out);
  Var.set src 5;
  Func.call m ();
  checki "tracks source" 10 (Var.get out)

let test_write_then_read_chain () =
  let eng = Engine.create () in
  let src = Var.create eng 1 in
  let mid = Var.create eng 0 in
  let m = Func.create eng (fun _ () -> Var.set mid (Var.get src + 1)) in
  let f =
    Func.create eng (fun _ () ->
        Func.call m ();
        Var.get mid * 10)
  in
  checki "composed" 20 (Func.call f ());
  Var.set src 7;
  checki "change flows through the written cell" 80 (Func.call f ())

(* ------------------------------------------------------------------ *)
(* Cycles                                                              *)
(* ------------------------------------------------------------------ *)

let test_cycle_detection () =
  let eng = Engine.create () in
  let f = Func.create eng ~name:"loop" (fun self () -> Func.call self ()) in
  (match Func.call f () with
  | _ -> Alcotest.fail "expected Cycle"
  | exception Engine.Cycle name -> Alcotest.(check string) "name" "loop" name);
  (* recursion on *distinct* arguments is fine *)
  let g =
    Func.create eng ~name:"down" (fun self n ->
        if n = 0 then 0 else Func.call self (n - 1))
  in
  checki "legitimate recursion" 0 (Func.call g 5)

let test_mutual_cycle_detection () =
  let eng = Engine.create () in
  let fwd = ref (fun () -> 0) in
  let f = Func.create eng ~name:"f" (fun _ () -> !fwd ()) in
  let g = Func.create eng ~name:"g" (fun _ () -> Func.call f ()) in
  (fwd := fun () -> Func.call g ());
  checkb "mutual cycle raises" true
    (match Func.call f () with
    | _ -> false
    | exception Engine.Cycle _ -> true)

(* Regression: a Cycle used to leave the failed activations' frames on
   the engine call stack, so the next unrelated call saw a phantom
   in-progress execution. The engine must stay fully usable after a
   detected cycle. *)
let test_engine_usable_after_cycle () =
  let eng = Engine.create () in
  let broken = ref true in
  let f = ref (fun _ -> 0) in
  let a = Var.create eng ~name:"a" 5 in
  let g =
    Func.create eng ~name:"g" (fun _ n ->
        if !broken then !f n else Var.get a + n)
  in
  (f := fun n -> Func.call g n);
  checkb "cycle detected" true
    (match Func.call g 1 with _ -> false | exception Engine.Cycle _ -> true);
  (* the stack unwound completely and every invariant still holds *)
  Alcotest.(check (list string)) "audit clean" [] (Engine.audit_errors eng);
  (* structural failure: no retry budget consumed, nothing poisoned *)
  let gnode =
    match Func.node g 1 with Some n -> n | None -> Alcotest.fail "no node"
  in
  checki "no failure charged" 0 (Engine.failure_count eng gnode);
  checkb "not poisoned" false (Engine.poisoned eng gnode);
  (* unrelated work on the same engine proceeds normally *)
  let h = Func.create eng ~name:"h" (fun _ () -> Var.get a * 2) in
  checki "fresh instance runs" 10 (Func.call h ());
  Var.set a 6;
  checki "invalidation still flows" 12 (Func.call h ());
  (* and once the user fixes the cycle, the same instance recovers *)
  broken := false;
  checki "fixed instance converges" 7 (Func.call g 1);
  Alcotest.(check (list string))
    "audit clean after recovery" [] (Engine.audit_errors eng)

let test_exception_retry () =
  let eng = Engine.create () in
  let boom = ref true in
  let a = Var.create eng 3 in
  let f =
    Func.create eng (fun _ () ->
        if !boom then failwith "boom";
        Var.get a)
  in
  checkb "raises" true
    (match Func.call f () with _ -> false | exception Failure _ -> true);
  boom := false;
  checki "retry succeeds" 3 (Func.call f ());
  Var.set a 4;
  checki "still live" 4 (Func.call f ())

(* ------------------------------------------------------------------ *)
(* Unchecked (§6.4)                                                    *)
(* ------------------------------------------------------------------ *)

let test_unchecked_prunes_dependencies () =
  let eng = Engine.create () in
  let path = Array.init 8 (fun i -> Var.create eng ~name:(Fmt.str "p%d" i) i) in
  let target = Var.create eng ~name:"target" 100 in
  let lookup =
    Func.create eng ~name:"lookup" (fun _ () ->
        (* the "search path" does not affect the result; the programmer
           asserts it with unchecked *)
        let _walk =
          Engine.unchecked eng (fun () ->
              Array.fold_left (fun acc v -> acc + Var.get v) 0 path)
        in
        Var.get target)
  in
  checki "initial" 100 (Func.call lookup ());
  Var.set path.(3) 999;
  checki "path change absorbed" 100 (Func.call lookup ());
  checki "no re-execution" 1 (executions eng);
  Var.set target 7;
  checki "real dependency still live" 7 (Func.call lookup ());
  checki "re-executed for target" 2 (executions eng)

let test_checked_control_group () =
  let eng = Engine.create () in
  let path = Array.init 8 (fun i -> Var.create eng i) in
  let target = Var.create eng 100 in
  let lookup =
    Func.create eng (fun _ () ->
        let _walk = Array.fold_left (fun acc v -> acc + Var.get v) 0 path in
        Var.get target)
  in
  checki "initial" 100 (Func.call lookup ());
  Var.set path.(3) 999;
  checki "still correct" 100 (Func.call lookup ());
  checki "but re-executed" 2 (executions eng)

(* ------------------------------------------------------------------ *)
(* Cache replacement (§3.3 pragma arguments)                           *)
(* ------------------------------------------------------------------ *)

let test_lru_eviction () =
  let eng = Engine.create () in
  let runs = ref 0 in
  let f =
    Func.create eng ~policy:(Policy.Lru 3) (fun _ n ->
        incr runs;
        n * n)
  in
  List.iter (fun n -> ignore (Func.call f n)) [ 1; 2; 3; 4; 5 ];
  checki "capacity respected" 3 (Func.size f);
  checki "five first runs" 5 !runs;
  (* 1 was evicted: calling it recomputes *)
  checki "evicted recomputes" 1 (Func.call f 1);
  checki "recomputation happened" 6 !runs;
  (* 5 was just used; still cached *)
  ignore (Func.call f 5);
  checki "recent entry cached" 6 !runs;
  checki "evictions counted" 3 (Engine.stats eng).Engine.evictions

let test_lru_recency_order () =
  let eng = Engine.create () in
  let runs = ref 0 in
  let f =
    Func.create eng ~policy:(Policy.Lru 2) (fun _ n ->
        incr runs;
        n)
  in
  ignore (Func.call f 1);
  ignore (Func.call f 2);
  ignore (Func.call f 1) (* touch 1: now 2 is least recent *);
  ignore (Func.call f 3) (* evicts 2 *);
  checki "before" 3 !runs;
  ignore (Func.call f 1);
  checki "1 still cached" 3 !runs;
  ignore (Func.call f 2);
  checki "2 was evicted" 4 !runs

let test_eviction_soundness () =
  let eng = Engine.create () in
  let inner = Func.create eng ~policy:(Policy.Lru 1) (fun _ n -> n + 1) in
  let outer = Func.create eng (fun _ n -> Func.call inner n * 10) in
  List.iter (fun n -> ignore (Func.call outer n)) [ 1; 2; 3 ];
  (* every inner entry has a live dependent: none may be evicted *)
  checki "inner table kept sound" 3 (Func.size inner);
  checki "no evictions" 0 (Engine.stats eng).Engine.evictions

let test_fifo_eviction () =
  let eng = Engine.create () in
  let runs = ref 0 in
  let f =
    Func.create eng ~policy:(Policy.Fifo 2) (fun _ n ->
        incr runs;
        n)
  in
  ignore (Func.call f 1);
  ignore (Func.call f 2);
  ignore (Func.call f 1) (* FIFO: does not refresh 1 *);
  ignore (Func.call f 3) (* evicts 1, the oldest insertion *);
  ignore (Func.call f 1);
  checki "1 was evicted despite recency" 4 !runs

(* A bounded policy bounds space, not just the table: once evicted, an
   instance's node and cached value are unreachable from the engine,
   also from the tracked cell it wrote. *)
let test_evicted_values_collected () =
  let eng = Engine.create () in
  let cell = Var.create eng 0 in
  let reader = Func.create eng (fun _ () -> Var.get cell) in
  ignore (Func.call reader ());
  let finalised = ref 0 in
  let f =
    Func.create eng ~policy:(Policy.Lru 2) (fun _ n ->
        Var.set cell n;
        let v = Array.make 1000 n in
        Gc.finalise (fun _ -> incr finalised) v;
        v)
  in
  for n = 1 to 200 do
    ignore (Func.call f n : int array)
  done;
  Gc.full_major ();
  Gc.full_major ();
  let evicted = (Engine.stats eng).Engine.evictions in
  checki "evictions" 198 evicted;
  checki "every evicted value was collected" evicted !finalised

(* An instance that wrote a cell on one execution and not on the next
   is no longer that cell's writer: evicted, nothing keeps it, its
   closure or its cached value alive. *)
let test_stale_writers_collected () =
  let eng = Engine.create () in
  let cell = Var.create eng 0 and phase = Var.create eng true in
  let finalised = ref 0 in
  let f =
    Func.create eng ~policy:(Policy.Lru 2) (fun _ n ->
        if Var.get phase then Var.set cell n;
        let v = Array.make 1000 n in
        Gc.finalise (fun _ -> incr finalised) v;
        v)
  in
  let keys = 200 in
  for n = 1 to keys do
    Var.set phase true;
    ignore (Func.call f n : int array);
    Var.set phase false;
    ignore (Func.call f n : int array)
  done;
  Gc.full_major ();
  Gc.full_major ();
  checki "evictions" (keys - 2) (Engine.stats eng).Engine.evictions;
  (* two values per key, less the two live instances' current ones *)
  checki "every replaced or evicted value was collected" ((2 * keys) - 2)
    !finalised

(* ------------------------------------------------------------------ *)
(* Partitioning (§6.3)                                                 *)
(* ------------------------------------------------------------------ *)

let independent_pair ~partitioning =
  let eng = Engine.create ~partitioning () in
  let a1 = Var.create eng ~name:"a1" 1 in
  let a2 = Var.create eng ~name:"a2" 1 in
  let f1 = Func.create eng ~name:"f1" (fun _ () -> Var.get a1 * 10) in
  let f2 = Func.create eng ~name:"f2" (fun _ () -> Var.get a2 * 100) in
  ignore (Func.call f1 ());
  ignore (Func.call f2 ());
  Engine.reset_stats eng;
  (eng, a1, f2)

let test_partitioning_isolates () =
  let eng, a1, f2 = independent_pair ~partitioning:true in
  Var.set a1 5;
  checki "f2 unaffected" 100 (Func.call f2 ());
  let s = Engine.stats eng in
  checki "no settle work in f2's partition" 0 s.Engine.settle_steps

let test_no_partitioning_forces_global_settle () =
  let eng, a1, f2 = independent_pair ~partitioning:false in
  Var.set a1 5;
  checki "f2 unaffected" 100 (Func.call f2 ());
  let s = Engine.stats eng in
  checkb "global settle did work" true (s.Engine.settle_steps > 0)

let test_partitioned_correctness () =
  (* partitioning must not change results *)
  let eng = Engine.create ~partitioning:true () in
  let a = Var.create eng 1 and b = Var.create eng 2 in
  let f = Func.create eng (fun _ () -> Var.get a + Var.get b) in
  let g = Func.create eng (fun _ () -> Func.call f () * Var.get b) in
  checki "initial" 6 (Func.call g ());
  Var.set b 10;
  checki "after change" 110 (Func.call g ());
  Var.set a 0;
  checki "other var" 100 (Func.call g ())

(* ------------------------------------------------------------------ *)
(* Static subgraphs (§6.2)                                             *)
(* ------------------------------------------------------------------ *)

(* §6.2's static subgraph needs no declaration: a re-execution keeps
   every edge it re-reads in order, so an instance whose R(p) is the
   same on every execution records its edges once. *)
let test_same_reads_keep_edges () =
  let eng = Engine.create () in
  let a = Var.create eng 1 and b = Var.create eng 2 in
  (* R(p) = {a, b} on every execution *)
  let f = Func.create eng (fun _ () -> Var.get a + Var.get b) in
  checki "initial" 3 (Func.call f ());
  let edges_after_first = (Engine.graph_stats eng).Depgraph.Graph.total_edges in
  for i = 1 to 20 do
    Var.set a (100 + i);
    (* b still holds its previous value: 2*(i-1), or the initial 2 *)
    let b_now = if i = 1 then 2 else 2 * (i - 1) in
    checki "still correct" (100 + i + b_now) (Func.call f ());
    Var.set b (2 * i);
    checki "both deps live" (100 + i + (2 * i)) (Func.call f ())
  done;
  let g = Engine.graph_stats eng in
  checki "edges recorded once, re-read after" edges_after_first
    g.Depgraph.Graph.total_edges;
  checki "no edge removal churn" 0 g.Depgraph.Graph.removed_edges

let test_dynamic_deps_churn_baseline () =
  (* reads that change between executions: the second read alternates
     between b and c, so each re-execution keeps a's edge, cuts the
     other and records the new one — one edge removed and one added per
     re-execution, not the whole set *)
  let eng = Engine.create () in
  let a = Var.create eng 1 and b = Var.create eng 20 and c = Var.create eng 30 in
  let f =
    Func.create eng (fun _ () ->
        let x = Var.get a in
        x + if x mod 2 = 0 then Var.get b else Var.get c)
  in
  checki "initial" 31 (Func.call f ());
  for i = 2 to 21 do
    Var.set a i;
    checki "value" (i + if i mod 2 = 0 then 20 else 30) (Func.call f ())
  done;
  let g = Engine.graph_stats eng in
  checki "one edge removed per re-execution" 20 g.Depgraph.Graph.removed_edges;
  checki "one edge added per re-execution" 22 g.Depgraph.Graph.total_edges;
  (* the edge set is the last execution's: a change to the cell it
     stopped reading does not re-execute it *)
  let runs = (Engine.stats eng).Engine.executions in
  Var.set b 999;
  checki "dropped read untracked" 51 (Func.call f ());
  checki "no re-execution" runs (Engine.stats eng).Engine.executions

let test_switched_read_tracked () =
  (* an instance whose R(p) is not static: the read it switches to is
     recorded, and a change to it is seen *)
  let eng = Engine.create () in
  let switch = Var.create eng true in
  let x = Var.create eng 10 and y = Var.create eng 20 in
  let f =
    Func.create eng (fun _ () ->
        if Var.get switch then Var.get x else Var.get y)
  in
  checki "first run reads switch and x" 10 (Func.call f ());
  Var.set switch false;
  checki "re-execution picks up y" 20 (Func.call f ());
  Var.set y 999;
  checki "y's change is tracked" 999 (Func.call f ());
  Var.set x 0;
  checki "x is no longer read" 999 (Func.call f ());
  Engine.audit eng

(* ------------------------------------------------------------------ *)
(* Preemptable evaluation (§4.5)                                       *)
(* ------------------------------------------------------------------ *)

let test_settle_bounded_slices () =
  let eng = Engine.create ~default_strategy:Engine.Eager () in
  let runs = ref 0 in
  let cells = Array.init 20 (fun i -> Var.create eng i) in
  let funcs =
    Array.map
      (fun c ->
        Func.create eng (fun _ () ->
            incr runs;
            Var.get c * 2))
      cells
  in
  Array.iter (fun f -> ignore (Func.call f ())) funcs;
  checki "initial runs" 20 !runs;
  Array.iteri (fun i c -> Var.set c (100 + i)) cells;
  (* each dirty cell costs two settle steps (storage + instance), so a
     budget of 10 advances roughly five re-executions *)
  checkb "not yet quiescent" false (Engine.settle_bounded eng ~max_steps:10);
  checkb "partial progress" true (!runs > 20 && !runs < 40);
  let guard = ref 0 in
  while (not (Engine.settle_bounded eng ~max_steps:7)) && !guard < 50 do
    incr guard
  done;
  checki "all recomputed across slices" 40 !runs;
  checkb "now quiescent" true (Engine.settle_bounded eng ~max_steps:1);
  (* every value is current without any further execution *)
  Array.iteri
    (fun i f -> checki "current" ((100 + i) * 2) (Func.call f ()))
    funcs;
  checki "queries were pure hits" 40 !runs

let test_settle_bounded_noop_when_clean () =
  let eng = Engine.create () in
  checkb "clean engine is quiescent" true
    (Engine.settle_bounded eng ~max_steps:5)

(* Regression: the settle a call runs on its partition must take the
   emptied partition off the dirty list. It used to clear only the
   flag, so every later mark listed the partition again — the list grew
   by one entry per edit — and [settle_bounded] reported pending work
   on an engine whose every node was consistent. *)
let test_demand_settle_unlists_partition () =
  let eng = Engine.create () in
  let a = Var.create eng ~name:"a" 0 in
  let f = Func.create eng ~name:"f" (fun _ () -> Var.get a + 1) in
  let sum = ref 0 in
  for i = 1 to 1000 do
    Var.set a i;
    sum := !sum + Func.call f ()
  done;
  checki "every call current" (500_500 + 1000) !sum;
  Engine.audit eng;
  checkb "quiescent without a step" true
    (Engine.settle_bounded eng ~max_steps:0)

(* ------------------------------------------------------------------ *)
(* Feature interactions                                                *)
(* ------------------------------------------------------------------ *)

let test_eviction_with_partitioning () =
  (* cache replacement must stay sound when partitions are live *)
  let eng = Engine.create ~partitioning:true () in
  let cells = Array.init 8 (fun i -> Var.create eng i) in
  let f =
    Func.create eng ~policy:(Policy.Lru 3) (fun _ i -> Var.get cells.(i) * 10)
  in
  for i = 0 to 7 do
    checki "initial" (i * 10) (Func.call f i)
  done;
  checki "bounded" 3 (Func.size f);
  (* a change to a cell whose instance was evicted: recomputes freshly *)
  Var.set cells.(0) 100;
  checki "evicted then changed" 1000 (Func.call f 0);
  (* a change to a cell whose instance survives: invalidates it *)
  Var.set cells.(7) 70;
  checki "survivor invalidated" 700 (Func.call f 7)

let test_unchecked_nested () =
  let eng = Engine.create () in
  let a = Var.create eng 1 and b = Var.create eng 2 and c = Var.create eng 3 in
  let f =
    Func.create eng (fun _ () ->
        let x = Var.get a in
        let y =
          Engine.unchecked eng (fun () ->
              (* nested unchecked stays unchecked; the inner call's own
                 execution tracks normally *)
              Var.get b + Engine.unchecked eng (fun () -> Var.get c))
        in
        x + y)
  in
  checki "initial" 6 (Func.call f ());
  Var.set b 20;
  Var.set c 30;
  checki "unchecked reads are frozen" 6 (Func.call f ());
  Var.set a 10;
  (* the tracked dependency re-executes and picks up everything *)
  checki "re-execution refreshes all" 60 (Func.call f ())

let test_unchecked_call_edge_suppressed () =
  let eng = Engine.create () in
  let a = Var.create eng 1 in
  let inner = Func.create eng ~name:"inner" (fun _ () -> Var.get a) in
  let outer =
    Func.create eng ~name:"outer" (fun _ () ->
        Engine.unchecked eng (fun () -> Func.call inner ()) * 10)
  in
  checki "initial" 10 (Func.call outer ());
  Var.set a 5;
  (* inner itself recomputes when called, but outer recorded no edge *)
  checki "inner fresh" 5 (Func.call inner ());
  checki "outer frozen" 10 (Func.call outer ())

let test_settle_bounded_with_partitions () =
  let eng =
    Engine.create ~partitioning:true ~default_strategy:Engine.Eager ()
  in
  let runs = ref 0 in
  let pairs =
    Array.init 6 (fun i ->
        let v = Var.create eng i in
        let f =
          Func.create eng (fun _ () ->
              incr runs;
              Var.get v + 1)
        in
        ignore (Func.call f ());
        (v, f))
  in
  checki "initial" 6 !runs;
  Array.iter (fun (v, _) -> Var.set v 100) pairs;
  (* drain all six independent partitions in slices *)
  let guard = ref 0 in
  while (not (Engine.settle_bounded eng ~max_steps:3)) && !guard < 50 do
    incr guard
  done;
  checki "all partitions drained" 12 !runs;
  Array.iteri
    (fun _ (_, f) -> checki "current" 101 (Func.call f ()))
    pairs;
  checki "queries were hits" 12 !runs

(* ------------------------------------------------------------------ *)
(* Evaluation-order scheduling (§4.5)                                  *)
(* ------------------------------------------------------------------ *)

(* A diamond with deliberately inverted creation order: [f] is created
   (and prioritized) before the chain it later comes to depend on, so a
   creation-order drain would process [f] before the chain and have to
   re-execute it; the Pearce–Kelly repair of the out-of-order edge into
   eager [f] restores topological order. *)
let diamond () =
  let eng = Engine.create ~default_strategy:Engine.Eager () in
  let base = Var.create eng ~name:"base" 1 in
  let mode = Var.create eng ~name:"mode" false in
  let chain_top = ref None in
  let f_runs = ref 0 in
  let f =
    Func.create eng ~name:"f" (fun _ () ->
        incr f_runs;
        let tail =
          if Var.get mode then
            match !chain_top with Some c -> Func.call c () | None -> 0
          else 0
        in
        Var.get base + tail)
  in
  ignore (Func.call f ()) (* f's node exists, earliest priority *);
  (* now build and run a chain whose nodes get later priorities *)
  let rec build i prev =
    if i = 0 then prev
    else
      build (i - 1)
        (Func.create eng ~name:(Fmt.str "b%d" i) (fun _ () ->
             Func.call prev () + 1))
  in
  let b0 = Func.create eng ~name:"b0" (fun _ () -> Var.get base * 10) in
  let top = build 6 b0 in
  ignore (Func.call top ());
  chain_top := Some top;
  Var.set mode true;
  ignore (Func.call f ()) (* now f depends on the whole chain *);
  (eng, base, f, f_runs)

let test_scheduling_topological_avoids_waste () =
  let eng, base, f, runs = diamond () in
  checkb "the out-of-order edge was repaired" true
    ((Engine.stats eng).Engine.order_fixups > 0);
  for r = 1 to 3 do
    Engine.reset_stats eng;
    runs := 0;
    Var.set base (r + 4);
    checki "correct" (r + 4 + (((r + 4) * 10) + 6)) (Func.call f ());
    (* f, b0 and the six chain links: each runs once per change *)
    checki "every instance runs once" 8 (executions eng);
    checki "f runs once" 1 !runs
  done

(* A heap entry outlives its node. [f 0] is queued, then forced by an
   execution ahead of it in the drain (unqueued, its entry left behind),
   then evicted by [f 1] under [Lru 1]; the bounded settle stops at [w]
   with the entry still in the heap. A cell created next takes [f 0]'s
   recycled arena slot and is queued: the old entry names that slot
   under the previous generation word, so the drain drops it rather than
   popping [v] ahead of [z] at [f 0]'s priority. *)
let test_stale_entry_after_slot_reuse () =
  let eng = Engine.create ~default_strategy:Engine.Eager () in
  let a = Var.create eng ~name:"a" 0 and b = Var.create eng ~name:"b" false in
  let f =
    Func.create eng ~name:"f" ~policy:(Policy.Lru 1) (fun _ k -> Var.get a + k)
  in
  let reader name body =
    let n =
      Engine.new_instance eng ~name ~strategy:Engine.Eager
        ~recompute:(fun () -> body (); true) ()
    in
    Engine.on_call eng n
  in
  reader "x" (fun () ->
      ignore (Var.get a);
      if Var.get b then
        Engine.unchecked eng (fun () ->
            ignore (Func.call f 0);
            ignore (Func.call f 1)));
  reader "w" (fun () -> ignore (Var.get a));
  checki "f 0" 0 (Func.call f 0);
  reader "z" (fun () -> ignore (Var.get a));
  Var.set b true;
  Var.set a 1;
  checkb "the bounded settle stops at w" false
    (Engine.settle_bounded eng ~max_steps:3);
  checki "f 0 evicted" 1 (Engine.stats eng).Engine.evictions;
  let tm = Alphonse.Telemetry.create () in
  Engine.set_telemetry eng (Some tm);
  let v = Engine.new_storage eng ~name:"v" in
  Engine.record_write eng v ~changed:true;
  Engine.stabilize eng;
  let pops =
    List.filter_map
      (fun (r : Alphonse.Telemetry.record) ->
        match r.ev with
        | Alphonse.Telemetry.Settle_pop { name; _ } -> Some name
        | _ -> None)
      (Alphonse.Telemetry.events tm)
  in
  Alcotest.(check (list string)) "the stale entry is not popped"
    [ "w"; "z"; "v" ] pops;
  checki "f 1" 2 (Func.call f 1);
  Engine.audit eng

(* The E14 shape: a cascade of eager consumers created before the
   two-level side chains they come to read, so the first settle after
   the switch adds out-of-order edges while consumers are queued, and
   Pearce–Kelly permutes queued nodes' priorities mid-settle. The
   per-step auditor checks that every heap keyed under the current order
   epoch holds current keys in heap order: a heap left keyed under the
   pre-reorder priorities would pop out of priority order. *)
let test_scheduling_reorder_keeps_heap_order () =
  let layers = 16 in
  let eng = Engine.create ~default_strategy:Engine.Eager () in
  Engine.set_self_audit eng true;
  let base = Var.create eng ~name:"base" 1 in
  let modes = Array.init layers (fun _ -> Var.create eng false) in
  let sides = Array.make layers None in
  let consumers = Array.make layers None in
  for i = 0 to layers - 1 do
    consumers.(i) <-
      Some
        (Func.create eng ~name:(Fmt.str "f%d" i) (fun _ () ->
             let prev =
               if i = 0 then Var.get base
               else Func.call (Option.get consumers.(i - 1)) ()
             in
             let side =
               if Var.get modes.(i) then
                 match sides.(i) with Some c -> Func.call c () | None -> 0
               else 0
             in
             prev + side))
  done;
  let top = Option.get consumers.(layers - 1) in
  checki "before the switch" 1 (Func.call top ());
  for i = 0 to layers - 1 do
    let bottom = Func.create eng (fun _ () -> Var.get base * 10) in
    let side = Func.create eng (fun _ () -> Func.call bottom () + 1) in
    sides.(i) <- Some side;
    ignore (Func.call side ())
  done;
  Array.iter (fun m -> Var.set m true) modes;
  Engine.stabilize eng;
  checkb "Pearce–Kelly reordered" true
    ((Engine.stats eng).Engine.order_fixups > 0);
  checki "after the switch" (1 + (layers * 11)) (Func.call top ());
  for r = 2 to 6 do
    Var.set base r;
    Engine.stabilize eng;
    checki "each round" (r + (layers * ((r * 10) + 1))) (Func.call top ())
  done;
  Engine.audit eng

(* Graph-level property: under random edge insertions with Pearce–Kelly
   restoration, every accepted edge satisfies the order invariant, and
   cycles are exactly the edges a reachability oracle rejects. *)
let prop_pk_invariant =
  QCheck.Test.make ~name:"Pearce–Kelly keeps a topological order"
    QCheck.(list (pair (int_bound 19) (int_bound 19)))
    (fun pairs ->
      let module G = Depgraph.Graph in
      let g = G.create () in
      let nodes = Array.init 20 (fun i -> G.add_node g ~order_after:None i) in
      let reach = Array.make_matrix 20 20 false in
      let edges = ref [] in
      let stamp = ref 0 in
      let ok = ref true in
      List.iter
        (fun (a, b) ->
          if a <> b then begin
            let src = nodes.(a) and dst = nodes.(b) in
            let closes_cycle = reach.(b).(a) in
            match G.restore_topological_order g ~src ~dst with
            | `Cycle -> if not closes_cycle then ok := false
            | `Already_ordered | `Reordered _ ->
              if closes_cycle then ok := false
              else begin
                incr stamp;
                G.add_edge ~stamp:!stamp ~src ~dst;
                edges := (a, b) :: !edges;
                (* update the reachability oracle *)
                for i = 0 to 19 do
                  for j = 0 to 19 do
                    if (i = a || reach.(i).(a)) && (j = b || reach.(b).(j))
                    then reach.(i).(j) <- true
                  done
                done;
                reach.(a).(b) <- true
              end
          end)
        pairs;
      (* the invariant: every accepted edge drains source first *)
      List.iter
        (fun (a, b) ->
          if not (G.order_lt nodes.(a) nodes.(b)) then ok := false)
        !edges;
      !ok)

(* ------------------------------------------------------------------ *)
(* Randomized equivalence with a from-scratch oracle (Theorem 5.1)     *)
(* ------------------------------------------------------------------ *)

type op = Set of int * int | Query of int * int

let op_gen n =
  QCheck.Gen.(
    frequency
      [
        (1, map2 (fun i v -> Set (i, v)) (int_bound (n - 1)) (int_bound 50));
        ( 2,
          map2
            (fun i j -> Query (min i j, max i j))
            (int_bound (n - 1))
            (int_bound (n - 1)) );
      ])

let ops_arbitrary n =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Set (i, v) -> Fmt.str "set %d %d" i v
             | Query (i, j) -> Fmt.str "sum %d %d" i j)
           ops))
    QCheck.Gen.(list_size (int_bound 60) (op_gen n))

(* Incremental range-sum over n leaves, divide and conquer, compared
   against direct summation of a mirror array after every operation. *)
let equivalence_property ~strategy ~partitioning n ops =
  let eng = Engine.create ~default_strategy:strategy ~partitioning () in
  let vars = Array.init n (fun i -> Var.create eng i) in
  let mirror = Array.init n (fun i -> i) in
  let sum =
    Func.create eng ~name:"sum" (fun sum (lo, hi) ->
        if lo = hi then Var.get vars.(lo)
        else
          let mid = (lo + hi) / 2 in
          Func.call sum (lo, mid) + Func.call sum (mid + 1, hi))
  in
  List.for_all
    (fun op ->
      match op with
      | Set (i, v) ->
        Var.set vars.(i) v;
        mirror.(i) <- v;
        true
      | Query (lo, hi) ->
        let expected = ref 0 in
        for k = lo to hi do
          expected := !expected + mirror.(k)
        done;
        Func.call sum (lo, hi) = !expected)
    ops

let prop_equiv ~strategy ~partitioning name =
  QCheck.Test.make ~name (ops_arbitrary 16)
    (equivalence_property ~strategy ~partitioning 16)

(* Random DAG topologies: func i reads a random subset of funcs j < i and
   of the tracked cells; after every mutation, every func must equal a
   from-scratch recomputation over a mirror array. Exercises sharing
   (multi-parent nodes), deep chains, mixed per-instance strategies, and
   partitioning. *)
let prop_random_dag =
  let gen =
    QCheck.Gen.(
      triple int
        (list_size (int_bound 30) (pair (int_bound 7) small_int))
        bool)
  in
  QCheck.Test.make ~name:"random DAG = from-scratch oracle" ~count:60
    (QCheck.make
       ~print:(fun (seed, ups, part) ->
         Fmt.str "seed=%d part=%b updates=%d" seed part (List.length ups))
       gen)
    (fun (seed, updates, partitioning) ->
      let rand = Random.State.make [| seed |] in
      let eng = Engine.create ~partitioning () in
      let nvars = 8 and nfuncs = 24 in
      let vars = Array.init nvars (fun i -> Var.create eng i) in
      let mirror = Array.init nvars (fun i -> i) in
      let pick n k =
        List.init k (fun _ -> Random.State.int rand n)
        |> List.sort_uniq compare
      in
      let spec =
        Array.init nfuncs (fun i ->
            let var_deps = pick nvars (1 + Random.State.int rand 3) in
            let fn_deps =
              if i = 0 then [] else pick i (Random.State.int rand 3)
            in
            let strategy =
              if Random.State.bool rand then Engine.Demand else Engine.Eager
            in
            (var_deps, fn_deps, strategy))
      in
      let funcs : (unit, int) Func.t option array = Array.make nfuncs None in
      for i = 0 to nfuncs - 1 do
        let var_deps, fn_deps, strategy = spec.(i) in
        funcs.(i) <-
          Some
            (Func.create eng ~strategy ~name:(Fmt.str "dag%d" i)
               (fun _ () ->
                 List.fold_left
                   (fun acc v -> acc + Var.get vars.(v))
                   0 var_deps
                 + List.fold_left
                     (fun acc j ->
                       acc + (2 * Func.call (Option.get funcs.(j)) ()))
                     0 fn_deps))
      done;
      (* from-scratch oracle over the mirror *)
      let rec oracle i =
        let var_deps, fn_deps, _ = spec.(i) in
        List.fold_left (fun acc v -> acc + mirror.(v)) 0 var_deps
        + List.fold_left (fun acc j -> acc + (2 * oracle j)) 0 fn_deps
      in
      let all_agree () =
        let ok = ref true in
        for i = 0 to nfuncs - 1 do
          if Func.call (Option.get funcs.(i)) () <> oracle i then ok := false
        done;
        !ok
      in
      all_agree ()
      && List.for_all
           (fun (v, value) ->
             Var.set vars.(v) value;
             mirror.(v) <- value;
             all_agree ())
           updates)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let test_parallel_profile () =
  let eng = Engine.create () in
  let a = Var.create eng 1 and b = Var.create eng 2 in
  (* two independent instances over a and b, then a combiner: two levels,
     width two at the bottom *)
  let fa = Func.create eng ~name:"fa" (fun _ () -> Var.get a * 2) in
  let fb = Func.create eng ~name:"fb" (fun _ () -> Var.get b * 3) in
  let top =
    Func.create eng ~name:"top" (fun _ () -> Func.call fa () + Func.call fb ())
  in
  checki "value" 8 (Func.call top ());
  let p = Alphonse.Inspect.parallel_profile eng in
  checki "instances" 3 p.Alphonse.Inspect.total_instances;
  checki "critical path" 2 p.Alphonse.Inspect.critical_path;
  checki "max width" 2 p.Alphonse.Inspect.max_width;
  checkb "widths" true (p.Alphonse.Inspect.level_widths = [ 2; 1 ]);
  checkb "speedup bound" true
    (Float.abs (p.Alphonse.Inspect.speedup_bound -. 1.5) < 1e-9)

let test_parallel_profile_chain () =
  let eng = Engine.create () in
  let a = Var.create eng 1 in
  let base = Func.create eng (fun _ () -> Var.get a) in
  let rec chain i prev =
    if i = 0 then prev
    else chain (i - 1) (Func.create eng (fun _ () -> Func.call prev () + 1))
  in
  let top = chain 9 base in
  ignore (Func.call top ());
  let p = Alphonse.Inspect.parallel_profile eng in
  (* a pure chain has no parallelism *)
  checki "critical path = instances" p.Alphonse.Inspect.total_instances
    p.Alphonse.Inspect.critical_path;
  checki "max width" 1 p.Alphonse.Inspect.max_width

(* The E14 diamond (one input fanning out to two siblings joined by a
   top sum) has exactly 3 instances over 2 levels: E15 bound 1.5. *)
let test_profile_diamond_bound () =
  let eng = Engine.create ~default_strategy:Engine.Eager () in
  let a = Var.create eng ~name:"a" 1 in
  let f = Func.create eng ~name:"f" (fun _ () -> Var.get a + 1) in
  let g = Func.create eng ~name:"g" (fun _ () -> Var.get a * 2) in
  let top =
    Func.create eng ~name:"top" (fun _ () -> Func.call f () + Func.call g ())
  in
  ignore (Func.call top ());
  Engine.stabilize eng;
  let p = Alphonse.Inspect.parallel_profile eng in
  checki "instances" 3 p.Alphonse.Inspect.total_instances;
  checki "critical path" 2 p.Alphonse.Inspect.critical_path;
  checki "max width" 2 p.Alphonse.Inspect.max_width;
  Alcotest.(check (float 1e-6))
    "E15 speedup bound" 1.5 p.Alphonse.Inspect.speedup_bound

(* A maintained write-then-read chain w -> s -> r is serial. All
   dependency edges point from the cell s to its consumers, so a pred
   walk sees w and r as independent — a pred-only rule would put both
   on one level and report a 2.0x bound for a chain with no parallelism
   at all. The writers-aware rule charges the writer to the reader's
   depth: critical path 2, bound 1.0. *)
let test_profile_writers_chain () =
  let eng = Engine.create ~default_strategy:Engine.Eager () in
  let a = Var.create eng ~name:"a" 1 in
  let s = Var.create eng ~name:"s" 0 in
  let w =
    Func.create eng ~name:"w" (fun _ () -> Var.set s (Var.get a * 10))
  in
  let r = Func.create eng ~name:"r" (fun _ () -> Var.get s + 1) in
  ignore (Func.call w ());
  checki "r sees the maintained write" 11 (Func.call r ());
  Engine.stabilize eng;
  let p = Alphonse.Inspect.parallel_profile eng in
  checki "instances" 2 p.Alphonse.Inspect.total_instances;
  checki "write-then-read critical path" 2 p.Alphonse.Inspect.critical_path;
  Alcotest.(check (float 1e-6))
    "no parallelism" 1.0 p.Alphonse.Inspect.speedup_bound

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_dot_output () =
  let eng = Engine.create () in
  let a = Var.create eng ~name:"a" 1 in
  let f = Func.create eng ~name:"f" (fun _ () -> Var.get a) in
  ignore (Func.call f ());
  let dot = Alphonse.Inspect.to_dot eng in
  checkb "digraph" true (String.length dot > 0);
  checkb "mentions f" true (contains "f#" dot);
  checkb "mentions a" true (contains "a#" dot);
  checkb "has an edge" true (contains "->" dot)

let test_dot_escape () =
  (* quotes, backslashes and newlines must not break DOT syntax *)
  let eng = Engine.create () in
  let a = Var.create eng ~name:"evil\"name\\with\nnewline" 1 in
  let f = Func.create eng ~name:"f" (fun _ () -> Var.get a) in
  ignore (Func.call f ());
  let dot = Alphonse.Inspect.to_dot eng in
  checkb "escaped quote" true (contains "evil\\\"name" dot);
  checkb "escaped backslash" true (contains "\\\\with" dot);
  checkb "no raw newline in label" false (contains "with\nnewline" dot);
  checkb "newline escaped" true (contains "\\nnewline" dot)

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

module Telemetry = Alphonse.Telemetry
module Json = Alphonse.Json

(* A small session whose event sequence is fully predictable: f reads a,
   first call executes, a write marks, second call re-executes. *)
let telemetry_session () =
  let eng = Engine.create () in
  let tm = Telemetry.create () in
  Engine.set_telemetry eng (Some tm);
  let a = Var.create eng ~name:"a" 1 in
  let f = Func.create eng ~name:"f" (fun _ () -> Var.get a * 10) in
  checki "initial" 10 (Func.call f ());
  Var.set a 2;
  checki "updated" 20 (Func.call f ());
  checki "cached" 20 (Func.call f ());
  (eng, tm, a, f)

let test_telemetry_event_order () =
  let _eng, tm, _a, _f = telemetry_session () in
  let kinds =
    List.filter_map
      (fun (r : Telemetry.record) ->
        match r.Telemetry.ev with
        | Telemetry.Instance_created { name; _ } -> Some ("new-i " ^ name)
        | Telemetry.Storage_created { name; _ } -> Some ("new-s " ^ name)
        | Telemetry.Exec_begin { name; _ } -> Some ("begin " ^ name)
        | Telemetry.Exec_end { name; changed; ok = true; _ } ->
          Some (Fmt.str "end %s %b" name changed)
        | Telemetry.Marked { name; _ } -> Some ("mark " ^ name)
        | Telemetry.Edge_added _ -> Some "edge"
        | Telemetry.Cache_hit { name; _ } -> Some ("hit " ^ name)
        | Telemetry.Settle_pop { name; _ } -> Some ("pop " ^ name)
        | _ -> None)
      (Telemetry.events tm)
  in
  Alcotest.(check (list string))
    "event sequence"
    [
      "new-i f" (* first call materializes the instance *);
      "begin f";
      "new-s a" (* a's node appears on its first tracked read *);
      "edge" (* a -> f *);
      "end f true";
      "mark a" (* the external write *);
      "pop a" (* settle before trusting the cache *);
      "mark f";
      "pop f";
      "begin f" (* demand re-execution on the second call *);
      (* it re-reads a, the pred at its cursor: the edge is kept, and
         only a new edge emits an event *)
      "end f true";
      "hit f" (* third call answered from cache *);
    ]
    kinds;
  (* sequence numbers are dense and ordered *)
  let seqs = List.map (fun r -> r.Telemetry.seq) (Telemetry.events tm) in
  Alcotest.(check (list int))
    "dense seqs"
    (List.init (List.length seqs) (fun i -> i))
    seqs

let test_telemetry_ring_cap () =
  let tm = Telemetry.create ~capacity:8 () in
  for i = 0 to 19 do
    Telemetry.emit tm (Telemetry.Marked { id = i; name = "n"; cause = None })
  done;
  checki "total emitted" 20 (Telemetry.total_emitted tm);
  checki "dropped" 12 (Telemetry.dropped tm);
  let evs = Telemetry.events tm in
  checki "ring holds capacity" 8 (List.length evs);
  (* the survivors are exactly the last 8, oldest first *)
  Alcotest.(check (list int))
    "last events kept"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map
       (fun (r : Telemetry.record) ->
         match r.Telemetry.ev with
         | Telemetry.Marked { id; _ } -> id
         | _ -> -1)
       evs)

let test_telemetry_sink () =
  let eng = Engine.create () in
  let tm = Telemetry.create ~capacity:4 () in
  Engine.set_telemetry eng (Some tm);
  let streamed = ref 0 in
  Telemetry.set_sink tm (Some (fun _ -> incr streamed));
  let a = Var.create eng 1 in
  let f = Func.create eng (fun _ () -> Var.get a) in
  ignore (Func.call f ());
  Var.set a 2;
  ignore (Func.call f ());
  (* the sink saw every event even though the tiny ring dropped some *)
  checki "sink saw all" (Telemetry.total_emitted tm) !streamed;
  checkb "ring overflowed" true (Telemetry.dropped tm > 0)

let test_telemetry_disabled_no_drift () =
  (* identical workloads with and without a recorder must produce
     identical engine stats: instrumentation is observation only *)
  let workload eng =
    let a = Var.create eng 1 in
    let fs =
      Array.init 8 (fun i -> Func.create eng (fun _ () -> Var.get a + i))
    in
    Array.iter (fun f -> ignore (Func.call f ())) fs;
    for v = 2 to 5 do
      Var.set a v;
      Array.iter (fun f -> ignore (Func.call f ())) fs
    done;
    Engine.stats eng
  in
  let bare = workload (Engine.create ()) in
  let eng = Engine.create () in
  Engine.set_telemetry eng (Some (Telemetry.create ()));
  let instrumented = workload eng in
  checkb "stats identical" true (bare = instrumented)

(* Round-trip the Chrome trace of a small spreadsheet-like session
   through the JSON parser and sanity-check its structure. *)
let test_chrome_trace_roundtrip () =
  let eng = Engine.create () in
  let tm = Telemetry.create () in
  Engine.set_telemetry eng (Some tm);
  let cells = Array.init 4 (fun i -> Var.create eng ~name:(Fmt.str "A%d" (i + 1)) i) in
  let sum =
    Func.create eng ~name:"SUM" (fun _ () ->
        Array.fold_left (fun acc c -> acc + Var.get c) 0 cells)
  in
  checki "sum" 6 (Func.call sum ());
  Var.set cells.(2) 10;
  checki "sum after edit" 14 (Func.call sum ());
  let trace = Telemetry.to_chrome_trace tm in
  let json = Json.of_string trace (* raises on malformed output *) in
  let events =
    match Json.(member "traceEvents" json) with
    | Some (Json.Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  checkb "has events" true (List.length events > 0);
  (* every event has name/ph/ts/pid/tid; B and E are balanced *)
  let balance = ref 0 in
  List.iter
    (fun ev ->
      checkb "has name" true (Json.member "name" ev <> None);
      checkb "has ts" true
        (match Json.member "ts" ev with
        | Some (Json.Num _) -> true
        | _ -> false);
      match Json.member "ph" ev with
      | Some (Json.Str "B") -> incr balance
      | Some (Json.Str "E") -> decr balance
      | Some (Json.Str _) -> ()
      | _ -> Alcotest.fail "event without ph")
    events;
  checki "B/E balanced" 0 !balance;
  (* the executed instance appears as a duration event *)
  checkb "SUM exec present" true
    (List.exists
       (fun ev ->
         Json.member "name" ev = Some (Json.Str "SUM")
         && Json.member "ph" ev = Some (Json.Str "B"))
       events)

(* A raising instance must still close its duration slice: every
   Exec_begin gets a matching Exec_end (ok = false), so Chrome traces
   stay balanced and nested spans don't swallow their parents. *)
let test_chrome_trace_balanced_on_raise () =
  let eng = Engine.create () in
  let tm = Telemetry.create () in
  Engine.set_telemetry eng (Some tm);
  let boom = ref true in
  let a = Var.create eng ~name:"a" 1 in
  let inner =
    Func.create eng ~name:"inner" (fun _ () ->
        let v = Var.get a in
        if !boom then failwith "boom";
        v)
  in
  let outer =
    Func.create eng ~name:"outer" (fun _ () -> Func.call inner () + 1)
  in
  checkb "outer raises" true
    (match Func.call outer () with _ -> false | exception Failure _ -> true);
  boom := false;
  checki "retry converges" 2 (Func.call outer ());
  (* raw event stream: begin/end counts agree, and a failed end exists *)
  let begins = ref 0 and ends = ref 0 and failed_ends = ref 0 in
  List.iter
    (fun (r : Telemetry.record) ->
      match r.Telemetry.ev with
      | Telemetry.Exec_begin _ -> incr begins
      | Telemetry.Exec_end { ok; _ } ->
        incr ends;
        if not ok then incr failed_ends
      | _ -> ())
    (Telemetry.events tm);
  checki "begin = end" !begins !ends;
  (* both outer and inner were unwound with ok=false *)
  checki "failed ends" 2 !failed_ends;
  (* and the exported Chrome trace nests correctly *)
  let json = Json.of_string (Telemetry.to_chrome_trace tm) in
  let events =
    match Json.(member "traceEvents" json) with
    | Some (Json.Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let balance = ref 0 in
  List.iter
    (fun ev ->
      match Json.member "ph" ev with
      | Some (Json.Str "B") -> incr balance
      | Some (Json.Str "E") ->
        decr balance;
        checkb "never negative" true (!balance >= 0)
      | _ -> ())
    events;
  checki "B/E balanced after raise" 0 !balance

let test_why_recomputed_names_cell () =
  let eng = Engine.create () in
  let tm = Telemetry.create () in
  Engine.set_telemetry eng (Some tm);
  let a = Var.create eng ~name:"cellA" 1 in
  let b = Var.create eng ~name:"cellB" 2 in
  let fa = Func.create eng ~name:"fa" (fun _ () -> Var.get a * 10) in
  let top =
    Func.create eng ~name:"top" (fun _ () -> Func.call fa () + Var.get b)
  in
  checki "initial" 12 (Func.call top ());
  (* mutate only cellA; top's re-execution must be blamed on cellA *)
  Var.set a 5;
  checki "after edit" 52 (Func.call top ());
  let why =
    match Alphonse.Inspect.why_recomputed eng "top" with
    | Some w -> w
    | None -> Alcotest.fail "no provenance for top"
  in
  let rendered = Fmt.str "%a" Telemetry.pp_why why in
  checkb "names the mutated cell" true (contains "cellA" rendered);
  checkb "does not blame cellB" false (contains "cellB" rendered);
  checkb "ends at top" true (contains "re-executed top" rendered);
  (* the chain starts at the external write *)
  (match why with
  | { Telemetry.step_role = `Written; step_name; _ } :: _ ->
    Alcotest.(check string) "root is the write" "cellA" step_name
  | _ -> Alcotest.fail "chain does not start at a write");
  (* an instance that never executed in the window yields None *)
  checkb "unknown instance" true
    (Alphonse.Inspect.why_recomputed eng "nonesuch" = None)

let test_telemetry_profile () =
  let eng = Engine.create () in
  let tm = Telemetry.create () in
  Engine.set_telemetry eng (Some tm);
  let a = Var.create eng ~name:"a" 1 in
  let inner = Func.create eng ~name:"inner" (fun _ () -> Var.get a * 2) in
  let outer =
    Func.create eng ~name:"outer" (fun _ () -> Func.call inner () + 1)
  in
  checki "initial" 3 (Func.call outer ());
  Var.set a 10;
  checki "after edit" 21 (Func.call outer ());
  let profiles = Telemetry.profile tm in
  let find name =
    match
      List.find_opt
        (fun (p : Telemetry.instance_profile) -> p.Telemetry.name = name)
        profiles
    with
    | Some p -> p
    | None -> Alcotest.fail ("no profile for " ^ name)
  in
  let pi = find "inner" and po = find "outer" in
  checki "inner executions" 2 pi.Telemetry.executions;
  checki "inner re-executions" 1 pi.Telemetry.re_executions;
  checki "outer executions" 2 po.Telemetry.executions;
  checkb "inner self time sane" true (pi.Telemetry.self_time >= 0.);
  (* outer's total includes inner's nested run, so total >= self *)
  checkb "outer total >= self" true
    (po.Telemetry.total_time >= po.Telemetry.self_time);
  (* each re-execution consumed one pending mark *)
  checkb "latency recorded" true
    (Array.fold_left ( + ) 0 pi.Telemetry.latency >= 1)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd");
        ("n", Json.Num 3.25);
        ("i", Json.Num 42.);
        ("b", Json.Bool true);
        ("z", Json.Null);
        ("a", Json.Arr [ Json.Num 1.; Json.Str "x"; Json.Obj [] ]);
      ]
  in
  checkb "round trip" true (Json.of_string (Json.to_string j) = j);
  checkb "rejects garbage" true (Json.of_string_opt "{\"a\": }" = None);
  checkb "rejects trailing" true (Json.of_string_opt "1 2" = None)

let () =
  Alcotest.run "alphonse"
    [
      ( "caching",
        [
          Alcotest.test_case "memoized fib" `Quick test_memo_fib;
          Alcotest.test_case "recompute on change" `Quick
            test_var_recompute_on_change;
          Alcotest.test_case "custom var equality" `Quick
            test_custom_var_equality;
          Alcotest.test_case "untracked fast path" `Quick
            test_untracked_var_fast_path;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "eager quiescence cutoff" `Quick test_eager_cutoff;
          Alcotest.test_case "demand dirties transitively" `Quick
            test_demand_no_cutoff;
          Alcotest.test_case "cutoff fast path allocates nothing" `Quick
            test_cutoff_zero_alloc;
          Alcotest.test_case "demand settle step allocates nothing" `Quick
            test_demand_settle_zero_alloc;
          Alcotest.test_case "eager cache write allocates nothing" `Quick
            test_eager_cache_write_zero_alloc;
          Alcotest.test_case "re-executed cache hit allocates nothing" `Quick
            test_reexec_hit_zero_alloc;
          Alcotest.test_case "re-execution allocates nothing" `Quick
            test_reexec_zero_alloc;
          Alcotest.test_case "eager stabilize precomputes" `Quick
            test_eager_stabilize_precomputes;
          Alcotest.test_case "demand stabilize defers" `Quick
            test_demand_stabilize_defers;
        ] );
      ( "maintained",
        [
          Alcotest.test_case "clobbered write restored" `Quick
            test_maintained_write_restored;
          Alcotest.test_case "write then read chain" `Quick
            test_write_then_read_chain;
        ] );
      ( "errors",
        [
          Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
          Alcotest.test_case "mutual cycle" `Quick test_mutual_cycle_detection;
          Alcotest.test_case "engine usable after cycle" `Quick
            test_engine_usable_after_cycle;
          Alcotest.test_case "exception retry" `Quick test_exception_retry;
        ] );
      ( "unchecked",
        [
          Alcotest.test_case "prunes dependencies" `Quick
            test_unchecked_prunes_dependencies;
          Alcotest.test_case "checked control group" `Quick
            test_checked_control_group;
        ] );
      ( "replacement",
        [
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
          Alcotest.test_case "lru recency" `Quick test_lru_recency_order;
          Alcotest.test_case "eviction soundness" `Quick
            test_eviction_soundness;
          Alcotest.test_case "fifo eviction" `Quick test_fifo_eviction;
          Alcotest.test_case "evicted values are collected" `Quick
            test_evicted_values_collected;
          Alcotest.test_case "stale writers are collected" `Quick
            test_stale_writers_collected;
        ] );
      ( "interactions",
        [
          Alcotest.test_case "eviction with partitioning" `Quick
            test_eviction_with_partitioning;
          Alcotest.test_case "nested unchecked" `Quick test_unchecked_nested;
          Alcotest.test_case "unchecked call edge" `Quick
            test_unchecked_call_edge_suppressed;
          Alcotest.test_case "bounded settle with partitions" `Quick
            test_settle_bounded_with_partitions;
        ] );
      ( "scheduling",
        Alcotest.test_case "topological avoids waste" `Quick
          test_scheduling_topological_avoids_waste
        :: qsuite [ prop_pk_invariant ]
        @ [ Alcotest.test_case "reorder keeps heap order" `Quick
              test_scheduling_reorder_keeps_heap_order;
            Alcotest.test_case "stale entry after slot reuse" `Quick
              test_stale_entry_after_slot_reuse ] );
      ( "static-subgraphs",
        [
          Alcotest.test_case "correct when R(p) static" `Quick
            test_same_reads_keep_edges;
          Alcotest.test_case "dynamic churn baseline" `Quick
            test_dynamic_deps_churn_baseline;
          Alcotest.test_case "switched read is tracked" `Quick
            test_switched_read_tracked;
        ] );
      ( "preemption",
        [
          Alcotest.test_case "bounded settle slices" `Quick
            test_settle_bounded_slices;
          Alcotest.test_case "noop when clean" `Quick
            test_settle_bounded_noop_when_clean;
          Alcotest.test_case "demand settle unlists its partition" `Quick
            test_demand_settle_unlists_partition;
        ] );
      ( "partitioning",
        [
          Alcotest.test_case "isolates independent work" `Quick
            test_partitioning_isolates;
          Alcotest.test_case "global settle without it" `Quick
            test_no_partitioning_forces_global_settle;
          Alcotest.test_case "correctness preserved" `Quick
            test_partitioned_correctness;
        ] );
      ( "equivalence",
        qsuite
          [
            prop_equiv ~strategy:Engine.Demand ~partitioning:false
              "demand = oracle";
            prop_equiv ~strategy:Engine.Eager ~partitioning:false
              "eager = oracle";
            prop_equiv ~strategy:Engine.Demand ~partitioning:true
              "demand+partitions = oracle";
            prop_equiv ~strategy:Engine.Eager ~partitioning:true
              "eager+partitions = oracle";
            prop_random_dag;
          ] );
      ( "inspect",
        [
          Alcotest.test_case "dot output" `Quick test_dot_output;
          Alcotest.test_case "dot escaping" `Quick test_dot_escape;
          Alcotest.test_case "parallel profile" `Quick test_parallel_profile;
          Alcotest.test_case "parallel profile chain" `Quick
            test_parallel_profile_chain;
        ] );
      ( "profile",
        [
          Alcotest.test_case "diamond E15 bound is 1.5" `Quick
            test_profile_diamond_bound;
          Alcotest.test_case "write-then-read chain is serial" `Quick
            test_profile_writers_chain;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "event order" `Quick test_telemetry_event_order;
          Alcotest.test_case "ring buffer caps" `Quick test_telemetry_ring_cap;
          Alcotest.test_case "streaming sink" `Quick test_telemetry_sink;
          Alcotest.test_case "disabled: no drift" `Quick
            test_telemetry_disabled_no_drift;
          Alcotest.test_case "chrome trace round-trips" `Quick
            test_chrome_trace_roundtrip;
          Alcotest.test_case "trace balanced when an instance raises" `Quick
            test_chrome_trace_balanced_on_raise;
          Alcotest.test_case "why_recomputed names the cell" `Quick
            test_why_recomputed_names_cell;
          Alcotest.test_case "per-instance profile" `Quick
            test_telemetry_profile;
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
        ] );
    ]
