(* The fault-injection harness (the robustness acceptance suite).

   The sweep is the centerpiece: run each workload once under a counting
   hook to learn how many times the engine pokes its fault sites, then
   re-run it once per poke with a one-shot injector crashing that exact
   decision point. After every injected crash the invariant auditor must
   pass and replaying the (deterministic, idempotent) scenario must
   converge to the clean run's observations — the exhaustive-spec
   answer. Around the sweep: unit tests for the quarantine/poison
   lifecycle, transactional batches with rollback, the exhaustive
   fallback, budgets and preemptable slices, the spreadsheet's
   error-value surface, and the injectors themselves. *)

module Engine = Alphonse.Engine
module Var = Alphonse.Var
module Func = Alphonse.Func
module Faults = Alphonse.Faults
module S = Spreadsheet.Sheet
module Avl = Trees.Avl
module Ag = Attrgram.Ag
module Binary = Attrgram.Binary

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let check_audit what eng =
  match Engine.audit_errors eng with
  | [] -> ()
  | errs -> Alcotest.failf "%s: audit: %s" what (String.concat "; " errs)

let node_of f arg =
  match Func.node f arg with
  | Some n -> n
  | None -> Alcotest.fail "instance has no node"

(* One preemptable slice (§4.5): a stabilize under a budget capped at
   [k] settle steps. [true] when it ran to its end, [false] when the cap
   preempted it (the rest stays queued for the next slice). *)
let slice eng k =
  match
    Engine.with_budget eng (Engine.Budget.create ~max_steps:k ()) (fun () ->
        Engine.stabilize eng)
  with
  | () -> true
  | exception Engine.Cancelled _ -> false

(* ------------------------------------------------------------------ *)
(* The sweep harness                                                   *)
(* ------------------------------------------------------------------ *)

(* A workload is a fresh engine plus a deterministic, idempotent
   scenario: edits interleaved with queries, rendered to a string.
   Because replaying the scenario recreates every intermediate state, a
   replay after any recovered fault must reproduce the clean output. *)
type workload = unit -> Engine.t * (unit -> string)

(* CI audit mode: ALPHONSE_AUDIT=1 additionally runs the invariant
   auditor after every settle step of every sweep engine. *)
let audit_mode = Sys.getenv_opt "ALPHONSE_AUDIT" = Some "1"

let sweep (make : workload) () =
  let make () =
    let eng, play = make () in
    if audit_mode then Engine.set_self_audit eng true;
    (eng, play)
  in
  let eng0, play0 = make () in
  let oracle, counts = Faults.count eng0 play0 in
  let total = Faults.total counts in
  checkb "workload exercises fault sites" true (total > 0);
  for k = 1 to total do
    let eng, play = make () in
    let fired = Faults.inject_nth eng k in
    (match play () with
    | (_ : string) -> ()
    | exception Faults.Injected _ -> ()
    | exception Engine.Poisoned _ -> ());
    checkb (Fmt.str "fault %d/%d fired" k total) true !fired;
    Faults.clear eng;
    check_audit (Fmt.str "after fault %d/%d" k total) eng;
    (* recovery: the replayed scenario converges to the clean answer *)
    checks (Fmt.str "recovery after fault %d/%d" k total) oracle (play ());
    check_audit (Fmt.str "after recovery %d/%d" k total) eng
  done

(* A var/func diamond plus an independent component: marks, edges,
   settles, and — when partitioned — partition melds. *)
let diamond ~strategy ~partitioning () =
  let eng = Engine.create ~default_strategy:strategy ~partitioning () in
  let a = Var.create eng ~name:"a" 2 in
  let b = Var.create eng ~name:"b" 5 in
  let z = Var.create eng ~name:"z" 100 in
  let f = Func.create eng ~name:"f" (fun _ () -> Var.get a + Var.get b) in
  let g = Func.create eng ~name:"g" (fun _ () -> Var.get a * Var.get b) in
  let top =
    Func.create eng ~name:"top" (fun _ () -> Func.call f () + Func.call g ())
  in
  let other = Func.create eng ~name:"other" (fun _ () -> Var.get z - 1) in
  let play () =
    let buf = Buffer.create 64 in
    let q () =
      Engine.stabilize eng;
      Buffer.add_string buf
        (Fmt.str "%d/%d;" (Func.call top ()) (Func.call other ()))
    in
    (* pin the initial state so a replay after an aborted attempt starts
       from the same place *)
    Var.set a 2;
    Var.set b 5;
    Var.set z 100;
    q ();
    Var.set a 3;
    q ();
    Var.set b (-4);
    Var.set z 7;
    q ();
    Var.set a 10;
    Var.set a 3 (* equal-value round trip: must propagate nothing *);
    q ();
    Buffer.contents buf
  in
  (eng, play)

(* The §7.2 spreadsheet. Queries record the incremental AND the
   exhaustive value of every cell, so convergence to the from-scratch
   specification is part of the oracle string itself. *)
let sheet_workload () =
  let s = S.create () in
  let cells = [ (0, 0); (0, 1); (0, 2); (1, 0); (1, 1) ] in
  (* A1 A2 A3 B1 B2 *)
  let play () =
    let buf = Buffer.create 256 in
    let q () =
      List.iter
        (fun c ->
          Buffer.add_string buf
            (Fmt.str "%a|%a;" S.pp_value (S.value s c) S.pp_value
               (S.exhaustive_value s c)))
        cells
    in
    S.set s "A1" "4";
    S.set s "A2" "=A1*A1";
    S.set s "A3" "=A2+A1";
    S.set s "B1" "=SUM(A1:A3)";
    S.set s "B2" "=B1/A1";
    q ();
    S.set s "A1" "0" (* B2 becomes #DIV/0! *);
    q ();
    S.set s "A1" "2";
    S.set s "A3" "=SQRT(A2-100)" (* #ARG! flowing into B1 *);
    q ();
    Buffer.contents buf
  in
  (S.engine s, play)

(* The §7.3 AVL tree: side-effecting maintained balancing. The prologue
   deletes the whole key universe so the scenario is idempotent even
   when a fault aborted the previous attempt midway. *)
let avl_workload () =
  let eng = Engine.create () in
  let t = Avl.create eng in
  let universe = [ 1; 2; 3; 5; 6; 7; 8; 9 ] in
  let play () =
    List.iter (fun k -> Avl.delete t k) universe;
    Avl.rebalance t;
    let buf = Buffer.create 64 in
    let q () =
      Avl.rebalance t;
      Buffer.add_string buf
        (Fmt.str "%a/h%d/%b%b;"
           Fmt.(Dump.list int)
           (Avl.to_list t) (Avl.height t)
           (Avl.is_ordered (Avl.root t))
           (Avl.is_balanced (Avl.root t)))
    in
    List.iter (fun k -> Avl.insert t k) [ 5; 2; 8; 1; 9; 3; 7 ];
    q ();
    Avl.delete t 2;
    Avl.insert t 6;
    q ();
    Buffer.contents buf
  in
  (eng, play)

(* Knuth's binary-numeral attribute grammar: inherited + synthesized
   attribute re-evaluation under edits, with the from-scratch reference
   folded into the oracle. Bit edits are idempotent sets (not flips). *)
let attrgram_workload () =
  let eng = Engine.create () in
  let g = Binary.create eng in
  let n = Binary.of_string g "1101.01" in
  let leaves = Array.of_list (Binary.bit_leaves n) in
  let set_bit i v = Ag.set_terminal leaves.(i) "b" (Binary.I v) in
  let play () =
    let buf = Buffer.create 64 in
    let q () =
      Buffer.add_string buf
        (Fmt.str "%g|%g;" (Binary.value_of g n) (Binary.exhaustive_value n))
    in
    (* pin every bit so a replay after an aborted attempt starts from
       the same numeral *)
    List.iteri set_bit [ 1; 1; 0; 1; 0; 1 ];
    set_bit 0 1;
    set_bit 2 0;
    set_bit 5 1;
    q ();
    set_bit 0 0 (* 0101.11 *);
    q ();
    set_bit 3 0;
    set_bit 5 0;
    q ();
    Buffer.contents buf
  in
  (eng, play)

(* ------------------------------------------------------------------ *)
(* Quarantine and poisoning                                            *)
(* ------------------------------------------------------------------ *)

let test_quarantine_then_poison () =
  let eng = Engine.create ~max_retries:2 () in
  let a = Var.create eng ~name:"a" 1 in
  let boom = ref true in
  let f =
    Func.create eng ~name:"f" (fun _ () ->
        if !boom then failwith "boom";
        Var.get a * 2)
  in
  (match Func.call f () with
  | _ -> Alcotest.fail "expected raise"
  | exception Failure _ -> ());
  let n = node_of f () in
  checki "one failure" 1 (Engine.failure_count eng n);
  checkb "not yet poisoned" false (Engine.poisoned eng n);
  checkb "quarantined" true (List.memq n (Engine.quarantined eng));
  (match Func.call f () with
  | _ -> Alcotest.fail "expected raise"
  | exception Failure _ -> ());
  checkb "poisoned after max_retries" true (Engine.poisoned eng n);
  checkb "left quarantine" false (List.memq n (Engine.quarantined eng));
  (* reads now get the typed error, not the raw exception *)
  (match Func.call f () with
  | _ -> Alcotest.fail "expected Poisoned"
  | exception Engine.Poisoned name -> checks "names instance" "f" name);
  checkb "poisoning exception kept" true
    (match Engine.poison_error eng n with Some (Failure _) -> true | _ -> false);
  check_audit "poisoned state" eng;
  (* explicit recovery retries and a success resets the budget *)
  boom := false;
  Engine.clear_poison eng n;
  checki "recovers" 2 (Func.call f ());
  checki "failure count reset" 0 (Engine.failure_count eng n);
  Var.set a 5;
  checki "still incremental" 10 (Func.call f ());
  check_audit "recovered" eng

(* clear_poison grants a FULL fresh retry budget (it zeroes
   failure_count by design): a still-broken instance re-enters the
   quarantine → poison lifecycle from the top, failing max_retries
   times again before re-poisoning, instead of being instantly
   re-poisoned by its stale count. *)
let test_clear_poison_requarantines () =
  let eng = Engine.create ~max_retries:2 () in
  let boom = ref true in
  let f =
    Func.create eng ~name:"f" (fun _ () ->
        if !boom then failwith "boom";
        1)
  in
  let fail_once () =
    match Func.call f () with
    | _ -> Alcotest.fail "expected raise"
    | exception Failure _ -> ()
  in
  fail_once ();
  fail_once ();
  let n = node_of f () in
  checkb "poisoned" true (Engine.poisoned eng n);
  Engine.clear_poison eng n;
  checki "budget reset by clear_poison" 0 (Engine.failure_count eng n);
  (* still broken: the first fresh failure re-quarantines — it must NOT
     re-poison off the pre-clear count *)
  fail_once ();
  checki "one fresh failure" 1 (Engine.failure_count eng n);
  checkb "re-quarantined" true (List.memq n (Engine.quarantined eng));
  checkb "not yet re-poisoned" false (Engine.poisoned eng n);
  fail_once ();
  checkb "re-poisoned only after a full budget" true (Engine.poisoned eng n);
  boom := false;
  Engine.clear_poison eng n;
  checki "recovers" 1 (Func.call f ());
  check_audit "after a re-poison cycle" eng

let test_poison_propagates_without_charge () =
  let eng = Engine.create ~max_retries:1 () in
  let broken = ref true in
  let bad =
    Func.create eng ~name:"bad" (fun _ () ->
        if !broken then failwith "boom" else 7)
  in
  (* poison the origin directly *)
  (match Func.call bad () with
  | _ -> Alcotest.fail "expected raise"
  | exception Failure _ -> ());
  checkb "origin poisoned" true (Engine.poisoned eng (node_of bad ()));
  (* a dependent's reads re-raise the typed error, naming the origin... *)
  let dep = Func.create eng ~name:"dep" (fun _ () -> Func.call bad () + 1) in
  (match Func.call dep () with
  | _ -> Alcotest.fail "expected Poisoned"
  | exception Engine.Poisoned name -> checks "blames origin" "bad" name);
  (match Func.call dep () with
  | _ -> Alcotest.fail "expected Poisoned"
  | exception Engine.Poisoned _ -> ());
  (* ...without ever consuming the dependent's own retry budget: with
     max_retries = 1 a single charge would already have poisoned it *)
  checkb "dependent not poisoned" false (Engine.poisoned eng (node_of dep ()));
  checki "dependent not charged" 0 (Engine.failure_count eng (node_of dep ()));
  (* clearing the origin heals the whole cone *)
  broken := false;
  Engine.clear_poison eng (node_of bad ());
  checki "cone recovers" 8 (Func.call dep ());
  check_audit "after recovery" eng

let test_stabilize_total_and_retry () =
  let eng = Engine.create () in
  let a = Var.create eng ~name:"a" 1 in
  let boom = ref false in
  let f =
    Func.create eng ~name:"f" ~strategy:Engine.Eager (fun _ () ->
        if !boom then failwith "boom";
        Var.get a * 10)
  in
  let g =
    Func.create eng ~name:"g" ~strategy:Engine.Eager (fun _ () -> Var.get a + 1)
  in
  checki "f" 10 (Func.call f ());
  checki "g" 2 (Func.call g ());
  boom := true;
  Var.set a 2;
  (* settlement is total: f's failure is quarantined, g still settles *)
  Engine.stabilize eng;
  checki "g settled despite f" 3 (Func.call g ());
  checkb "f quarantined" true (List.memq (node_of f ()) (Engine.quarantined eng));
  checkb "failures counted" true ((Engine.stats eng).Engine.failures >= 1);
  check_audit "with quarantine pending" eng;
  (* the next stabilize retries the quarantined instance *)
  boom := false;
  Engine.stabilize eng;
  checki "f recovered" 20 (Func.call f ());
  checkb "retry recorded" true ((Engine.stats eng).Engine.retries >= 1);
  checkb "quarantine drained" false
    (List.memq (node_of f ()) (Engine.quarantined eng));
  check_audit "after retry" eng

(* An injected fault that fires in run_instance BEFORE the body (the
   clear-preds poke) must be recorded like a body failure: the settle
   loop has already dequeued the instance, so a bypassed handler would
   leave a previously-consistent eager instance unqueued with
   [consistent] still set — its pending invalidation silently lost and
   reads stale until the next unrelated input change. *)
let test_prebody_fault_is_recorded () =
  let eng = Engine.create () in
  let a = Var.create eng ~name:"a" 1 in
  let f =
    Func.create eng ~name:"f" ~strategy:Engine.Eager (fun _ () ->
        Var.get a * 2)
  in
  checki "clean" 2 (Func.call f ());
  let fired = Faults.inject_nth eng ~only:"clear-preds" 1 in
  Var.set a 5;
  (* settlement is total: the pre-body fault is swallowed like any other
     instance failure, but it must land f in quarantine *)
  Engine.stabilize eng;
  checkb "fault fired" true !fired;
  Faults.clear eng;
  check_audit "after pre-body fault" eng;
  checkb "failure recorded: quarantined" true
    (List.memq (node_of f ()) (Engine.quarantined eng));
  (* the invalidation was not lost: a read right now recomputes *)
  checki "read is not stale" 10 (Func.call f ());
  Engine.stabilize eng;
  checkb "quarantine drained" false
    (List.memq (node_of f ()) (Engine.quarantined eng));
  check_audit "recovered" eng

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)
(* ------------------------------------------------------------------ *)

let test_transact_commit () =
  let eng = Engine.create () in
  let a = Var.create eng ~name:"a" 1 in
  let b = Var.create eng ~name:"b" 2 in
  let sum = Func.create eng ~name:"sum" (fun _ () -> Var.get a + Var.get b) in
  checki "initial" 3 (Func.call sum ());
  let mid =
    Engine.transact eng (fun () ->
        Var.set a 10;
        let mid = Func.call sum () (* demand read sees the partial batch *) in
        Var.set b 20;
        mid)
  in
  checki "read inside batch" 12 mid;
  checkb "txn closed" false (Engine.in_transaction eng);
  checki "committed" 30 (Func.call sum ());
  check_audit "after commit" eng

let test_transact_rollback () =
  let eng = Engine.create () in
  let a = Var.create eng ~name:"a" 1 in
  let b = Var.create eng ~name:"b" 2 in
  let runs = ref 0 in
  let sum =
    Func.create eng ~name:"sum" (fun _ () ->
        incr runs;
        Var.get a + Var.get b)
  in
  checki "initial" 3 (Func.call sum ());
  (match
     Engine.transact eng (fun () ->
         Var.set a 100;
         (* cache sum against the batch's intermediate state *)
         checki "intermediate" 102 (Func.call sum ());
         Var.set b 200;
         failwith "abort")
   with
  | () -> Alcotest.fail "expected abort"
  | exception Failure _ -> ());
  checkb "txn closed" false (Engine.in_transaction eng);
  checki "a restored" 1 (Var.get a);
  checki "b restored" 2 (Var.get b);
  (* the instance that ran against the discarded state was re-invalidated:
     this read recomputes from the restored inputs, no stale 102 *)
  let before = !runs in
  checki "recomputed from restored state" 3 (Func.call sum ());
  checki "really re-executed" (before + 1) !runs;
  checki "rollback counted" 1 (Engine.stats eng).Engine.rollbacks;
  check_audit "after rollback" eng

let test_transact_rollback_on_injected_settle_fault () =
  let eng = Engine.create () in
  let a = Var.create eng ~name:"a" 1 in
  let total =
    Func.create eng ~name:"total" ~strategy:Engine.Eager (fun _ () ->
        Var.get a * 2)
  in
  checki "initial" 2 (Func.call total ());
  (* crash the commit settle: the first settle-pop of the batch *)
  let fired = Faults.inject_nth eng ~only:"settle-pop" 1 in
  (match Engine.transact eng (fun () -> Var.set a 5) with
  | () -> Alcotest.fail "expected injected fault"
  | exception Faults.Injected _ -> ());
  checkb "fault fired" true !fired;
  Faults.clear eng;
  checkb "txn closed" false (Engine.in_transaction eng);
  checki "write rolled back" 1 (Var.get a);
  check_audit "after aborted commit" eng;
  (* the batch can simply be retried *)
  Engine.transact eng (fun () -> Var.set a 5);
  checki "retried batch commits" 10 (Func.call total ());
  check_audit "after retry" eng

let test_transact_nesting_rejected () =
  let eng = Engine.create () in
  checkb "nested rejected" true
    (match Engine.transact eng (fun () -> Engine.transact eng (fun () -> ()))
     with
    | () -> false
    | exception Invalid_argument _ -> true);
  checkb "txn closed after rejection" false (Engine.in_transaction eng);
  let f = Func.create eng ~name:"probe" (fun _ () -> 5) in
  checki "engine usable" 5 (Func.call f ());
  (* and from inside an incremental execution *)
  let g =
    Func.create eng ~name:"inside" (fun _ () ->
        Engine.transact eng (fun () -> 1))
  in
  checkb "rejected inside execution" true
    (match Func.call g () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_audit "after rejections" eng

(* ------------------------------------------------------------------ *)
(* Degradation and preemption                                          *)
(* ------------------------------------------------------------------ *)

(* The exhaustive fallback [Durable] recovery takes: degrading with
   marks still pending drops them and leaves every instance to
   recompute on demand. *)
let test_degrade_with_marks_pending () =
  let eng = Engine.create () in
  let a = Var.create eng ~name:"a" 1 in
  let fs =
    Array.init 10 (fun i ->
        Func.create eng ~name:(Fmt.str "f%d" i) ~strategy:Engine.Eager
          (fun _ () -> Var.get a + i))
  in
  Array.iter (fun f -> ignore (Func.call f ())) fs;
  Var.set a 2;
  checkb "marks pending" true
    (Array.for_all (fun f -> Engine.node_dirty (node_of f ())) fs);
  Engine.degrade_to_exhaustive eng;
  checki "degradation counted" 1 (Engine.stats eng).Engine.degradations;
  let settles = (Engine.stats eng).Engine.settles in
  Engine.stabilize eng;
  checki "no marks left pending: stabilize has no session to run" settles
    (Engine.stats eng).Engine.settles;
  check_audit "after degradation" eng;
  (* the exhaustive fallback still answers every demand correctly *)
  Array.iteri (fun i f -> checki (Fmt.str "f%d" i) (2 + i) (Func.call f ())) fs;
  check_audit "after exhaustive recomputation" eng

(* A settle must not unlist a partition whose drain skipped a node
   because it sat on the call stack: regression for the reinsert
   finalizer clearing the skip list before the quiescence check, which
   stranded still-queued nodes in a partition no longer flagged dirty.
   [h] is eager and its first run is a top-level call, not a settle
   step, so a step-capped stabilize inside it drains a heap that holds
   [h] itself. *)
let test_slice_on_stack_skip () =
  let eng = Engine.create () in
  let b = Var.create eng ~name:"b" 0 in
  let runs = ref 0 and inside = ref None in
  let h =
    Func.create eng ~name:"h" ~strategy:Engine.Eager (fun _ () ->
        incr runs;
        let v = Var.get b in
        if v = 0 then begin
          (* re-dirty our own recorded dependency and drive a slice from
             inside the execution: the mark reaches this very instance
             on the stack, so it only sets [queued], and the slice must
             not run it *)
          Var.set b 9;
          inside := Some (slice eng 100)
        end;
        v * 2)
  in
  checki "first run read b before its write" 0 (Func.call h ());
  checkb "the in-execution slice ran to its end" true
    (match !inside with
    | Some q -> q
    | None -> Alcotest.fail "in-execution settle never ran");
  checki "the slice did not run h" 1 !runs;
  checkb "h still pending" true (Engine.node_dirty (node_of h ()));
  (* the write during execution left h queued: its frame's pop must put
     it on its partition's heap and list the partition, or the next
     stabilize would never drain it *)
  check_audit "after in-execution slice" eng;
  Engine.stabilize eng;
  checki "the follow-up stabilize re-ran h" 2 !runs;
  check_audit "after follow-up stabilize" eng;
  checki "stable" 18 (Func.call h ());
  checki "a cache hit" 2 !runs

(* ------------------------------------------------------------------ *)
(* Spreadsheet error-value surface                                     *)
(* ------------------------------------------------------------------ *)

let test_sheet_poisoned_cell_renders_err () =
  let s = S.create () in
  S.set s "A1" "3";
  S.set s "B1" "=A1*2";
  S.set s "C1" "=B1+1";
  S.set s "D1" "=C1*10";
  checks "clean" "70" (Fmt.str "%a" S.pp_value (S.value_at s "D1"));
  let eng = S.engine s in
  (* every execution attempt now crashes at entry: C1 (the first cell
     forced below) accumulates failures until it poisons *)
  Engine.set_fault_hook eng
    (Some (fun site -> if site = "exec-begin" then raise (Faults.Injected site)));
  S.set s "A1" "4";
  let rec drive n =
    if n = 0 then Alcotest.fail "cell never poisoned"
    else
      match S.value_at s "C1" with
      | S.Error (S.Fault _) -> ()
      | _ | (exception Faults.Injected _) -> drive (n - 1)
  in
  drive 10;
  Engine.set_fault_hook eng None;
  (* the poisoned cell is an error VALUE: it renders, and dependents
     absorb it like any other error instead of crashing *)
  checks "poisoned renders" "#ERR!" (Fmt.str "%a" S.pp_value (S.value_at s "C1"));
  checks "dependent absorbs it" "#ERR!"
    (Fmt.str "%a" S.pp_value (S.value_at s "D1"));
  check_audit "sheet with poisoned cell" eng;
  (* the UI-level recovery action heals the cone *)
  S.clear_fault s (2, 0);
  checks "cleared cell" "9" (Fmt.str "%a" S.pp_value (S.value_at s "C1"));
  checks "dependent healed" "90" (Fmt.str "%a" S.pp_value (S.value_at s "D1"));
  check_audit "sheet healed" eng

(* ------------------------------------------------------------------ *)
(* The injectors themselves                                            *)
(* ------------------------------------------------------------------ *)

let test_seeded_injector_deterministic () =
  let run seed =
    let eng = Engine.create () in
    let a = Var.create eng ~name:"a" 1 in
    let f = Func.create eng ~name:"f" (fun _ () -> Var.get a * 3) in
    let fired = Faults.install_seeded eng ~seed ~rate:0.2 () in
    let out = Buffer.create 64 in
    for v = 1 to 20 do
      (match Var.set a v with () -> () | exception Faults.Injected _ -> ());
      match Func.call f () with
      | r -> Buffer.add_string out (Fmt.str "%d;" r)
      | exception Faults.Injected _ -> Buffer.add_string out "X;"
      | exception Engine.Poisoned _ -> Buffer.add_string out "P;"
    done;
    Faults.clear eng;
    check_audit "seeded run" eng;
    let final =
      match Func.call f () with
      | v -> v
      | exception Engine.Poisoned _ ->
        Engine.clear_poison eng (node_of f ());
        Func.call f ()
    in
    (!fired, Buffer.contents out, final)
  in
  let f1, o1, last1 = run 42 in
  let f2, o2, last2 = run 42 in
  checkb "faults actually fired" true (f1 > 0);
  checki "same fault count" f1 f2;
  checks "same fault schedule" o1 o2;
  checki "same final value" last1 last2;
  checki "converges to the spec value" 60 last1

let test_pick_deterministic_and_valid () =
  let counts = [ ("edge", 10); ("exec-begin", 5); ("mark", 20) ] in
  let p1 = Faults.pick ~seed:7 counts 8 in
  let p2 = Faults.pick ~seed:7 counts 8 in
  checkb "deterministic" true (p1 = p2);
  checki "n points drawn" 8 (List.length p1);
  List.iter
    (fun (site, k) ->
      match List.assoc_opt site counts with
      | None -> Alcotest.failf "picked unknown site %s" site
      | Some n -> checkb "k within the site's count" true (k >= 1 && k <= n))
    p1

let test_count_restores_hook () =
  let eng = Engine.create () in
  let poked = ref false in
  Engine.set_fault_hook eng (Some (fun _ -> poked := true));
  let (), counts =
    Faults.count eng (fun () ->
        let a = Var.create eng ~name:"a" 1 in
        let f = Func.create eng ~name:"f" (fun _ () -> Var.get a) in
        ignore (Func.call f ());
        Var.set a 2;
        ignore (Func.call f ()))
  in
  checkb "counted" true (Faults.total counts > 0);
  checkb "counting did not leak into the real hook" false !poked;
  (* the previous hook is back in place *)
  (match Engine.fault_hook eng with
  | Some h -> h "probe"
  | None -> Alcotest.fail "hook not restored");
  checkb "restored hook runs" true !poked


(* ------------------------------------------------------------------ *)
(* Budgets: deadlines and cooperative cancellation                     *)
(* ------------------------------------------------------------------ *)

(* The cancellation property (ISSUE 7): [Engine.Cancelled] tripping at
   ANY checkpoint of a transacted batch — a settle step, or the start of
   a demand execution — leaves the observable state equal to the
   pre-batch state (the undo log rewinds it), the audit clean, no retry
   budget charged — and the batch replayable to the clean answer. Swept
   twice, each time until the batch completes uncancelled: by a step cap
   of k = 1, 2, ..., so every settle step of the batch gets its turn as
   the cancellation point; and by a cancel raised while the batch's kth
   execution runs (k = 0: before the batch), which trips at the next
   checkpoint, so every checkpoint gets its turn, demand executions
   included. Settle steps are eager work only, so the step-cap sweep of
   an all-demand batch completes at once.

   One more input rides along: the batch settled in preempted slices —
   [slice eng k] until one runs to its end, for k = 1, 3, 7 — must take
   the same settle steps and executions as one [stabilize] and leave
   the same reads, with partitioning off and on: a cap trips before a
   pop, so slicing adds no step and abandons no execution. *)
let cancel_sweep
    (make :
      ?partitioning:bool -> unit -> Engine.t * (unit -> string) * (unit -> unit))
    () =
  let make ?partitioning () =
    let eng, snap, batch = make ?partitioning () in
    if audit_mode then Engine.set_self_audit eng true;
    (eng, snap, batch)
  in
  let eager_steps = ref false in
  List.iter
    (fun partitioning ->
      let settled_by settle =
        let eng, snap, batch = make ~partitioning () in
        batch ();
        settle eng;
        let s = Engine.stats eng in
        (s.Engine.settle_steps, s.Engine.executions, snap ())
      in
      let steps, execs, reads = settled_by Engine.stabilize in
      if steps > 0 then eager_steps := true;
      List.iter
        (fun k ->
          let what = Fmt.str "slices of %d (partitioning %b)" k partitioning in
          let rec slices n eng =
            if n > 10_000 then Alcotest.failf "%s never quiesce" what;
            if not (slice eng k) then slices (n + 1) eng
          in
          let steps', execs', reads' = settled_by (slices 0) in
          checki (what ^ ": settle steps") steps steps';
          checki (what ^ ": executions") execs execs';
          checks (what ^ ": reads") reads reads')
        [ 1; 3; 7 ])
    [ false; true ];
  let eng0, snap0, batch0 = make () in
  let pre = snap0 () in
  Engine.transact eng0 batch0;
  let post = snap0 () in
  checkb "batch changes the observable state" false (String.equal pre post);
  let step_cap _eng k = Engine.Budget.create ~max_steps:k () in
  let cancel_at_execution eng k =
    let b = Engine.Budget.create () in
    if k = 0 then Engine.Budget.cancel b
    else begin
      let n = ref 0 in
      Engine.set_fault_hook eng
        (Some
           (fun site ->
             if site = "exec-begin" then begin
               incr n;
               if !n = k then Engine.Budget.cancel b
             end))
    end;
    b
  in
  let sweep name budget k0 =
    let rec go k =
      if k > 10_000 then Alcotest.failf "%s sweep did not terminate" name;
      let eng, snap, batch = make () in
      checks "fresh instance starts at pre" pre (snap ());
      let b = budget eng k in
      let outcome =
        match Engine.with_budget eng b (fun () -> Engine.transact eng batch) with
        | () -> None
        | exception (Engine.Cancelled _ as e) -> Some e
      in
      Engine.set_fault_hook eng None;
      match outcome with
      | None ->
        checks (Fmt.str "%s: uncancelled at %d completes to post" name k) post
          (snap ());
        check_audit "after uncancelled batch" eng;
        k - k0
      | Some _ ->
        checkb
          (Fmt.str "%s: budget disarmed after trip at %d" name k)
          true
          (Engine.budget eng = None);
        checks (Fmt.str "%s: cancelled at %d rolls back to pre" name k) pre
          (snap ());
        check_audit (Fmt.str "%s: after cancellation at %d" name k) eng;
        checkb
          (Fmt.str "%s: cancellation at %d charges no retry budget" name k)
          true
          (Engine.quarantined eng = []);
        (* the abandoned work must be replayable, not wedged *)
        Engine.transact eng batch;
        checks (Fmt.str "%s: replay after cancellation at %d" name k) post
          (snap ());
        check_audit "after replay" eng;
        go (k + 1)
    in
    go k0
  in
  let step_trips = sweep "step cap" step_cap 1 in
  checkb "step-cap sweep cancels when the batch takes settle steps"
    !eager_steps (step_trips >= 1);
  let cancel_trips = sweep "cancel" cancel_at_execution 0 in
  checkb "cancel sweep exercised at least one cancellation" true
    (cancel_trips >= 1)

let diamond_cancel ~strategy ?partitioning () =
  let eng = Engine.create ?partitioning ~default_strategy:strategy () in
  let a = Var.create eng ~name:"a" 2 in
  let b = Var.create eng ~name:"b" 5 in
  let z = Var.create eng ~name:"z" 100 in
  let f = Func.create eng ~name:"f" (fun _ () -> Var.get a + Var.get b) in
  let g = Func.create eng ~name:"g" (fun _ () -> Var.get a * Var.get b) in
  let top =
    Func.create eng ~name:"top" (fun _ () -> Func.call f () + Func.call g ())
  in
  let other = Func.create eng ~name:"other" (fun _ () -> Var.get z - 1) in
  let snap () =
    Engine.stabilize eng;
    Fmt.str "%d/%d" (Func.call top ()) (Func.call other ())
  in
  ignore (snap () : string);
  (* the batch reads its result back, as a daemon batch does: the
     demand executions the read forces are its checkpoints *)
  let batch () =
    Var.set a 3;
    Var.set b (-4);
    Var.set z 7;
    ignore (Func.call top () + Func.call other () : int)
  in
  (eng, snap, batch)

(* Eager steps over demand work: the eager [top] and [twice] call the
   demand [f] and [g], so the batch's settle steps run demand executions
   inside them, and a step cap must not cut a step off inside itself.
   The batch reads nothing back, which leaves its eager work to the
   settle. *)
let mixed_cancel ?partitioning () =
  let eng = Engine.create ?partitioning () in
  let a = Var.create eng ~name:"a" 2 in
  let b = Var.create eng ~name:"b" 5 in
  let f = Func.create eng ~name:"f" (fun _ () -> Var.get a + Var.get b) in
  let g = Func.create eng ~name:"g" (fun _ () -> Var.get a * Var.get b) in
  let top =
    Func.create eng ~name:"top" ~strategy:Engine.Eager (fun _ () ->
        Func.call f () + Func.call g ())
  in
  let twice =
    Func.create eng ~name:"twice" ~strategy:Engine.Eager (fun _ () ->
        2 * Func.call g ())
  in
  let snap () =
    Engine.stabilize eng;
    Fmt.str "%d/%d" (Func.call top ()) (Func.call twice ())
  in
  ignore (snap () : string);
  let batch () =
    Var.set a 3;
    Var.set b (-4)
  in
  (eng, snap, batch)

let sheet_cancel ?partitioning () =
  let s = S.create ?partitioning () in
  S.set s "A1" "4";
  S.set s "A2" "=A1*A1";
  S.set s "A3" "=A2+A1";
  S.set s "B1" "=SUM(A1:A3)";
  S.set s "B2" "=B1/A1";
  let snap () = S.render s in
  ignore (snap () : string);
  let batch () =
    S.set s "A1" "2";
    S.set s "A3" "=SQRT(A2+5)";
    S.set s "B1" "=A2+A3";
    ignore (S.value_at s "B2" : S.value)
  in
  (S.engine s, snap, batch)

let avl_cancel ?partitioning () =
  let eng = Engine.create ?partitioning () in
  let t = Avl.create eng in
  List.iter (fun k -> Avl.insert t k) [ 5; 2; 8; 1; 9 ];
  Avl.rebalance t;
  let snap () =
    Avl.rebalance t;
    Fmt.str "%a/h%d/%b%b"
      Fmt.(Dump.list int)
      (Avl.to_list t) (Avl.height t)
      (Avl.is_ordered (Avl.root t))
      (Avl.is_balanced (Avl.root t))
  in
  ignore (snap () : string);
  let batch () =
    Avl.insert t 3;
    Avl.insert t 7;
    Avl.delete t 2;
    Avl.rebalance t
  in
  (eng, snap, batch)

let test_budget_deadline_expired () =
  let eng = Engine.create ~default_strategy:Engine.Eager () in
  let a = Var.create eng ~name:"a" 1 in
  let f = Func.create eng ~name:"f" (fun _ () -> Var.get a + 1) in
  checki "primed" 2 (Func.call f ());
  let tm = Alphonse.Telemetry.create () in
  Engine.set_telemetry eng (Some tm);
  let b = Engine.Budget.create ~deadline:(Unix.gettimeofday () -. 1.0) () in
  (match
     Engine.with_budget eng b (fun () ->
         Engine.transact eng (fun () -> Var.set a 41))
   with
  | () -> Alcotest.fail "expected Cancelled"
  | exception Engine.Cancelled msg ->
    checkb "reason names the deadline" true
      (String.length msg >= 8 && String.sub msg 0 8 = "deadline"));
  let trips =
    List.filter_map
      (fun (r : Alphonse.Telemetry.record) ->
        match r.ev with
        | Alphonse.Telemetry.Budget_tripped { reason } -> Some reason
        | _ -> None)
      (Alphonse.Telemetry.events tm)
  in
  Alcotest.(check (list string))
    "one Budget_tripped event" [ "deadline exceeded" ] trips;
  checkb "budget disarmed" true (Engine.budget eng = None);
  checki "write rolled back" 2 (Func.call f ());
  check_audit "after deadline trip" eng

let test_budget_cancel_flag () =
  let eng = Engine.create ~default_strategy:Engine.Eager () in
  let a = Var.create eng ~name:"a" 1 in
  let f = Func.create eng ~name:"f" (fun _ () -> Var.get a * 10) in
  checki "primed" 10 (Func.call f ());
  let b = Engine.Budget.create () in
  checkb "not yet cancelled" false (Engine.Budget.cancelled b);
  Engine.Budget.cancel b;
  checkb "flag latched" true (Engine.Budget.cancelled b);
  (match
     Engine.with_budget eng b (fun () ->
         Engine.transact eng (fun () -> Var.set a 5))
   with
  | () -> Alcotest.fail "expected Cancelled"
  | exception Engine.Cancelled _ -> ());
  checki "write rolled back" 10 (Func.call f ());
  check_audit "after cancel flag" eng

(* The step cap counts settle steps, so it trips before a step, never
   inside one: a dirty demand instance that an eager step's body calls
   is that step's own work, and a cap of one step lets it finish. *)
let test_budget_cap_spares_its_last_step () =
  let eng = Engine.create () in
  let a = Var.create eng ~name:"a" 1 in
  let d = Func.create eng ~name:"d" (fun _ () -> Var.get a + 1) in
  let e =
    Func.create eng ~name:"e" ~strategy:Engine.Eager (fun _ () ->
        2 * Func.call d ())
  in
  checki "primed" 4 (Func.call e ());
  let b = Engine.Budget.create ~max_steps:1 () in
  (match
     Engine.with_budget eng b (fun () ->
         Engine.transact eng (fun () -> Var.set a 5))
   with
  | () -> ()
  | exception Engine.Cancelled msg ->
    Alcotest.failf "a one-step batch cancelled inside its step: %s" msg);
  checki "one step charged" 1 (Engine.Budget.steps_used b);
  checki "no cancellation" 0 (Engine.stats eng).Engine.cancellations;
  checki "batch committed" 12 (Func.call e ())

(* A cancel that trips at a demand execution inside an eager settle
   step, outside a transaction, must leave the eager instance queued:
   its dirty demand callee stops the next write's walk short of it, so
   nothing else would ever re-mark it and later stabilizes would take no
   step while its cached value stays stale. *)
let test_budget_cancel_inside_step_requeues () =
  let eng = Engine.create () in
  let a = Var.create eng ~name:"a" 1 in
  let d = Func.create eng ~name:"d" (fun _ () -> Var.get a + 1) in
  let e =
    Func.create eng ~name:"e" ~strategy:Engine.Eager (fun _ () ->
        2 * Func.call d ())
  in
  checki "primed" 4 (Func.call e ());
  Var.set a 5;
  let b = Engine.Budget.create () in
  (* cancelled as e's execution begins: the trip comes at d's demand
     checkpoint, inside the step *)
  Engine.set_fault_hook eng
    (Some (fun site -> if site = "exec-begin" then Engine.Budget.cancel b));
  (match Engine.with_budget eng b (fun () -> Engine.stabilize eng) with
  | () -> Alcotest.fail "expected Cancelled"
  | exception Engine.Cancelled _ -> ());
  Engine.set_fault_hook eng None;
  check_audit "after the trip" eng;
  Var.set a 7;
  let steps = (Engine.stats eng).Engine.settle_steps in
  Engine.stabilize eng;
  checkb "the stranded step is resumed" true
    ((Engine.stats eng).Engine.settle_steps > steps);
  Alcotest.(check (option int)) "eager instance current" (Some 16)
    (Func.peek e ());
  check_audit "after the resumed settle" eng

let test_budget_counts_steps () =
  let eng = Engine.create ~default_strategy:Engine.Eager () in
  let a = Var.create eng ~name:"a" 1 in
  let f = Func.create eng ~name:"f" (fun _ () -> Var.get a + 1) in
  let g = Func.create eng ~name:"g" (fun _ () -> Func.call f () * 2) in
  checki "primed" 4 (Func.call g ());
  let b = Engine.Budget.create ~max_steps:1_000 () in
  Engine.with_budget eng b (fun () ->
      Engine.transact eng (fun () -> Var.set a 10));
  checkb "steps were charged" true (Engine.Budget.steps_used b > 0);
  checki "batch committed" 22 (Func.call g ())

let () =
  Alcotest.run "faults"
    [
      ( "sweep",
        [
          Alcotest.test_case "diamond (demand)" `Quick
            (sweep (diamond ~strategy:Engine.Demand ~partitioning:false));
          Alcotest.test_case "diamond (eager, partitioned)" `Quick
            (sweep (diamond ~strategy:Engine.Eager ~partitioning:true));
          Alcotest.test_case "spreadsheet" `Quick (sweep sheet_workload);
          Alcotest.test_case "avl" `Quick (sweep avl_workload);
          Alcotest.test_case "attribute grammar" `Quick
            (sweep attrgram_workload);
          Alcotest.test_case "diamond (eager)" `Quick
            (sweep (diamond ~strategy:Engine.Eager ~partitioning:false));
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "retry then poison" `Quick
            test_quarantine_then_poison;
          Alcotest.test_case "clear_poison re-quarantines with a fresh budget"
            `Quick test_clear_poison_requarantines;
          Alcotest.test_case "poison propagates without charge" `Quick
            test_poison_propagates_without_charge;
          Alcotest.test_case "stabilize is total and retries" `Quick
            test_stabilize_total_and_retry;
          Alcotest.test_case "pre-body fault is recorded" `Quick
            test_prebody_fault_is_recorded;
        ] );
      ( "transact",
        [
          Alcotest.test_case "commit" `Quick test_transact_commit;
          Alcotest.test_case "rollback on abort" `Quick test_transact_rollback;
          Alcotest.test_case "rollback on injected settle fault" `Quick
            test_transact_rollback_on_injected_settle_fault;
          Alcotest.test_case "nesting rejected" `Quick
            test_transact_nesting_rejected;
        ] );
      ( "budget",
        [
          Alcotest.test_case "cancel sweep: diamond (demand)" `Quick
            (cancel_sweep (diamond_cancel ~strategy:Engine.Demand));
          Alcotest.test_case "cancel sweep: diamond (eager)" `Quick
            (cancel_sweep (diamond_cancel ~strategy:Engine.Eager));
          Alcotest.test_case "cancel sweep: spreadsheet" `Quick
            (cancel_sweep sheet_cancel);
          Alcotest.test_case "cancel sweep: avl" `Quick
            (cancel_sweep avl_cancel);
          Alcotest.test_case "cancel sweep: eager over demand" `Quick
            (cancel_sweep mixed_cancel);
          Alcotest.test_case "expired deadline trips and rolls back" `Quick
            test_budget_deadline_expired;
          Alcotest.test_case "cancel flag preempts the settle" `Quick
            test_budget_cancel_flag;
          Alcotest.test_case "steps are charged to the budget" `Quick
            test_budget_counts_steps;
          Alcotest.test_case "step cap spares its last step" `Quick
            test_budget_cap_spares_its_last_step;
          Alcotest.test_case "cancel inside a step re-queues it" `Quick
            test_budget_cancel_inside_step_requeues;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "degrade with marks pending" `Quick
            test_degrade_with_marks_pending;
          Alcotest.test_case "bounded settle skips stay dirty" `Quick
            test_slice_on_stack_skip;
        ] );
      ( "spreadsheet",
        [
          Alcotest.test_case "poisoned cell is an error value" `Quick
            test_sheet_poisoned_cell_renders_err;
        ] );
      ( "injectors",
        [
          Alcotest.test_case "seeded injector is deterministic" `Quick
            test_seeded_injector_deterministic;
          Alcotest.test_case "pick is deterministic and valid" `Quick
            test_pick_deterministic_and_valid;
          Alcotest.test_case "count restores the hook" `Quick
            test_count_restores_hook;
        ] );
    ]
