(* A live leaderboard: the order-statistic tree (maintained size, §7.3
   applied twice) serving rank / percentile queries while scores stream
   in, with eager evaluation spending idle cycles in preemptable slices
   (§4.5: a stabilize under a step-capped [Engine.Budget]) and the
   dependency graph's parallelism profile (§10).

     dune exec examples/leaderboard_demo.exe *)

module Engine = Alphonse.Engine
module Ostat = Trees.Ostat

let () =
  let eng = Engine.create ~default_strategy:Engine.Eager () in
  let board = Ostat.create eng in

  (* 1000 players with deterministic pseudo-random scores *)
  let rand = Random.State.make [| 7; 11 |] in
  let scores = Array.init 1000 (fun _ -> Random.State.int rand 100_000) in
  Array.iter (Ostat.insert board) scores;

  Fmt.pr "Leaderboard with %d distinct scores.@." (Ostat.size board);
  Fmt.pr "  median score:      %d@." (Ostat.median board);
  Fmt.pr "  90th percentile:   %d@."
    (Ostat.select board (Ostat.size board * 9 / 10));
  Fmt.pr "  rank of 50000:     %d (players below)@." (Ostat.rank board 50_000);

  (* scores stream in; each query is O(log n) thanks to the maintained
     size attribute over the self-balancing tree *)
  Engine.reset_stats eng;
  for i = 1 to 50 do
    Ostat.insert board (50_000 + (i * 31))
  done;
  Fmt.pr "@.After 50 new scores near the median:@.";
  Fmt.pr "  median moved to:   %d@." (Ostat.median board);
  let s = Engine.stats eng in
  Fmt.pr "  engine work:       %d re-executions for 50 inserts + queries@."
    s.Engine.executions;

  (* idle-cycle maintenance: dirty a batch, then settle in small slices,
     as an interactive system would between input events *)
  Engine.reset_stats eng;
  for _ = 1 to 200 do
    Ostat.insert board (Random.State.int rand 100_000)
  done;
  (* a slice is a stabilize under a step-capped budget: the cap
     preempts it before its 65th step, and the next slice resumes there *)
  let rec settle_in_slices n =
    match
      Engine.with_budget eng (Engine.Budget.create ~max_steps:64 ()) (fun () ->
          Engine.stabilize eng)
    with
    | () -> n
    | exception Engine.Cancelled _ -> settle_in_slices (n + 1)
  in
  Fmt.pr "@.200 inserts settled eagerly in %d preemptable slices of at most \
          64 steps@."
    (settle_in_slices 1);
  (* the eager slices maintained size and height; the balance method is
     demand-evaluated (it must be — see Trees.Avl), so its work happens
     at the next query… *)
  Engine.reset_stats eng;
  let n = Ostat.size board in
  Fmt.pr "  deferred demand rebalancing at the next query: %d re-executions@."
    (Engine.stats eng).Engine.executions;
  (* …after which queries are pure tree walks over cached attributes *)
  Engine.reset_stats eng;
  let top_score = Ostat.select board (n - 1) in
  let query_work = (Engine.stats eng).Engine.executions in
  Fmt.pr "  top score now:     %d (%d re-executions: rotation echoes)@."
    top_score query_work;
  Engine.reset_stats eng;
  let below = Ostat.rank board 50_000 in
  Fmt.pr "  rank of 50000:     %d (%d re-executions: quiescent)@." below
    (Engine.stats eng).Engine.executions;

  (* the §10 parallelism view of the final dependency graph *)
  let p = Alphonse.Inspect.parallel_profile eng in
  Fmt.pr "@.Dependency graph parallelism (paper §10):@.";
  Fmt.pr "  %d instances, critical path %d, max level width %d@."
    p.Alphonse.Inspect.total_instances p.Alphonse.Inspect.critical_path
    p.Alphonse.Inspect.max_width;
  Fmt.pr "  re-establishment could use up to %.0f-way parallelism.@."
    p.Alphonse.Inspect.speedup_bound
