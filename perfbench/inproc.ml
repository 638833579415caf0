(* The closed-loop runner for the workloads that run the library in this
   process with one caller. A workload builds its state (timed as
   set-up), draws each operation's inputs outside the timed span, runs
   the operation inside it, and checks the operation's outputs against
   its oracle outside it again.

   The window is run in rounds of [round_ops] ops, each on a freshly
   built state, and every build is a set-up sample. Rounds of a few
   tenths of a second spread the set-up samples over the whole window
   (see [Measure.quiet_time]), and they make the per-op cost and the
   peak heap depend on the round length, not on how many ops the host
   managed in the run, also where the live heap grows with every op
   (see the gc.live_bytes_per_op prediction). The timed window is cut
   into slices of [slice_ns]. *)

open Measure
module Engine = Alphonse.Engine

type 'st t = {
  layers : string array;  (** layer spans [op] records, by index *)
  setup : Random.State.t -> 'st;  (** build + first full evaluation *)
  engine : 'st -> Engine.t;
  prepare : 'st -> Random.State.t -> unit;  (** draw the next op's inputs *)
  op : 'st -> Trace.t -> unit;  (** the timed operation *)
  check : 'st -> bool;  (** oracle on the last op's outputs *)
  final : 'st -> bool;  (** oracle on the whole state at the end *)
  aside : 'st -> Trace.t -> unit;
      (** traced-only layer calls made outside the op span *)
  round_ops : int;  (** ops before the state is rebuilt *)
  live_growth : bool;
      (** the prediction, recorded before measuring: does the live heap
          grow with every operation? *)
}

type config = { seed : int; seconds : float; traced : bool; smoke : bool }

(* A traced run alternates blocks of [block] untraced and traced ops, so
   that both modes see the same heap and host and their rates compare.
   Latency samples come from untraced ops only. *)
let block = 32
let slice_ns = 20_000_000

(* Slices kept as the run's quiet moments: 1% of a 30 s run. *)
let quiet_slices = 15

(* Totals over the run. *)
type acc = {
  samples : Samples.t;  (** the open slice's untraced latencies *)
  mutable setups : float list;
  mutable fills : float list;  (** [host_fill_ms], once per round *)
  (* per slice, untraced ops only *)
  quiet : Quiet.t;
  slice_means : Samples.t;  (** each slice's mean latency, in ns *)
  mutable rounds : int;
  mutable ops : int;
  mutable failed : int;
  mutable final_ok : bool;
  busy_ns : int array;  (** loop time outside the oracle, untraced/traced *)
  count : int array;  (** ops, untraced/traced *)
  (* counter deltas, summed over rounds *)
  mutable executions : int;
  mutable hits : int;
  mutable steps : int;
  mutable pushes : int;
  mutable out_of_order : int;
  mutable edges_added : int;
  mutable edges_removed : int;
  mutable relabels : int;
  mutable live_nodes_end : int;
  mutable live_words : int;
  mutable minor_words : float;
  mutable majors : int;
}

type slice = { busy0 : int; count0 : int; start : int }

let open_slice a =
  Samples.clear a.samples;
  { busy0 = a.busy_ns.(0); count0 = a.count.(0); start = now_ns () }

(* Records a slice's statistics; a last slice shorter than half the
   slice length is dropped, unless it is the only one. *)
let close_slice a s =
  let n = a.count.(0) - s.count0 in
  if n > 0 && (now_ns () - s.start >= slice_ns / 2 || a.quiet.Quiet.slices = 0) then begin
    Samples.add a.slice_means (int_of_float (1e3 *. Samples.mean_us a.samples));
    Quiet.offer a.quiet a.samples ~ops:n ~busy_ns:(a.busy_ns.(0) - s.busy0)
  end

let run_ops w st rng a ~off ~trace ~deadline =
  let i = ref 0 and slice = ref (open_slice a) in
  while !i < w.round_ops && now_ns () < deadline do
    let mode, tr =
      match trace with
      | Some tr when !i / block land 1 = 1 -> (1, tr)
      | _ -> (0, off)
    in
    let t_loop = now_ns () in
    w.prepare st rng;
    Trace.op_begin tr;
    let t0 = now_ns () in
    let raised =
      match w.op st tr with
      | () -> false
      | exception e ->
        prerr_endline ("op raised: " ^ Printexc.to_string e);
        true
    in
    let t1 = now_ns () in
    Trace.op_end tr;
    if mode = 0 then Samples.add a.samples (t1 - t0);
    a.busy_ns.(mode) <- a.busy_ns.(mode) + (t1 - t_loop);
    a.count.(mode) <- a.count.(mode) + 1;
    if raised || not (w.check st) then a.failed <- a.failed + 1;
    if mode = 1 then w.aside st tr;
    incr i;
    if now_ns () - !slice.start >= slice_ns then begin
      close_slice a !slice;
      slice := open_slice a
    end
  done;
  close_slice a !slice;
  a.ops <- a.ops + !i

let build w rng a =
  Gc.full_major ();
  let t0 = now_ns () in
  let st = w.setup rng in
  a.setups <- secs_of_ns (now_ns () - t0) :: a.setups;
  st

let round w rng a ~off ~trace ~deadline =
  a.fills <- host_fill_ms () :: a.fills;
  let st = build w rng a in
  let eng = w.engine st in
  (* live words are read in traced runs only: each reading is a full
     major collection *)
  let live_words () = if trace = None then 0 else live_words () in
  (* the growth of the benchmark's buffers, if any, is not the
     workload's *)
  let buffers () =
    Samples.capacity a.samples + Samples.capacity a.slice_means + Quiet.words a.quiet
  in
  let cap0 = buffers () in
  let live0 = live_words () in
  let gc0 = Gc.quick_stat () in
  let s0 = Engine.stats eng and g0 = Engine.graph_stats eng in
  run_ops w st rng a ~off ~trace ~deadline;
  let s1 = Engine.stats eng and g1 = Engine.graph_stats eng in
  let gc1 = Gc.quick_stat () in
  let live1 = live_words () - (buffers () - cap0) in
  a.final_ok <- a.final_ok && w.final st;
  a.rounds <- a.rounds + 1;
  let d f = f s1 - f s0 and gd f = f g1 - f g0 in
  a.executions <- a.executions + d (fun s -> s.Engine.executions);
  a.hits <- a.hits + d (fun s -> s.Engine.cache_hits);
  a.steps <- a.steps + d (fun s -> s.Engine.settle_steps);
  a.pushes <- a.pushes + d (fun s -> s.Engine.queue_pushes);
  a.out_of_order <- a.out_of_order + d (fun s -> s.Engine.out_of_order_edges);
  a.edges_added <- a.edges_added + gd (fun g -> g.Depgraph.Graph.total_edges);
  a.edges_removed <- a.edges_removed + gd (fun g -> g.Depgraph.Graph.removed_edges);
  a.relabels <- a.relabels + gd (fun g -> g.Depgraph.Graph.order_relabels);
  a.live_nodes_end <- g1.Depgraph.Graph.live_nodes;
  a.live_words <- a.live_words + (live1 - live0);
  a.minor_words <- a.minor_words +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
  a.majors <- a.majors + (gc1.Gc.major_collections - gc0.Gc.major_collections)

(* Ops per second of one mode (0 untraced, 1 traced). *)
let rate a mode =
  float_of_int a.count.(mode) /. secs_of_ns (max 1 a.busy_ns.(mode))

let run ~name w cfg =
  let rng = Random.State.make [| cfg.seed; Hashtbl.hash name |] in
  let probe0 = host_probe_ms () in
  let a =
    {
      samples = Samples.create ();
      setups = [];
      fills = [];
      quiet = Quiet.create quiet_slices;
      slice_means = Samples.create ();
      rounds = 0;
      ops = 0;
      failed = 0;
      final_ok = true;
      busy_ns = [| 0; 0 |];
      count = [| 0; 0 |];
      executions = 0;
      hits = 0;
      steps = 0;
      pushes = 0;
      out_of_order = 0;
      edges_added = 0;
      edges_removed = 0;
      relabels = 0;
      live_nodes_end = 0;
      live_words = 0;
      minor_words = 0.;
      majors = 0;
    }
  in
  let off = Trace.create ~enabled:false w.layers in
  let tr = Trace.create ~enabled:true w.layers in
  let trace = if cfg.traced then Some tr else None in
  let deadline = now_ns () + int_of_float (cfg.seconds *. 1e9) in
  while a.rounds = 0 || now_ns () < deadline do
    round w rng a ~off ~trace ~deadline
  done;
  (* read before the statistics below allocate *)
  let mem_peak_mb = top_heap_mb () in
  let probe1 = host_probe_ms () in
  let setups = List.rev a.setups in
  let per_op x = float_of_int x /. float_of_int a.ops in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  note "workload %s seed %d: %d ops in %d rounds, %d slices; %d set-ups (s): \
        min %.4f median %.4f max %.4f"
    name cfg.seed a.ops a.rounds a.quiet.Quiet.slices (List.length setups)
    (quantile setups 0.) (median setups) (quantile setups 1.);
  note "per-slice mean op latency (us): min %.1f median %.1f max %.1f; op p50 of the \
        %d quietest slices: %.1f"
    (Samples.percentile_us a.slice_means 0.) (Samples.percentile_us a.slice_means 0.5)
    (Samples.percentile_us a.slice_means 1.) a.quiet.Quiet.n (Quiet.percentile_us a.quiet 0.5);
  note "host_probe_ms start=%.3f end=%.3f (fixed integer loop); memory fill (ms) \
        min %.3f median %.3f max %.3f over %d rounds"
    probe0 probe1 (quantile a.fills 0.) (median a.fills) (quantile a.fills 1.)
    (List.length a.fills);
  let values =
    match trace with
    | None ->
      [
        ("setup_s", quiet_time setups);
        ("op_p50_us", Quiet.percentile_us a.quiet 0.5);
        ("op_p90_us", Quiet.percentile_us a.quiet 0.9);
        ("ops_per_s", Quiet.rate a.quiet);
        ("mem_peak_mb", mem_peak_mb);
      ]
    | Some tr ->
      let live_bytes_per_op = per_op (a.live_words * word_bytes) in
      note "trace: %d ops traced, op spans %d ns = layer self %d ns + bench self %d ns; \
            %d ops unreconciled"
        tr.Trace.ops tr.Trace.op_ns
        (tr.Trace.op_ns - tr.Trace.op_self_ns)
        tr.Trace.op_self_ns tr.Trace.unreconciled;
      note "prediction: gc.live_bytes_per_op %s; measured %.2f B/op: %s"
        (if w.live_growth then "well above 0 (>= 8)" else "about 0 (< 1)")
        live_bytes_per_op
        (if
           (w.live_growth && live_bytes_per_op >= 8.)
           || ((not w.live_growth) && Float.abs live_bytes_per_op < 1.)
         then "held"
         else "not held");
      note "trace overhead: untraced %.1f ops/s, traced %.1f ops/s \
            (alternating blocks of %d ops)"
        (rate a 0) (rate a 1) block;
      List.map (fun l -> (l ^ "_us", Trace.mean_us tr l)) (Array.to_list w.layers)
      @ [
          ("engine.executions_per_op", per_op a.executions);
          ("engine.settle_steps_per_op", per_op a.steps);
          ("engine.queue_pushes_per_op", per_op a.pushes);
          ("engine.out_of_order_edges_per_op", per_op a.out_of_order);
          ( "engine.cache_hit_ratio",
            if a.hits + a.executions = 0 then 0.
            else float_of_int a.hits /. float_of_int (a.hits + a.executions) );
          ("graph.edges_added_per_op", per_op a.edges_added);
          ("graph.edges_removed_per_op", per_op a.edges_removed);
          ("graph.order_relabels_per_op", per_op a.relabels);
          ("graph.live_nodes_end", float_of_int a.live_nodes_end);
          ("gc.live_bytes_per_op", live_bytes_per_op);
          ("gc.minor_words_per_op", a.minor_words /. float_of_int a.ops);
          ("gc.major_collections_per_kop", 1000. *. per_op a.majors);
          ("trace.overhead_ratio", rate a 0 /. rate a 1);
          ("trace.op_self_share", Trace.self_share tr);
          ("trace.unreconciled_ops", float_of_int tr.Trace.unreconciled);
          ("host.probe_ms", median [ probe0; probe1 ]);
        ]
  in
  {
    Report.correct = a.failed = 0 && a.final_ok && tr.Trace.unreconciled = 0;
    attempted = a.ops;
    failed = a.failed;
    values;
    notes = List.rev !notes;
  }
