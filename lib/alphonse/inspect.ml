(** Introspection over a live engine: statistics pretty-printing and
    Graphviz export of the dependency graph. The paper notes (§10) that
    "the dynamic dependence information gathered by Alphonse can also be
    used for additional advantage, such as in debugging"; this module is
    that debugging view. *)

let pp_stats ppf (s : Engine.stats) =
  Fmt.pf ppf
    "@[<v>executions:     %d (first: %d, re: %d)@,\
     cache hits:     %d@,\
     settle steps:   %d@,\
     queue pushes:   %d@,\
     unions:         %d@,\
     out-of-order:   %d (fixups: %d)@,\
     evictions:      %d@]"
    s.executions s.first_executions
    (s.executions - s.first_executions)
    s.cache_hits s.settle_steps s.queue_pushes s.unions s.out_of_order_edges
    s.order_fixups s.evictions;
  (* the recovery counters only appear once something went wrong *)
  if s.failures + s.retries + s.poisonings + s.rollbacks + s.degradations > 0
  then
    Fmt.pf ppf
      "@,@[<v>failures:       %d (retries: %d, poisoned: %d)@,\
       rollbacks:      %d@,\
       degradations:   %d@]"
      s.failures s.retries s.poisonings s.rollbacks s.degradations;
  if s.audits > 0 then Fmt.pf ppf "@,audits:         %d" s.audits

let pp_graph_stats ppf (g : Depgraph.Graph.stats) =
  Fmt.pf ppf
    "@[<v>nodes:          %d live / %d total@,\
     edges:          %d live / %d total (%d removed)@,\
     order relabels: %d@]"
    g.live_nodes g.total_nodes g.live_edges g.total_edges g.removed_edges
    g.order_relabels

(** Parallel-execution profile (§10: the dependency information "can also
    be used for … scheduling parallel execution"): the topological level
    sets of the current dependency graph. Instances in the same level
    have no dependencies between them and could re-execute concurrently;
    the number of levels is the critical path, and total/critical is the
    available speedup bound. Cycles (possible in user programs, e.g.
    circular spreadsheets) contribute no extra depth. *)
type parallel_profile = {
  level_widths : int list;  (** instances per level, level 0 first *)
  critical_path : int;  (** number of levels *)
  total_instances : int;
  max_width : int;
  speedup_bound : float;  (** total / critical path *)
}

let parallel_profile eng =
  let levels : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let in_progress : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  (* Only instances contribute depth. A storage node itself is free, but
     it is NOT transparent: an instance that reads a cell must level
     below the cell's writers — every dependency edge points from the
     cell to its consumers (readers and writers alike), so the writer
     is invisible to a pred walk and has to be consulted explicitly via
     [Engine.iter_node_writers]. A pred-only rule would place a
     maintained write-then-read chain's writer and reader on one level,
     overstating the E15 speedup bound (the reader cannot start until
     the writer commits). The reading instance excludes itself: a
     maintained writer that reads back its own cell must not
     self-deepen. *)
  let rec level n =
    let id = Engine.node_id n in
    match Hashtbl.find_opt levels id with
    | Some l -> l
    | None ->
      if Hashtbl.mem in_progress id then 0 (* cycle: cut here *)
      else begin
        Hashtbl.replace in_progress id ();
        let deepest = ref 0 in
        Engine.iter_node_pred
          (fun m ->
            deepest := max !deepest (level m);
            if Engine.node_kind m = `Storage then
              Engine.iter_node_writers
                (fun w ->
                  if Engine.node_id w <> id then
                    deepest := max !deepest (level w))
                m)
          n;
        Hashtbl.remove in_progress id;
        let l =
          !deepest + (match Engine.node_kind n with `Instance -> 1 | `Storage -> 0)
        in
        Hashtbl.replace levels id l;
        l
      end
  in
  let width : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let total = ref 0 in
  Engine.iter_nodes eng (fun n ->
      if Engine.node_kind n = `Instance then begin
        incr total;
        (* [level] returns 0 for an instance on a cycle cut (its own level
           is still being computed when revisited); clamp so the width
           table never sees level -1 *)
        let l = max 0 (level n - 1) in
        Hashtbl.replace width l (1 + Option.value ~default:0 (Hashtbl.find_opt width l))
      end);
  let depth = Hashtbl.fold (fun l _ acc -> max acc (l + 1)) width 0 in
  let level_widths =
    List.init depth (fun l -> Option.value ~default:0 (Hashtbl.find_opt width l))
  in
  let max_width = List.fold_left max 0 level_widths in
  {
    level_widths;
    critical_path = depth;
    total_instances = !total;
    max_width;
    speedup_bound =
      (if depth = 0 then 1.
       else float_of_int !total /. float_of_int depth);
  }

let pp_parallel_profile ppf p =
  Fmt.pf ppf
    "@[<v>instances:     %d@,\
     critical path: %d level(s)@,\
     max width:     %d@,\
     speedup bound: %.1fx@,\
     widths:        %a@]"
    p.total_instances p.critical_path p.max_width p.speedup_bound
    Fmt.(list ~sep:(any " ") int)
    p.level_widths

let dot_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(** Render the dependency graph in Graphviz DOT syntax. Storage nodes are
    boxes, instance nodes are ellipses; inconsistent nodes are shaded.

    [heat] is the "hot nodes" profile overlay: a map from node id to a
    0–1 heat value (typically self time relative to the hottest
    instance, see {!heat_of_profile}). Hot nodes are filled on a
    white→red ramp and labeled with their share. *)
let to_dot ?(show_storage = true) ?heat eng =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph alphonse {\n  rankdir=BT;\n";
  (* Node identities are {!Engine.stable_id}s: on an engine restored by
     [Durable], arena slot indices are assigned in import order and need
     not match the exporting engine's, but the stable id is the snapshot
     id — so a DOT render, a heat overlay keyed by telemetry profiles
     (which record stable ids), and a provenance query all name the same
     node before and after a restore. *)
  Engine.iter_nodes eng (fun n ->
      let keep = show_storage || Engine.node_kind n = `Instance in
      if keep then begin
        let sid = Engine.stable_id eng n in
        let shape =
          match Engine.node_kind n with
          | `Storage -> "box"
          | `Instance -> "ellipse"
        in
        let heat_val =
          match heat with
          | None -> None
          | Some f -> (
            match f sid with
            | Some h -> Some (Float.min 1. (Float.max 0. h))
            | None -> None)
        in
        let fill, heat_label =
          match heat_val with
          | Some h ->
            (* HSV: hue 0 (red), saturation = heat — white when cold *)
            ( Fmt.str ", style=filled, fillcolor=\"0.0 %.3f 1.0\"" h,
              Fmt.str "\\n%.0f%%" (100. *. h) )
          | None ->
            ((if Engine.node_dirty n then ", style=filled" else ""), "")
        in
        Buffer.add_string buf
          (Fmt.str "  n%d [label=\"%s#%d%s\", shape=%s%s];\n" sid
             (dot_escape (Engine.node_name n))
             sid heat_label shape fill)
      end);
  Engine.iter_nodes eng (fun n ->
      let keep = show_storage || Engine.node_kind n = `Instance in
      if keep then
        Engine.iter_node_succ
          (fun m ->
            if show_storage || Engine.node_kind m = `Instance then
              Buffer.add_string buf
                (Fmt.str "  n%d -> n%d;\n"
                   (Engine.stable_id eng n)
                   (Engine.stable_id eng m)))
          n);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Telemetry conveniences (the engine-side halves live in Telemetry)   *)
(* ------------------------------------------------------------------ *)

(** Heat function for {!to_dot}: each profiled instance's self time as a
    fraction of the hottest instance's. *)
let heat_of_profile (profiles : Telemetry.instance_profile list) =
  let hottest =
    List.fold_left
      (fun m (p : Telemetry.instance_profile) -> Float.max m p.self_time)
      0. profiles
  in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (p : Telemetry.instance_profile) ->
      (* nodes that never executed (storage cells that were only marked)
         carry no heat at all rather than a 0% label *)
      if hottest > 0. && p.executions > 0 then
        Hashtbl.replace tbl p.id (p.self_time /. hottest))
    profiles;
  fun id -> Hashtbl.find_opt tbl id

(** Settle-latency quantiles of one instance profile: (p50, p90, p99)
    seconds, estimated from the decade-bucket latency histogram by the
    same geometric interpolation {!Metrics} uses for its exposition
    histograms ([Metrics.quantile] against [Telemetry.bucket_bounds]) —
    a scrape of [alphonse_settle_seconds] and [alphonsec profile]
    report the same numbers. [nan]s when the instance never completed a
    mark-to-execution cycle in the recorded window. *)
let latency_quantiles (p : Telemetry.instance_profile) =
  Metrics.quantiles ~counts:p.latency ~bounds:Telemetry.bucket_bounds

let pp_quantile ppf q =
  if Float.is_nan q then Fmt.string ppf "     -"
  else if q < 1e-3 then Fmt.pf ppf "%4.0fus" (q *. 1e6)
  else if q < 1. then Fmt.pf ppf "%4.1fms" (q *. 1e3)
  else Fmt.pf ppf "%5.2fs" q

(** The per-instance profile table: executions, re-executions, marks,
    self and total time, and estimated p50/p90/p99 settle latency (what
    [alphonsec profile --top] and [run --profile] print). *)
let pp_profile_quantiles ?top ppf (profiles : Telemetry.instance_profile list)
    =
  let profiles =
    match top with
    | Some n -> List.filteri (fun i _ -> i < n) profiles
    | None -> profiles
  in
  Fmt.pf ppf "@[<v>%-28s %6s %6s %6s %10s %10s %6s %6s %6s@,"
    "instance" "execs" "re-ex" "marks" "self" "total" "p50" "p90" "p99";
  List.iter
    (fun (p : Telemetry.instance_profile) ->
      let p50, p90, p99 = latency_quantiles p in
      Fmt.pf ppf "%-28s %6d %6d %6d %8.2fms %8.2fms %a %a %a@,"
        (Fmt.str "%s#%d" p.name p.id)
        p.executions p.re_executions p.marks (p.self_time *. 1e3)
        (p.total_time *. 1e3) pp_quantile p50 pp_quantile p90 pp_quantile p99)
    profiles;
  Fmt.pf ppf "@]"

(** [find_instance eng name] resolves an instance node by payload name
    (for provenance queries addressed by name from the CLI); when several
    instances share the name — e.g. every entry of one argument table —
    the most recently created (highest id) wins. *)
let find_instance eng name =
  let best = ref None in
  Engine.iter_nodes eng (fun n ->
      if Engine.node_kind n = `Instance && Engine.node_name n = name then
        match !best with
        | Some b when Engine.node_id b >= Engine.node_id n -> ()
        | _ -> best := Some n);
  !best

(** [why_recomputed eng name] is {!Telemetry.why_recomputed} addressed by
    instance name, against the engine's attached recorder. [None] when no
    recorder is attached, the name resolves to no instance, or the
    instance never executed inside the recorded window. The recorder is
    queried by {!Engine.stable_id}: telemetry events carry stable ids,
    so provenance still resolves on an engine restored by [Durable],
    where the live arena index of the instance differs from the id the
    events were recorded under. *)
let why_recomputed eng name =
  match Engine.telemetry eng with
  | None -> None
  | Some tm -> (
    match find_instance eng name with
    | None -> None
    | Some n -> Telemetry.why_recomputed tm ~id:(Engine.stable_id eng n))
