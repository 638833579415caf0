(* The metric catalogue and the result line. Every run prints all the
   metrics of its mode: the end-to-end ones untraced, the per-layer ones
   traced. A layer the workload never calls reports 0. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("op_p50_us", "us");
    ("op_p90_us", "us");
    ("ops_per_s", "1/s");
    ("mem_peak_mb", "MB");
  ]

let per_layer =
  [
    (* Trees.Avl, per call *)
    ("avl.delete_us", "us");
    ("avl.insert_us", "us");
    ("avl.rebalance_us", "us");
    ("avl.mem_us", "us");
    (* Spreadsheet.Sheet / Formula, per call *)
    ("sheet.set_us", "us");
    ("sheet.propagating_read_us", "us");
    ("sheet.cached_read_us", "us");
    ("formula.parse_us", "us");
    (* Alphonse.Engine, from Engine.stats deltas *)
    ("engine.executions_per_op", "count");
    ("engine.settle_steps_per_op", "count");
    ("engine.queue_pushes_per_op", "count");
    ("engine.out_of_order_edges_per_op", "count");
    ("engine.cache_hit_ratio", "ratio");
    (* engine entry points, per call *)
    ("engine.stabilize_us", "us");
    ("var.set_us", "us");
    ("func.call_us", "us");
    (* Depgraph, from Engine.graph_stats deltas *)
    ("graph.edges_added_per_op", "count");
    ("graph.edges_removed_per_op", "count");
    ("graph.order_relabels_per_op", "count");
    ("graph.live_nodes_end", "count");
    (* OCaml GC *)
    ("gc.live_bytes_per_op", "B");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections_per_kop", "count");
    (* Alphonse.Json in the daemon client, per call *)
    ("json.encode_us", "us");
    ("json.decode_us", "us");
    (* the daemon, from its /metrics.json and /proc *)
    ("daemon.roundtrip_us", "us");
    ("daemon.batch_p50_us", "us");
    ("daemon.wire_overhead_us", "us");
    ("wal.appends_per_req", "count");
    ("wal.fsyncs_per_req", "count");
    ("wal.fsync_p50_us", "us");
    ("engine.settles_per_req", "count");
    ("daemon.shed_total", "count");
    ("daemon.rss_growth_kb_per_kop", "kB");
    ("daemon.ready_s", "s");
    ("daemon.seed_s", "s");
    (* the tracer itself, and the host *)
    ("trace.overhead_ratio", "ratio");
    ("trace.op_self_share", "ratio");
    ("trace.unreconciled_ops", "count");
    ("host.probe_ms", "ms");
  ]

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;  (** measured metrics, by name *)
  notes : string list;  (** human-readable lines printed above the result *)
}

let num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print ~traced r =
  let catalogue = if traced then per_layer else end_to_end in
  let value name = Option.value ~default:0. (List.assoc_opt name r.values) in
  List.iter print_endline r.notes;
  List.iter
    (fun (name, unit) -> Printf.printf "%-36s %14.4f %s\n" name (value name) unit)
    catalogue;
  Printf.printf "error_rate %.6f (%d failed of %d attempted)\n"
    (if r.attempted = 0 then 0.
     else float_of_int r.failed /. float_of_int r.attempted)
    r.failed r.attempted;
  let metrics =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (num (value name)) unit)
      catalogue
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed
    (String.concat ", " metrics)
