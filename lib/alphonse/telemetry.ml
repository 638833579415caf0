(* Structured engine telemetry (paper §10: "the dynamic dependence
   information gathered by Alphonse can also be used for additional
   advantage, such as in debugging").

   The engine emits one {!event} per interesting decision — node creation,
   inconsistency marks, execution begin/end, cache hits, settle pops, edge
   additions/removals, partition unions, evictions — into a recorder
   attached with [Engine.set_telemetry]. Recording is a bounded ring
   buffer (old events are overwritten, never an allocation storm) plus an
   optional streaming sink; with no recorder attached the engine pays a
   single predictable branch per site.

   On top of the raw stream live three consumers:
   - {!to_chrome_trace}: the Chrome trace-event JSON format, so a session
     opens in Perfetto / chrome://tracing as a propagation waterfall;
   - {!profile}: per-instance re-execution counts, cumulative self time
     and settle-latency histograms;
   - {!why_recomputed}: the causal chain from an externally mutated
     storage cell to a re-executed instance. *)

type event =
  | Storage_created of { id : int; name : string }
  | Instance_created of { id : int; name : string }
  | Marked of { id : int; name : string; cause : int option }
      (* [cause] is the node whose processing propagated the mark;
         [None] means an external write by the mutator *)
  | Exec_begin of { id : int; name : string; first : bool }
  | Exec_end of { id : int; name : string; changed : bool; ok : bool }
      (* [ok = false]: the body raised; the instance stays inconsistent *)
  | Cache_hit of { id : int; name : string }
  | Settle_pop of { id : int; name : string }
  | Edge_added of { src : int; dst : int }
      (* a new edge: a re-read of the pred at the cursor emits none *)
  | Preds_cut of { id : int; name : string; kept : int }
      (* a re-execution dropped its preds past the [kept] it re-read *)
  | Union of { a : int; b : int }
  | Evicted of { id : int; name : string }
  (* fault tolerance *)
  | Quarantined of { id : int; name : string; attempt : int; error : string }
      (* the execution raised; the instance awaits a bounded retry *)
  | Instance_poisoned of { id : int; name : string; error : string }
  | Retried of { id : int; name : string; attempt : int }
  | Txn_begin
  | Txn_commit of { marks : int }
  | Txn_rollback of { undone : int; remarked : int }
  | Budget_tripped of { reason : string }
      (* the armed budget cancelled the settle *)
  | Audit_run of { ok : bool; errors : int }
  | Fault_injected of { site : string }
  (* durability *)
  | Wal_rotated of { segment : int }
  | Snapshot_written of { file : string; bytes : int; nodes : int }
  | Recovery_started of { dir : string }
  | Recovery_finished of {
      snapshot : bool; (* a valid snapshot was used (vs full replay) *)
      replayed : int; (* journal entries applied *)
      dropped : int; (* entries lost to a torn/corrupt tail *)
      discarded_txns : int; (* uncommitted transaction groups dropped *)
      verified : bool; (* replayed write intents matched the journal *)
      degraded : bool; (* degrade_to_exhaustive was taken *)
    }

type record = { seq : int; at : float; ev : event }
(* [at] is seconds since the recorder was created ([Unix.gettimeofday]
   deltas — wall-clock, microsecond resolution). *)

type sink = record -> unit

type t = {
  ring : record option array;
  capacity : int;
  mutable next_seq : int; (* total events ever emitted *)
  mutable sink : sink option;
  mutable drop_source : Metrics.source option;
  t0 : float;
}

let default_capacity = 65_536

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Telemetry.create: capacity must be > 0";
  {
    ring = Array.make capacity None;
    capacity;
    next_seq = 0;
    sink = None;
    drop_source = None;
    t0 = Unix.gettimeofday ();
  }

let now t = Unix.gettimeofday () -. t.t0

(* Each emit into a full ring overwrites its oldest record: that is the
   bounded-buffer contract, but the loss must never be silent — it is
   counted here and, when a registry is attached, surfaced as a
   metric. *)
let dropped t = max 0 (t.next_seq - t.capacity)

let set_metrics t reg =
  Option.iter Metrics.release t.drop_source;
  t.drop_source <-
    Option.map
      (fun reg ->
        Metrics.source reg `Counter "telemetry_dropped_total"
          ~help:"events overwritten in the bounded telemetry ring" (fun () ->
            dropped t))
      reg

let emit t ev =
  let r = { seq = t.next_seq; at = now t; ev } in
  t.ring.(t.next_seq mod t.capacity) <- Some r;
  t.next_seq <- t.next_seq + 1;
  match t.sink with None -> () | Some f -> f r

let set_sink t sink = t.sink <- sink
let sink t = t.sink

let total_emitted t = t.next_seq
let capacity t = t.capacity

(* Oldest-first contents of the ring. *)
let events t =
  let n = min t.next_seq t.capacity in
  let first = t.next_seq - n in
  List.init n (fun i ->
      match t.ring.((first + i) mod t.capacity) with
      | Some r -> r
      | None -> assert false)

let iter t f = List.iter f (events t)

(* ------------------------------------------------------------------ *)
(* Event pretty-printing (streaming sinks, tests)                      *)
(* ------------------------------------------------------------------ *)

let pp_event ppf = function
  | Storage_created { id; name } -> Fmt.pf ppf "storage-created %s#%d" name id
  | Instance_created { id; name } ->
    Fmt.pf ppf "instance-created %s#%d" name id
  | Marked { id; name; cause } ->
    Fmt.pf ppf "marked %s#%d%a" name id
      Fmt.(option (fmt " (by #%d)"))
      cause
  | Exec_begin { id; name; first } ->
    Fmt.pf ppf "exec-begin %s#%d%s" name id (if first then " (first)" else "")
  | Exec_end { id; name; changed; ok } ->
    Fmt.pf ppf "exec-end %s#%d (%s)" name id
      (if not ok then "raised" else if changed then "changed" else "quiescent")
  | Cache_hit { id; name } -> Fmt.pf ppf "cache-hit %s#%d" name id
  | Settle_pop { id; name } -> Fmt.pf ppf "settle-pop %s#%d" name id
  | Edge_added { src; dst } -> Fmt.pf ppf "edge #%d -> #%d" src dst
  | Preds_cut { id; name; kept } ->
    Fmt.pf ppf "preds-cut %s#%d (kept %d)" name id kept
  | Union { a; b } -> Fmt.pf ppf "union #%d #%d" a b
  | Evicted { id; name } -> Fmt.pf ppf "evicted %s#%d" name id
  | Quarantined { id; name; attempt; error } ->
    Fmt.pf ppf "quarantined %s#%d (attempt %d: %s)" name id attempt error
  | Instance_poisoned { id; name; error } ->
    Fmt.pf ppf "poisoned %s#%d (%s)" name id error
  | Retried { id; name; attempt } ->
    Fmt.pf ppf "retried %s#%d (after %d failure(s))" name id attempt
  | Txn_begin -> Fmt.string ppf "txn-begin"
  | Txn_commit { marks } -> Fmt.pf ppf "txn-commit (%d marks)" marks
  | Txn_rollback { undone; remarked } ->
    Fmt.pf ppf "txn-rollback (%d undone, %d remarked)" undone remarked
  | Budget_tripped { reason } -> Fmt.pf ppf "budget tripped (%s)" reason
  | Audit_run { ok; errors } ->
    if ok then Fmt.string ppf "audit ok"
    else Fmt.pf ppf "audit FAILED (%d error(s))" errors
  | Fault_injected { site } -> Fmt.pf ppf "fault injected at %s" site
  | Wal_rotated { segment } -> Fmt.pf ppf "wal rotated to segment %d" segment
  | Snapshot_written { file; bytes; nodes } ->
    Fmt.pf ppf "snapshot written %s (%d bytes, %d nodes)" file bytes nodes
  | Recovery_started { dir } -> Fmt.pf ppf "recovery started (%s)" dir
  | Recovery_finished { snapshot; replayed; dropped; discarded_txns; verified; degraded } ->
    Fmt.pf ppf
      "recovery finished (snapshot=%b replayed=%d dropped=%d \
       discarded-txns=%d verified=%b degraded=%b)"
      snapshot replayed dropped discarded_txns verified degraded

let pp_record ppf r = Fmt.pf ppf "[%06d %.6fs] %a" r.seq r.at pp_event r.ev

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

(* The trace-event format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
   Executions become duration events (ph B/E) on one thread, so nested
   re-executions render as a flame; everything else becomes instant
   events (ph i) with the structured payload under "args". Timestamps
   are microseconds since recorder creation. *)

let us at = Json.Num (Float.round (at *. 1e6))

let trace_records ?(meta = []) records =
  let ev r =
    let common ph name cat args =
      Json.Obj
        ([
           ("name", Json.Str name);
           ("cat", Json.Str cat);
           ("ph", Json.Str ph);
           ("ts", us r.at);
           ("pid", Json.Num 1.);
           ("tid", Json.Num 1.);
         ]
        @
        match args with
        | [] -> []
        | args -> [ ("args", Json.Obj args) ])
    in
    let instant name cat args =
      (* "s":"t" scopes the instant marker to its thread *)
      match common "i" name cat args with
      | Json.Obj kvs -> Some (Json.Obj (kvs @ [ ("s", Json.Str "t") ]))
      | _ -> None
    in
    let node_args id = [ ("node", Json.Num (float_of_int id)) ] in
    match r.ev with
    | Exec_begin { id; name; first } ->
      Some
        (common "B" name "exec"
           (node_args id @ [ ("first", Json.Bool first) ]))
    | Exec_end { id; name; changed; ok } ->
      Some
        (common "E" name "exec"
           (node_args id
           @ [ ("changed", Json.Bool changed); ("ok", Json.Bool ok) ]))
    | Marked { id; name; cause } ->
      instant ("mark " ^ name) "propagate"
        (node_args id
        @
        match cause with
        | Some c -> [ ("cause", Json.Num (float_of_int c)) ]
        | None -> [ ("cause", Json.Str "external-write") ])
    | Settle_pop { id; name } ->
      instant ("settle " ^ name) "propagate" (node_args id)
    | Cache_hit { id; name } ->
      instant ("hit " ^ name) "cache" (node_args id)
    | Storage_created { id; name } ->
      instant ("new-storage " ^ name) "graph" (node_args id)
    | Instance_created { id; name } ->
      instant ("new-instance " ^ name) "graph" (node_args id)
    | Edge_added { src; dst } ->
      instant "edge" "graph"
        [
          ("src", Json.Num (float_of_int src));
          ("dst", Json.Num (float_of_int dst));
        ]
    | Preds_cut { id; name; kept } ->
      instant ("cut-preds " ^ name) "graph"
        (node_args id @ [ ("kept", Json.Num (float_of_int kept)) ])
    | Union { a; b } ->
      instant "union" "partition"
        [
          ("a", Json.Num (float_of_int a)); ("b", Json.Num (float_of_int b));
        ]
    | Evicted { id; name } -> instant ("evict " ^ name) "cache" (node_args id)
    | Quarantined { id; name; attempt; error } ->
      instant ("quarantine " ^ name) "fault"
        (node_args id
        @ [
            ("attempt", Json.Num (float_of_int attempt));
            ("error", Json.Str error);
          ])
    | Instance_poisoned { id; name; error } ->
      instant ("poison " ^ name) "fault"
        (node_args id @ [ ("error", Json.Str error) ])
    | Retried { id; name; attempt } ->
      instant ("retry " ^ name) "fault"
        (node_args id @ [ ("attempt", Json.Num (float_of_int attempt)) ])
    | Txn_begin -> instant "txn-begin" "txn" []
    | Txn_commit { marks } ->
      instant "txn-commit" "txn" [ ("marks", Json.Num (float_of_int marks)) ]
    | Txn_rollback { undone; remarked } ->
      instant "txn-rollback" "txn"
        [
          ("undone", Json.Num (float_of_int undone));
          ("remarked", Json.Num (float_of_int remarked));
        ]
    | Budget_tripped { reason } ->
      instant "budget-tripped" "fault" [ ("reason", Json.Str reason) ]
    | Audit_run { ok; errors } ->
      instant "audit" "audit"
        [ ("ok", Json.Bool ok); ("errors", Json.Num (float_of_int errors)) ]
    | Fault_injected { site } ->
      instant "fault" "fault" [ ("site", Json.Str site) ]
    | Wal_rotated { segment } ->
      instant "wal-rotate" "durable"
        [ ("segment", Json.Num (float_of_int segment)) ]
    | Snapshot_written { file; bytes; nodes } ->
      instant "snapshot" "durable"
        [
          ("file", Json.Str file);
          ("bytes", Json.Num (float_of_int bytes));
          ("nodes", Json.Num (float_of_int nodes));
        ]
    | Recovery_started { dir } ->
      instant "recovery-start" "durable" [ ("dir", Json.Str dir) ]
    | Recovery_finished
        { snapshot; replayed; dropped; discarded_txns; verified; degraded } ->
      instant "recovery-end" "durable"
        [
          ("snapshot", Json.Bool snapshot);
          ("replayed", Json.Num (float_of_int replayed));
          ("dropped", Json.Num (float_of_int dropped));
          ("discarded_txns", Json.Num (float_of_int discarded_txns));
          ("verified", Json.Bool verified);
          ("degraded", Json.Bool degraded);
        ]
  in
  (* A truncated ring can start mid-execution: drop unmatched E events
     (and close unmatched Bs) so the trace stays well nested. *)
  let depth = ref 0 in
  let out = ref [] in
  List.iter
    (fun r ->
      match r.ev with
      | Exec_end _ when !depth = 0 -> ()
      | _ ->
        (match r.ev with
        | Exec_begin _ -> incr depth
        | Exec_end _ -> decr depth
        | _ -> ());
        (match ev r with Some j -> out := j :: !out | None -> ()))
    records;
  let closing =
    (* close any executions still open when the recorder was read *)
    List.init !depth (fun _ ->
        Json.Obj
          [
            ("name", Json.Str "(open)");
            ("cat", Json.Str "exec");
            ("ph", Json.Str "E");
            ( "ts",
              us (match records with [] -> 0. | r -> (List.rev r |> List.hd).at)
            );
            ("pid", Json.Num 1.);
            ("tid", Json.Num 1.);
          ])
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.rev_append !out closing));
      ("displayTimeUnit", Json.Str "ms");
      ( "otherData",
        Json.Obj (("producer", Json.Str "alphonse-telemetry/1") :: meta) );
    ]

(* The export declares its own incompleteness: a ring that overwrote
   events says so in [otherData] rather than presenting the surviving
   window as the whole session. *)
let to_chrome_trace t =
  let meta =
    [
      ("droppedEvents", Json.Num (float_of_int (dropped t)));
      ("totalEmitted", Json.Num (float_of_int (total_emitted t)));
      ("ringCapacity", Json.Num (float_of_int t.capacity));
    ]
  in
  Json.to_string (trace_records ~meta (events t))

(* ------------------------------------------------------------------ *)
(* Per-instance profiles                                               *)
(* ------------------------------------------------------------------ *)

(* Settle latency — the delay between a node being marked inconsistent
   and its next (re-)execution — bucketed by decade. *)
let latency_buckets = 7

(* upper bounds of the buckets, [Metrics.quantile] convention:
   counts.(i) holds the latencies below bucket_bounds.(i) *)
let bucket_bounds = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; infinity |]

let bucket_of_latency l =
  let rec go b threshold =
    if b >= latency_buckets - 1 then latency_buckets - 1
    else if l < threshold then b
    else go (b + 1) (threshold *. 10.)
  in
  go 0 1e-6

type instance_profile = {
  id : int;
  name : string;
  executions : int;
  re_executions : int;
  total_time : float;  (** cumulative wall time inside the body *)
  self_time : float;  (** [total_time] minus nested executions *)
  marks : int;
  cache_hits : int;
  latency : int array;  (** settle-latency histogram, [bucket_bounds] *)
}

let profile t =
  let tbl : (int, instance_profile ref) Hashtbl.t = Hashtbl.create 64 in
  let get id name =
    match Hashtbl.find_opt tbl id with
    | Some p -> p
    | None ->
      let p =
        ref
          {
            id;
            name;
            executions = 0;
            re_executions = 0;
            total_time = 0.;
            self_time = 0.;
            marks = 0;
            cache_hits = 0;
            latency = Array.make latency_buckets 0;
          }
      in
      Hashtbl.replace tbl id p;
      p
  in
  (* stack of open executions: (id, start, child time accumulated) *)
  let stack = ref [] in
  (* pending marks awaiting their execution, for latency *)
  let marked_at : (int, float) Hashtbl.t = Hashtbl.create 64 in
  iter t (fun r ->
      match r.ev with
      | Marked { id; name; _ } ->
        let p = get id name in
        p := { !p with marks = !p.marks + 1 };
        if not (Hashtbl.mem marked_at id) then
          Hashtbl.replace marked_at id r.at
      | Cache_hit { id; name } ->
        let p = get id name in
        p := { !p with cache_hits = !p.cache_hits + 1 }
      | Exec_begin { id; name; _ } ->
        (match Hashtbl.find_opt marked_at id with
        | Some t_mark ->
          Hashtbl.remove marked_at id;
          let p = get id name in
          !p.latency.(bucket_of_latency (r.at -. t_mark)) <-
            !p.latency.(bucket_of_latency (r.at -. t_mark)) + 1
        | None -> ());
        stack := (id, r.at, ref 0.) :: !stack
      | Exec_end { id; name; _ } -> (
        match !stack with
        | (sid, t_begin, children) :: rest when sid = id ->
          stack := rest;
          let dur = r.at -. t_begin in
          (match rest with
          | (_, _, parent_children) :: _ ->
            parent_children := !parent_children +. dur
          | [] -> ());
          let p = get id name in
          p :=
            {
              !p with
              executions = !p.executions + 1;
              total_time = !p.total_time +. dur;
              self_time = !p.self_time +. Float.max 0. (dur -. !children);
            }
        | _ -> () (* unmatched end: the begin was overwritten in the ring *))
      | _ -> ());
  let first_execs : (int, int) Hashtbl.t = Hashtbl.create 64 in
  iter t (fun r ->
      match r.ev with
      | Exec_begin { id; first = true; _ } ->
        Hashtbl.replace first_execs id 1
      | _ -> ());
  Hashtbl.fold
    (fun id p acc ->
      let firsts = if Hashtbl.mem first_execs id then 1 else 0 in
      { !p with re_executions = max 0 (!p.executions - firsts) } :: acc)
    tbl []
  |> List.sort (fun a b ->
         match compare b.self_time a.self_time with
         | 0 -> compare a.id b.id
         | c -> c)

(* ------------------------------------------------------------------ *)
(* Provenance: why did this instance re-execute?                       *)
(* ------------------------------------------------------------------ *)

type why_step = {
  step_id : int;
  step_name : string;
  step_at : float;
  step_role : [ `Written | `Marked_by of int | `Executed ];
}

type why = why_step list
(* Oldest-first: the external write, the chain of marks it propagated,
   and finally the re-execution it explains. *)

(* Find the last execution of [id] in the recorded window, then follow
   the [cause] fields of the Marked events backwards to the external
   write that started the propagation. *)
let why_recomputed t ~id =
  let evs = Array.of_list (events t) in
  let n = Array.length evs in
  let rec find_last i pred = if i < 0 then None else if pred evs.(i) then Some i else find_last (i - 1) pred in
  let exec_of r = match r.ev with Exec_begin e when e.id = id -> true | _ -> false in
  match find_last (n - 1) exec_of with
  | None -> None
  | Some exec_idx ->
    let exec_name =
      match evs.(exec_idx).ev with Exec_begin e -> e.name | _ -> assert false
    in
    let exec_step =
      {
        step_id = id;
        step_name = exec_name;
        step_at = evs.(exec_idx).at;
        step_role = `Executed;
      }
    in
    (* walk mark causes backwards; [visited] guards against mark cycles
       in a truncated window *)
    let visited = Hashtbl.create 8 in
    let rec chain acc node idx =
      let mark_of r =
        match r.ev with Marked m when m.id = node -> true | _ -> false
      in
      match find_last idx mark_of with
      | None -> acc (* first execution, or the mark fell out of the ring *)
      | Some mark_idx -> (
        match evs.(mark_idx).ev with
        | Marked { id = mid; name = mname; cause } -> (
          let step cause_role =
            {
              step_id = mid;
              step_name = mname;
              step_at = evs.(mark_idx).at;
              step_role = cause_role;
            }
          in
          match cause with
          | None -> step `Written :: acc
          | Some c ->
            if Hashtbl.mem visited c then step (`Marked_by c) :: acc
            else begin
              Hashtbl.replace visited c ();
              chain (step (`Marked_by c) :: acc) c (mark_idx - 1)
            end)
        | _ -> assert false)
    in
    Some (chain [ exec_step ] id (exec_idx - 1))

let pp_why ppf (steps : why) =
  Fmt.pf ppf "@[<v>";
  List.iteri
    (fun i s ->
      let arrow = if i = 0 then "" else "-> " in
      match s.step_role with
      | `Written ->
        Fmt.pf ppf "%s%s#%d written (t=%.6fs)@," arrow s.step_name s.step_id
          s.step_at
      | `Marked_by c ->
        Fmt.pf ppf "%smarked %s#%d inconsistent (by #%d, t=%.6fs)@," arrow
          s.step_name s.step_id c s.step_at
      | `Executed ->
        Fmt.pf ppf "%sre-executed %s#%d (t=%.6fs)@," arrow s.step_name
          s.step_id s.step_at)
    steps;
  Fmt.pf ppf "@]"
