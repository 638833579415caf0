(* Durable engine state: checksummed snapshots + write-ahead journal +
   crash recovery with verified replay.

   Layout of a state directory:

     wal-%08d.log     journal segments ([Wal] framing)
     snap-%08d.json   snapshots; the index is the journal segment at
                      which replay after this snapshot starts

   A snapshot file is one header line ["alphonse-snap/1 <crc32-hex>"]
   followed by a JSON body — {schema, wal_from, engine, domain} — whose
   CRC the header guards. Snapshots are written to a temp file, fsynced
   and renamed into place, so a crash mid-snapshot leaves at worst a
   stray [.tmp] that recovery never reads.

   What is journaled (all as [Wal] frames):

     {"k":"op","d":D}   a domain mutation D ([journal_op], appended by
                        the domain layer BEFORE applying the mutation)
     {"k":"w","n":N}    an engine write intent: tracked node N changed
                        (from [Engine.set_journal], appended before the
                        inconsistency mark)
     {"k":"tb"|"tc"|"ta"}  transaction begin / commit / abort

   Replay applies committed units — a standalone op, or the ops of a
   [tb]…[tc] group; groups without a commit marker are discarded — via
   the domain's [p_apply], settling after each unit. The "w" intents
   are not replayed; they are the verification record: recovery
   re-captures the intents its own replay provokes and checks that the
   journaled sequence is a prefix of it (a crash can truncate the
   record, never reorder it). A mismatch means the replay diverged
   from the original run — recovery then degrades to exhaustive
   recomputation rather than trusting any incremental state.

   Recovery state machine (see docs/INTERNALS.md):

     newest snapshot → CRC + parse + domain load ok? ── no ─→ next
         │ yes                                         (none left:
         ├ Engine.import (best effort, by node name)    full replay
         ▼                                              from segment 0)
     replay committed units from snapshot.wal_from, verifying intents
         ▼
     Engine.audit_errors
         ▼
     any snapshot rejected / verification miss / audit error /
     mid-journal corruption  →  Engine.degrade_to_exhaustive
     (correct answers by recomputation — never a wrong value). *)

type persistable = {
  p_save : unit -> Json.t;
      (* the full domain state, enough for [p_load] to rebuild it *)
  p_load : Json.t -> unit;
      (* rebuild domain structure in a fresh domain (no journaling) *)
  p_apply : Json.t -> unit;
      (* re-apply one journaled mutation (the "d" of an "op" entry) *)
}

type outcome = {
  o_dir : string;
  o_snapshot : string option;  (* snapshot file restored from *)
  o_rejected : (string * string) list;  (* snapshot file, rejection reason *)
  o_matched : int;  (* engine nodes restored by import *)
  o_replayed : int;  (* committed ops applied *)
  o_discarded : int;  (* journal entries dropped (uncommitted txns) *)
  o_discarded_txns : int;  (* uncommitted transaction groups dropped *)
  o_verified : bool;
  o_degraded : bool;
  o_warnings : string list;
}

type t = {
  dir : string;
  eng : Engine.t;
  p : persistable;
  wal : Wal.t;
  mutable in_txn : bool;
  mutable detached : bool;
  mutable kill_hook : (string -> unit) option;
}

let kill_sites =
  Wal.kill_sites @ [ "snap-begin"; "snap-torn"; "snap-rename"; "snap-prune" ]

let poke s site = match s.kill_hook with None -> () | Some h -> h site

let emit eng ev =
  match Engine.telemetry eng with
  | None -> ()
  | Some tm -> Telemetry.emit tm ev

(* ------------------------------------------------------------------ *)
(* Journal entries                                                     *)
(* ------------------------------------------------------------------ *)

let e_op d = Json.Obj [ ("k", Json.Str "op"); ("d", d) ]
let e_w name = Json.Obj [ ("k", Json.Str "w"); ("n", Json.Str name) ]
let e_txn = function
  | `Begin -> Json.Obj [ ("k", Json.Str "tb") ]
  | `Commit -> Json.Obj [ ("k", Json.Str "tc") ]
  | `Abort -> Json.Obj [ ("k", Json.Str "ta") ]

let entry_kind j =
  match Option.bind (Json.member "k" j) Json.to_str with
  | Some "op" -> `Op (Option.value (Json.member "d" j) ~default:Json.Null)
  | Some "w" -> (
    match Option.bind (Json.member "n" j) Json.to_str with
    | Some n -> `W n
    | None -> `Unknown)
  | Some "tb" -> `Tb
  | Some "tc" -> `Tc
  | Some "ta" -> `Ta
  | _ -> `Unknown

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

let attach ?(policy = Wal.Commit) ?segment_limit ~dir eng p =
  if Engine.journal eng <> None then
    invalid_arg "Durable.attach: engine already has a journal";
  let wal = Wal.open_ ~policy ?segment_limit dir in
  let s =
    {
      dir;
      eng;
      p;
      wal;
      in_txn = false;
      detached = false;
      kill_hook = None;
    }
  in
  Wal.set_on_rotate wal
    (Some (fun segment -> emit eng (Telemetry.Wal_rotated { segment })));
  Wal.set_metrics wal (Engine.metrics eng);
  Engine.set_journal eng
    (Some
       {
         Engine.on_write = (fun ~name ~id:_ -> Wal.append wal (e_w name));
         on_txn =
           (fun ev ->
             (match ev with
             | `Begin -> s.in_txn <- true
             | `Commit | `Abort -> s.in_txn <- false);
             (* the commit marker is the durability point of the batch *)
             Wal.append ~sync:(ev = `Commit) wal (e_txn ev));
       });
  s

let journal_op s d =
  if s.detached then invalid_arg "Durable.journal_op: detached";
  (* a standalone op is its own commit boundary; inside a transaction
     the sync belongs to the commit marker *)
  Wal.append ~sync:(not s.in_txn) s.wal (e_op d)

let wal s = s.wal
let dir s = s.dir

let set_kill_hook s h =
  s.kill_hook <- h;
  Wal.set_kill_hook s.wal h

let detach s =
  if not s.detached then begin
    s.detached <- true;
    Engine.set_journal s.eng None;
    (* never writes new bytes: safe even after a simulated crash *)
    Wal.close s.wal
  end

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

let snapshot_magic = "alphonse-snap/1"
let snapshot_name i = Printf.sprintf "snap-%08d.json" i

let snapshot_index name =
  match Scanf.sscanf_opt name "snap-%8d.json%!" (fun i -> i) with
  | Some i when snapshot_name i = name -> Some i
  | _ -> None

let snapshots dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun n ->
           match snapshot_index n with
           | Some i -> Some (i, Filename.concat dir n)
           | None -> None)
    |> List.sort compare

let fsync_out oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

let count_nodes eng =
  let n = ref 0 in
  Engine.iter_nodes eng (fun _ -> incr n);
  !n

(* Snapshot / recovery timings resolve their cells per call: both are
   rare (checkpoint cadence, process start), so the registry lookup cost
   is irrelevant, and recovery may run before any engine work exists. *)
let observe_duration eng name ~help t0 =
  match Engine.metrics eng with
  | None -> ()
  | Some reg -> Metrics.observe_since (Metrics.histogram reg name ~help) t0

let write_snapshot s ~wal_from =
  let t0 =
    match Engine.metrics s.eng with None -> 0. | Some _ -> Metrics.now ()
  in
  poke s "snap-begin";
  let body =
    Json.to_string
      (Json.Obj
         [
           ("schema", Json.Str "alphonse-durable/1");
           ("wal_from", Json.Num (float_of_int wal_from));
           ("engine", Engine.export s.eng);
           ("domain", s.p.p_save ());
         ])
  in
  let content =
    Printf.sprintf "%s %08x\n%s" snapshot_magic (Wal.crc32 body) body
  in
  let final = Filename.concat s.dir (snapshot_name wal_from) in
  let tmp = final ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     (match s.kill_hook with
     | None -> output_string oc content
     | Some _ ->
       (* leave a half-written temp file if killed here — recovery must
          ignore [.tmp] strays *)
       let cut = String.length content / 2 in
       output_string oc (String.sub content 0 cut);
       flush oc;
       poke s "snap-torn";
       output_string oc
         (String.sub content cut (String.length content - cut)));
     fsync_out oc;
     close_out oc
   with e ->
     close_out_noerr oc;
     raise e);
  poke s "snap-rename";
  Sys.rename tmp final;
  emit s.eng
    (Telemetry.Snapshot_written
       {
         file = final;
         bytes = String.length content;
         nodes = count_nodes s.eng;
       });
  observe_duration s.eng "snapshot_seconds"
    ~help:"time to write, fsync and publish one snapshot" t0;
  final

(* Keep the newest [keep_snapshots] snapshots, and every journal
   segment from the oldest kept snapshot's cut onward — so recovery can
   always fall back one snapshot generation with full replay coverage. *)
let keep_snapshots = 2

let prune s =
  poke s "snap-prune";
  let snaps = snapshots s.dir in
  let keep =
    let rec last_n n l =
      if List.length l <= n then l else last_n n (List.tl l)
    in
    last_n keep_snapshots snaps
  in
  let keep_idx = List.map fst keep in
  List.iter
    (fun (i, path) -> if not (List.mem i keep_idx) then Sys.remove path)
    snaps;
  match keep_idx with
  | [] -> ()
  | oldest :: _ ->
    List.iter
      (fun (i, path) -> if i < oldest then Sys.remove path)
      (Wal.segments s.dir)

let checkpoint s =
  if s.detached then invalid_arg "Durable.checkpoint: detached";
  if s.in_txn then invalid_arg "Durable.checkpoint: inside a transaction";
  (* cut the journal first: everything after the cut replays on top of
     the snapshot written against the pre-cut state *)
  Wal.rotate s.wal;
  let wal_from = Wal.segment s.wal in
  let file = write_snapshot s ~wal_from in
  prune s;
  file

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let read_snapshot path =
  let content =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match String.index_opt content '\n' with
  | None -> Error "no header line"
  | Some nl -> (
    let header = String.sub content 0 nl in
    let body = String.sub content (nl + 1) (String.length content - nl - 1) in
    match Scanf.sscanf_opt header "alphonse-snap/1 %x%!" (fun c -> c) with
    | None -> Error "bad header"
    | Some crc ->
      if Wal.crc32 body <> crc then Error "crc mismatch"
      else (
        match Json.of_string_opt body with
        | None -> Error "unparsable body"
        | Some j -> (
          let wal_from =
            match Option.bind (Json.member "wal_from" j) Json.to_float with
            | Some f -> int_of_float f
            | None -> 0
          in
          match (Json.member "engine" j, Json.member "domain" j) with
          | Some ej, Some dj -> Ok (wal_from, ej, dj)
          | _ -> Error "missing engine or domain section")))

(* A committed unit: a standalone op or a tb…tc group. Each op carries
   the write intents journaled after it (its verification record). *)
type unit_group = { ops : (Json.t * string list) list }

let group_entries entries =
  let units = ref [] in
  let discarded = ref 0 in
  let discarded_txns = ref 0 in
  let orphans = ref 0 in
  (* currently-open standalone unit or txn buffer, ops newest-first,
     each op's intents newest-first *)
  let txn : (Json.t * string list) list option ref = ref None in
  let standalone : (Json.t * string list) list ref = ref [] in
  let close_standalone () =
    match !standalone with
    | [] -> ()
    | ops ->
      standalone := [];
      units :=
        { ops = List.rev_map (fun (op, ws) -> (op, List.rev ws)) ops }
        :: !units
  in
  let push_op buf op = buf := (op, []) :: !buf in
  let push_w buf n =
    match !buf with
    | (op, ws) :: rest -> buf := (op, n :: ws) :: rest
    | [] -> incr orphans
  in
  let abandon_txn () =
    match !txn with
    | None -> ()
    | Some ops ->
      txn := None;
      incr discarded_txns;
      discarded := !discarded + List.length ops
  in
  List.iter
    (fun j ->
      match entry_kind j with
      | `Op d -> (
        match !txn with
        | Some ops -> txn := Some ((d, []) :: ops)
        | None ->
          close_standalone ();
          push_op standalone d)
      | `W n -> (
        match !txn with
        | Some ((op, ws) :: rest) -> txn := Some ((op, n :: ws) :: rest)
        | Some [] -> incr orphans
        | None -> push_w standalone n)
      | `Tb ->
        close_standalone ();
        abandon_txn () (* nested/unterminated tb: malformed, drop it *);
        txn := Some []
      | `Tc -> (
        match !txn with
        | None -> incr orphans (* stray commit marker *)
        | Some ops ->
          txn := None;
          let ops = List.rev_map (fun (op, ws) -> (op, List.rev ws)) ops in
          units := { ops } :: !units)
      | `Ta -> abandon_txn ()
      | `Unknown -> incr discarded)
    entries;
  close_standalone ();
  abandon_txn ();
  (List.rev !units, !discarded, !discarded_txns, !orphans)

(* Verified replay compares the journaled write-intent names against the
   intents the replay itself provokes. The two runs do NOT track the same
   writes: dependency nodes materialize lazily on the first access made
   under an executing instance (Algorithm 3), so the original session's
   query history decides which writes were tracked — and journaled —
   there, while the replay's own (different) execution schedule decides
   which it captures. A name only one side tracked is unverifiable, not
   wrong. What determinism does guarantee is {e order agreement on the
   names both runs produced}: restricted to the captured alphabet, the
   journaled sequence must be a subsequence of the captured one. A
   divergent replay (different write order or target on a node both runs
   know) breaks that; lazy materialization never does. *)
let intents_agree ~journaled ~captured =
  let seen = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace seen n ()) captured;
  let journaled = List.filter (Hashtbl.mem seen) journaled in
  let rec subseq = function
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys ->
      if String.equal x y then subseq (xs, ys) else subseq (x :: xs, ys)
  in
  subseq (journaled, captured)

let recover ~dir eng p =
  if Engine.journal eng <> None then
    invalid_arg "Durable.recover: detach the engine's journal first";
  let t0 =
    match Engine.metrics eng with None -> 0. | Some _ -> Metrics.now ()
  in
  emit eng (Telemetry.Recovery_started { dir });
  let warnings = ref [] in
  let warn fmt = Printf.ksprintf (fun m -> warnings := m :: !warnings) fmt in
  let rejected = ref [] in
  (* 1. newest structurally-valid snapshot whose domain state loads *)
  let rec choose = function
    | [] -> None
    | (_, path) :: rest -> (
      match read_snapshot path with
      | Error reason ->
        rejected := (path, reason) :: !rejected;
        choose rest
      | Ok (wal_from, ej, dj) -> (
        match p.p_load dj with
        | () -> Some (path, wal_from, ej)
        | exception e ->
          rejected :=
            (path, "domain load failed: " ^ Printexc.to_string e)
            :: !rejected;
          choose rest))
  in
  let snapshot, wal_from, matched =
    match choose (List.rev (snapshots dir)) with
    | Some (path, wal_from, ej) ->
      let m, ws = Engine.import eng ej in
      List.iter (fun w -> warnings := w :: !warnings) ws;
      (Some path, wal_from, m)
    | None -> (None, 0, 0)
  in
  (* 2. read and group the journal *)
  let entries = ref [] in
  let _read, status =
    Wal.replay ~from_segment:wal_from dir (fun j -> entries := j :: !entries)
  in
  let units, discarded, discarded_txns, orphans =
    group_entries (List.rev !entries)
  in
  let mid_journal_corruption =
    match status with
    | Wal.Complete -> false
    | Wal.Torn b ->
      warn "journal %s at segment %d offset %d: %s"
        (if b.Wal.b_final_segment then "torn tail (crash signature)"
         else "CORRUPT MID-JOURNAL — later segments unread")
        b.Wal.b_segment b.Wal.b_offset b.Wal.b_reason;
      not b.Wal.b_final_segment
  in
  if orphans > 0 then
    warn "%d journal record(s) without a preceding op" orphans;
  (* 3. apply committed units, re-capturing write intents *)
  let captured = ref [] in
  let expected = ref [] in
  Engine.set_journal eng
    (Some
       {
         Engine.on_write = (fun ~name ~id:_ -> captured := name :: !captured);
         on_txn = (fun _ -> ());
       });
  let replayed = ref 0 in
  let apply_failed = ref false in
  Fun.protect
    ~finally:(fun () -> Engine.set_journal eng None)
    (fun () ->
      List.iter
        (fun { ops } ->
          List.iter
            (fun (op, ws) ->
              expected := List.rev_append ws !expected;
              match p.p_apply op with
              | () -> incr replayed
              | exception e ->
                apply_failed := true;
                warn "replay of %s failed: %s" (Json.to_string op)
                  (Printexc.to_string e))
            ops;
          (* settle per committed unit so eager propagation interleaves
             with ops the way the intent record expects *)
          try Engine.stabilize eng
          with e ->
            apply_failed := true;
            warn "settle during replay failed: %s" (Printexc.to_string e))
        units);
  let verified =
    (not !apply_failed)
    && orphans = 0
    && intents_agree ~journaled:(List.rev !expected)
         ~captured:(List.rev !captured)
  in
  (* 4. audit the recovered engine *)
  let audit_errs = Engine.audit_errors eng in
  List.iter (fun e -> warnings := ("audit: " ^ e) :: !warnings) audit_errs;
  (* 5. never serve corrupt state: any checksum rejection, verification
     miss, audit error or mid-journal break abandons incrementality —
     answers then recompute exhaustively from the replayed domain
     state, which is correct by construction *)
  let degraded =
    !rejected <> [] || (not verified) || audit_errs <> []
    || mid_journal_corruption
  in
  if degraded then Engine.degrade_to_exhaustive eng;
  emit eng
    (Telemetry.Recovery_finished
       {
         snapshot = snapshot <> None;
         replayed = !replayed;
         dropped = discarded;
         discarded_txns;
         verified;
         degraded;
       });
  (match Engine.metrics eng with
  | None -> ()
  | Some reg ->
    Metrics.inc
      (Metrics.counter reg "recoveries_total"
         ~labels:[ ("degraded", if degraded then "yes" else "no") ]
         ~help:"crash recoveries, by whether incrementality was abandoned");
    (* gauges describe the LAST recovery, for readiness probes *)
    let gauge n h v =
      Metrics.set (Metrics.gauge reg n ~help:h) (float_of_int v)
    in
    gauge "recovery_last_replayed" "committed ops applied by the last recovery"
      !replayed;
    gauge "recovery_last_discarded"
      "journal entries dropped by the last recovery (uncommitted txns)"
      discarded;
    gauge "recovery_last_degraded"
      "1 if the last recovery degraded to exhaustive recomputation"
      (if degraded then 1 else 0);
    observe_duration eng "recover_seconds"
      ~help:"end-to-end duration of crash recovery" t0);
  {
    o_dir = dir;
    o_snapshot = snapshot;
    o_rejected = List.rev !rejected;
    o_matched = matched;
    o_replayed = !replayed;
    o_discarded = discarded;
    o_discarded_txns = discarded_txns;
    o_verified = verified;
    o_degraded = degraded;
    o_warnings = List.rev !warnings;
  }

let pp_outcome ppf o =
  Fmt.pf ppf "recovery: snapshot=%s replayed=%d discarded=%d txns-discarded=%d verified=%s degraded=%s"
    (match o.o_snapshot with
    | Some f -> Filename.basename f
    | None -> "none")
    o.o_replayed o.o_discarded o.o_discarded_txns
    (if o.o_verified then "yes" else "no")
    (if o.o_degraded then "yes" else "no")
