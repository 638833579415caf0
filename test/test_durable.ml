(* The durability acceptance suite.

   The crash-kill sweep is the centerpiece: run each workload once under
   a counting hook to learn how many times the durability layer pokes
   its kill sites, then re-run it once per poke with a one-shot hook
   that dies at that exact byte-risking point. After every simulated
   crash the harness abandons ALL in-memory state, recovers from disk
   into a fresh engine + domain, and checks that the recovered state
   (a) passes the invariant auditor, (b) answers queries identically to
   the exhaustive oracle, and (c) is exactly the state after some prefix
   of the journaled mutations — a crash may lose a tail, never reorder
   or corrupt. Around the sweep: WAL framing/rotation/torn-tail unit
   tests and snapshot corruption drills (checksum rejection must fall
   back a generation, degrade, and still serve correct answers). *)

module Engine = Alphonse.Engine
module Var = Alphonse.Var
module Func = Alphonse.Func
module Faults = Alphonse.Faults
module Wal = Alphonse.Wal
module Durable = Alphonse.Durable
module Json = Alphonse.Json
module S = Spreadsheet.Sheet
module Avl = Trees.Avl
module Binary = Attrgram.Binary

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Scratch state directories (inside dune's sandbox cwd)               *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d = Filename.concat "durable-state" (Fmt.str "d%04d" !n) in
    rm_rf d;
    d

(* ------------------------------------------------------------------ *)
(* WAL unit tests                                                      *)
(* ------------------------------------------------------------------ *)

let entry i =
  Json.Obj [ ("op", Json.Str "e"); ("i", Json.Num (float_of_int i)) ]

let replay_all ?from_segment dir =
  let acc = ref [] in
  let n, status = Wal.replay ?from_segment dir (fun j -> acc := j :: !acc) in
  (n, status, List.rev !acc)

let test_crc32_known_answer () =
  (* the standard CRC-32 check value *)
  checki "crc32(123456789)" 0xCBF43926 (Wal.crc32 "123456789");
  checki "crc32(empty)" 0 (Wal.crc32 "")

let test_frame_roundtrip () =
  let dir = fresh_dir () in
  let w = Wal.open_ dir in
  for i = 1 to 5 do
    Wal.append ~sync:(i mod 2 = 0) w (entry i)
  done;
  Wal.close w;
  let n, status, entries = replay_all dir in
  checki "all entries decoded" 5 n;
  checkb "journal complete" true (status = Wal.Complete);
  checks "entries round-trip in order"
    (String.concat "," (List.init 5 (fun i -> Json.to_string (entry (i + 1)))))
    (String.concat "," (List.map Json.to_string entries))

let test_rotation () =
  let dir = fresh_dir () in
  (* tiny segments: every append after the first in a segment rotates *)
  let w = Wal.open_ ~segment_limit:48 dir in
  for i = 1 to 7 do
    Wal.append w (entry i)
  done;
  Wal.close w;
  checkb "rotation produced several segments" true
    (List.length (Wal.segments dir) > 1);
  let n, status, entries = replay_all dir in
  checki "all entries decoded across segments" 7 n;
  checkb "journal complete" true (status = Wal.Complete);
  checks "order preserved across rotation"
    (Json.to_string (entry 7))
    (Json.to_string (List.nth entries 6))

let test_torn_tail_tolerated () =
  let dir = fresh_dir () in
  let w = Wal.open_ dir in
  Wal.append w (entry 1);
  Wal.append w (entry 2);
  Wal.close w;
  (* simulate a crash mid-frame: append half of a valid frame by hand *)
  let seg = snd (List.hd (List.rev (Wal.segments dir))) in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 seg in
  output_string oc "AW\x00\x00";
  close_out oc;
  let n, status, _ = replay_all dir in
  checki "intact prefix decoded" 2 n;
  (match status with
  | Wal.Torn b ->
    checkb "torn tail is in the final segment" true b.Wal.b_final_segment
  | Wal.Complete -> Alcotest.fail "torn tail not detected")

let test_kill_at_torn_leaves_torn_tail () =
  let dir = fresh_dir () in
  let w = Wal.open_ dir in
  Wal.append w (entry 1);
  let hook, fired = Faults.kill_nth ~only:"wal-torn" 1 in
  Wal.set_kill_hook w (Some hook);
  (match Wal.append w (entry 2) with
  | () -> Alcotest.fail "expected Killed"
  | exception Faults.Killed site -> checks "died at" "wal-torn" site);
  checkb "hook fired" true !fired;
  Wal.close w;
  (* the half-written, flushed frame must be on disk and tolerated *)
  let n, status, _ = replay_all dir in
  checki "only the intact entry survives" 1 n;
  (match status with
  | Wal.Torn b -> checkb "final segment" true b.Wal.b_final_segment
  | Wal.Complete -> Alcotest.fail "no torn tail on disk")

let test_mid_journal_corruption_detected () =
  let dir = fresh_dir () in
  let w = Wal.open_ ~segment_limit:48 dir in
  for i = 1 to 6 do
    Wal.append w (entry i)
  done;
  Wal.close w;
  let segs = Wal.segments dir in
  checkb "several segments" true (List.length segs > 2);
  (* flip one payload byte in the FIRST segment *)
  let seg0 = snd (List.hd segs) in
  let bytes =
    In_channel.with_open_bin seg0 In_channel.input_all |> Bytes.of_string
  in
  Bytes.set bytes (Bytes.length bytes - 2)
    (Char.chr (Char.code (Bytes.get bytes (Bytes.length bytes - 2)) lxor 0xff));
  Out_channel.with_open_bin seg0 (fun oc ->
      Out_channel.output_bytes oc bytes);
  let _, status, _ = replay_all dir in
  match status with
  | Wal.Torn b ->
    checkb "flagged as mid-journal corruption" false b.Wal.b_final_segment;
    checks "crc mismatch" "crc mismatch" b.Wal.b_reason
  | Wal.Complete -> Alcotest.fail "corruption not detected"

(* ------------------------------------------------------------------ *)
(* Durable workloads                                                   *)
(* ------------------------------------------------------------------ *)

(* A durable workload is a fresh world: an engine, its domain's
   persistable, a hook installer routing domain mutations into a
   session's journal, a deterministic list of mutations, and two
   observation functions — the incremental render and the from-scratch
   oracle over the same state. *)
type dctx = {
  eng : Engine.t;
  persist : Durable.persistable;
  arm : Durable.t -> unit;
  ops : (unit -> unit) array;
  render : unit -> string;
  oracle : unit -> string;
}

let sheet_dctx () =
  let s = S.create () in
  let ops =
    [|
      (fun () -> S.set s "A1" "4");
      (fun () -> S.set s "A2" "=A1*A1");
      (fun () -> S.set s "A3" "=A2+A1");
      (fun () -> S.set s "B1" "=SUM(A1:A3)");
      (fun () -> S.set s "B2" "=B1/A1");
      (fun () -> S.set s "A1" "0");
      (fun () -> S.set s "A1" "2");
      (fun () -> S.set s "A3" "=SQRT(A2-100)");
    |]
  in
  let coords = [ (0, 0); (0, 1); (0, 2); (1, 0); (1, 1) ] in
  let show value () =
    String.concat ";"
      (List.map (fun c -> Fmt.str "%a" S.pp_value (value s c)) coords)
  in
  {
    eng = S.engine s;
    persist = S.persist s;
    arm = (fun d -> S.set_journal s (Some (Durable.journal_op d)));
    ops;
    render = show S.value;
    oracle = show S.exhaustive_value;
  }

let avl_dctx () =
  let eng = Engine.create () in
  let t = Avl.create eng in
  let ops =
    Array.of_list
      (List.map (fun k () -> Avl.insert t k) [ 5; 2; 8; 1; 9; 3; 7 ]
      @ [
          (fun () -> Avl.rebalance t);
          (fun () -> Avl.delete t 2);
          (fun () -> Avl.insert t 6);
          (fun () -> Avl.rebalance t);
        ])
  in
  let shape height () =
    Fmt.str "%a/h%d/%b%b"
      Fmt.(Dump.list int)
      (Avl.to_list t) (height ())
      (Avl.is_ordered (Avl.root t))
      (Avl.is_balanced (Avl.root t))
  in
  {
    eng;
    persist = Avl.persist t;
    arm = (fun d -> Avl.set_journal t (Some (Durable.journal_op d)));
    ops;
    render = shape (fun () -> Avl.height t);
    oracle = shape (fun () -> Avl.check_height (Avl.root t));
  }

let doc_dctx () =
  let eng = Engine.create () in
  let g = Binary.create eng in
  let d = Binary.doc g in
  let ops =
    [|
      (fun () -> Binary.doc_init d "1101.01");
      (fun () -> Binary.doc_set_bit d 0 0);
      (fun () -> Binary.doc_set_bit d 2 1);
      (fun () -> Binary.doc_set_bit d 5 0);
      (fun () -> Binary.doc_set_bit d 3 1);
    |]
  in
  let show value () =
    if Binary.doc_render d = "" then "(empty)"
    else Fmt.str "%s=%g" (Binary.doc_render d) (value ())
  in
  {
    eng;
    persist = Binary.persist_doc d;
    arm = (fun s -> Binary.doc_set_journal d (Some (Durable.journal_op s)));
    ops;
    render = show (fun () -> Binary.doc_value d);
    oracle = show (fun () -> Binary.doc_exhaustive d);
  }

(* A raw var/func diamond with a hand-rolled persistable: the engine's
   own export/import path exercised without any domain library. *)
let diamond_dctx () =
  let eng = Engine.create () in
  let a = Var.create eng ~name:"a" 0 in
  let b = Var.create eng ~name:"b" 0 in
  let z = Var.create eng ~name:"z" 0 in
  let f = Func.create eng ~name:"f" (fun _ () -> Var.get a + Var.get b) in
  let g = Func.create eng ~name:"g" (fun _ () -> Var.get a * Var.get b) in
  let top =
    Func.create eng ~name:"top" (fun _ () -> Func.call f () + Func.call g ())
  in
  let other = Func.create eng ~name:"other" (fun _ () -> Var.get z - 1) in
  let vars = [ ("a", a); ("b", b); ("z", z) ] in
  let jref = ref None in
  let put name v = Var.set (List.assoc name vars) v in
  let set name v =
    (match !jref with
    | Some j ->
      j
        (Json.Obj
           [
             ("op", Json.Str "set");
             ("n", Json.Str name);
             ("v", Json.Num (float_of_int v));
           ])
    | None -> ());
    put name v
  in
  let persist =
    {
      Durable.p_save =
        (fun () ->
          Json.Obj
            (("schema", Json.Str "test-diamond/1")
            :: List.map
                 (fun (n, v) -> (n, Json.Num (float_of_int (Var.get v))))
                 vars));
      p_load =
        (fun j ->
          List.iter
            (fun (n, v) ->
              match Option.bind (Json.member n j) Json.to_float with
              | Some x -> Var.set v (int_of_float x)
              | None -> ())
            vars);
      p_apply =
        (fun j ->
          match
            ( Option.bind (Json.member "n" j) Json.to_str,
              Option.bind (Json.member "v" j) Json.to_float )
          with
          | Some n, Some x -> put n (int_of_float x)
          | _ -> invalid_arg "diamond: bad journal op");
    }
  in
  let ops =
    Array.of_list
      (List.map
         (fun (n, v) () -> set n v)
         [
           ("a", 2); ("b", 5); ("z", 100); ("a", 3); ("b", -4); ("z", 7);
           ("a", 10); ("a", 3);
         ])
  in
  {
    eng;
    persist;
    arm = (fun s -> jref := Some (Durable.journal_op s));
    ops;
    render =
      (fun () ->
        Engine.stabilize eng;
        Fmt.str "%d/%d" (Func.call top ()) (Func.call other ()));
    oracle =
      (fun () ->
        let av = Var.get a and bv = Var.get b in
        Fmt.str "%d/%d" (av + bv + (av * bv)) (Var.get z - 1));
  }

(* ------------------------------------------------------------------ *)
(* Engine export→import round-trips                                    *)
(* ------------------------------------------------------------------ *)

(* The raw [Engine.export]/[Engine.import] cycle on the arena-backed
   representation, without the Durable layer in between: domain values
   travel through the workload's persistable, the engine snapshot rides
   on top — the same split [Durable.recover] performs. Equality is
   checked at three strengths: observable (render = pre-export render =
   exhaustive oracle), structural (the restored engine re-exports the
   identical node table and edge set, ids included — the stable-id
   remap at work), and hygienic (the invariant auditor stays clean). *)

let snap_nodes j =
  match Option.bind (Json.member "nodes" j) Json.to_list with
  | None -> []
  | Some ns ->
    List.filter_map
      (fun nj ->
        match
          ( Option.bind (Json.member "id" nj) Json.to_float,
            Option.bind (Json.member "name" nj) Json.to_str,
            Option.bind (Json.member "kind" nj) Json.to_str )
        with
        | Some id, Some name, Some kind ->
          Some (Fmt.str "%d:%s:%s" (int_of_float id) name kind)
        | _ -> None)
      ns
    |> List.sort compare

let snap_edges j =
  match Option.bind (Json.member "edges" j) Json.to_list with
  | None -> []
  | Some es ->
    List.filter_map
      (fun ej ->
        match Option.map (List.filter_map Json.to_float) (Json.to_list ej) with
        | Some [ a; b ] -> Some (Fmt.str "%d->%d" (int_of_float a) (int_of_float b))
        | _ -> None)
      es
    |> List.sort compare

(* [strict] additionally demands a perfect name match (no warnings) and
   id-for-id re-export equality. The AVL workload runs non-strict: its
   node names are allocation-order artifacts, so a rebuilt tree matches
   by behavior, not by name (see the note on [Avl.persist]). *)
let export_import_roundtrip ?(strict = true) (make : unit -> dctx) () =
  let c = make () in
  Array.iter (fun op -> op ()) c.ops;
  let before = c.render () in
  let domain = c.persist.Durable.p_save () in
  let snap = Engine.export c.eng in
  let c2 = make () in
  c2.persist.Durable.p_load domain;
  (* materialize the graph: storage appears on first tracked access,
     instances on first call — import matches only live nodes *)
  ignore (c2.render ());
  let matched, warnings = Engine.import c2.eng snap in
  if strict then begin
    checks "no import warnings" "" (String.concat "; " warnings);
    checki "every snapshot node matched" (List.length (snap_nodes snap))
      matched
  end;
  checks "render round-trips" before (c2.render ());
  checks "oracle agrees" (c2.oracle ()) (c2.render ());
  (match Engine.audit_errors c2.eng with
  | [] -> ()
  | errs ->
    Alcotest.failf "audit after import: %s" (String.concat "; " errs));
  if strict then begin
    let snap2 = Engine.export c2.eng in
    checks "node table re-exports identically (stable ids survive)"
      (String.concat ";" (snap_nodes snap))
      (String.concat ";" (snap_nodes snap2));
    checks "edge set re-exports identically"
      (String.concat ";" (snap_edges snap))
      (String.concat ";" (snap_edges snap2))
  end

(* Snapshots and state dirs written while the engine still had a
   parallel evaluator carry [par_levels]/[par_tasks] in [stats]. Export
   no longer writes them; import must accept them silently and restore
   every other counter. *)
let test_import_legacy_par_stats () =
  let c = diamond_dctx () in
  Array.iter
    (fun op ->
      op ();
      ignore (c.render ()))
    c.ops;
  let domain = c.persist.Durable.p_save () in
  let snap = Engine.export c.eng in
  let stats =
    match Json.member "stats" snap with
    | Some (Json.Obj kvs) -> kvs
    | _ -> Alcotest.fail "snapshot has no stats object"
  in
  checkb "export writes no par_* keys" false
    (List.mem_assoc "par_levels" stats || List.mem_assoc "par_tasks" stats);
  checkb "counters are not all zero" true
    (List.exists (fun (_, v) -> v <> Json.Num 0.) stats);
  let legacy =
    match snap with
    | Json.Obj kvs ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             if k = "stats" then
               ( k,
                 Json.Obj
                   (stats
                   @ [ ("par_levels", Json.Num 3.); ("par_tasks", Json.Num 7.) ]) )
             else (k, v))
           kvs)
    | _ -> Alcotest.fail "snapshot is not an object"
  in
  checks "schema string unchanged" "alphonse-engine/1"
    (Option.value ~default:"?"
       (Option.bind (Json.member "schema" legacy) Json.to_str));
  let c2 = diamond_dctx () in
  c2.persist.Durable.p_load domain;
  ignore (c2.render ());
  let _matched, warnings = Engine.import c2.eng legacy in
  checks "no import warnings" "" (String.concat "; " warnings);
  checks "other counters restored"
    (Json.to_string (Json.Obj stats))
    (Json.to_string
       (Option.value ~default:Json.Null
          (Json.member "stats" (Engine.export c2.eng))))

(* ------------------------------------------------------------------ *)
(* The crash-kill sweep                                                *)
(* ------------------------------------------------------------------ *)

let kill_sweep (make : unit -> dctx) () =
  (* the acceptable recovered states: the render after every prefix of
     the mutation list (a crash loses a tail, never reorders) *)
  let prefixes =
    let c = make () in
    let acc = ref [ c.render () ] in
    Array.iter
      (fun op ->
        op ();
        acc := c.render () :: !acc)
      c.ops;
    List.rev !acc
  in
  let mid = Array.length (make ()).ops / 2 in
  let run_ops c s =
    Array.iteri
      (fun i op ->
        op ();
        if i = mid then ignore (Durable.checkpoint s))
      c.ops
  in
  (* pass 1: count the kill-site pokes of a clean durable run *)
  let total =
    let c = make () in
    let dir = fresh_dir () in
    let s = Durable.attach ~dir c.eng c.persist in
    c.arm s;
    let hook, read = Faults.counting_hook () in
    Durable.set_kill_hook s (Some hook);
    run_ops c s;
    Durable.detach s;
    rm_rf dir;
    Faults.total (read ())
  in
  checkb "workload exercises kill sites" true (total > 0);
  (* pass 2: die at every single poke, recover, verify *)
  for k = 1 to total do
    let dir = fresh_dir () in
    let c = make () in
    let s = Durable.attach ~dir c.eng c.persist in
    c.arm s;
    let hook, fired = Faults.kill_nth k in
    Durable.set_kill_hook s (Some hook);
    (match run_ops c s with
    | () -> ()
    | exception Faults.Killed _ -> ());
    checkb (Fmt.str "kill %d/%d fired" k total) true !fired;
    (* the process is dead: abandon every byte of in-memory state and
       recover from disk into a fresh engine + domain *)
    Durable.detach s;
    let c2 = make () in
    let o = Durable.recover ~dir c2.eng c2.persist in
    (match Engine.audit_errors c2.eng with
    | [] -> ()
    | errs ->
      Alcotest.failf "kill %d/%d: audit after recovery: %s" k total
        (String.concat "; " errs));
    let r = c2.render () in
    checks
      (Fmt.str "kill %d/%d: recovered incremental = exhaustive oracle" k total)
      (c2.oracle ()) r;
    checkb
      (Fmt.str "kill %d/%d: recovered state %S is an op prefix%s" k total r
         (if o.Durable.o_degraded then " (degraded)" else ""))
      true
      (List.mem r prefixes);
    rm_rf dir
  done

(* ------------------------------------------------------------------ *)
(* Snapshot round-trips and corruption drills                          *)
(* ------------------------------------------------------------------ *)

let test_snapshot_roundtrip () =
  let dir = fresh_dir () in
  let c = sheet_dctx () in
  let s = Durable.attach ~dir c.eng c.persist in
  c.arm s;
  Array.iter (fun op -> op ()) c.ops;
  let before = c.render () in
  let snap = Durable.checkpoint s in
  checkb "snapshot file exists" true (Sys.file_exists snap);
  Durable.detach s;
  let c2 = sheet_dctx () in
  let o = Durable.recover ~dir c2.eng c2.persist in
  checkb "restored from the snapshot" true (o.Durable.o_snapshot <> None);
  checkb "engine nodes matched by stable name" true (o.Durable.o_matched > 0);
  checkb "verified" true o.Durable.o_verified;
  checkb "not degraded" false o.Durable.o_degraded;
  checki "nothing to replay after a checkpoint" 0 o.Durable.o_replayed;
  checks "state round-trips" before (c2.render ());
  checks "oracle agrees" (c2.oracle ()) (c2.render ());
  rm_rf dir

let corrupt_last_byte path =
  let bytes =
    In_channel.with_open_bin path In_channel.input_all |> Bytes.of_string
  in
  let i = Bytes.length bytes - 2 in
  Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0xff));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes)

let test_corrupt_snapshot_falls_back_a_generation () =
  let dir = fresh_dir () in
  let c = sheet_dctx () in
  let s = Durable.attach ~dir c.eng c.persist in
  c.arm s;
  (* two generations: ops, checkpoint, more ops, checkpoint *)
  Array.iteri
    (fun i op ->
      op ();
      if i = 3 then ignore (Durable.checkpoint s))
    c.ops;
  let newest = Durable.checkpoint s in
  let final = c.render () in
  Durable.detach s;
  corrupt_last_byte newest;
  let c2 = sheet_dctx () in
  let o = Durable.recover ~dir c2.eng c2.persist in
  checki "newest snapshot rejected" 1 (List.length o.Durable.o_rejected);
  checkb "older generation restored" true (o.Durable.o_snapshot <> None);
  checkb "degraded (integrity was violated)" true o.Durable.o_degraded;
  (* the answers are still the CORRECT answers — merely cold *)
  checks "no data lost: replay covers the gap" final (c2.render ());
  checks "oracle agrees" (c2.oracle ()) (c2.render ());
  (match Engine.audit_errors c2.eng with
  | [] -> ()
  | errs -> Alcotest.failf "audit: %s" (String.concat "; " errs));
  rm_rf dir

let test_all_snapshots_corrupt_never_crashes () =
  let dir = fresh_dir () in
  let c = sheet_dctx () in
  let s = Durable.attach ~dir c.eng c.persist in
  c.arm s;
  Array.iteri
    (fun i op ->
      op ();
      if i = 3 then ignore (Durable.checkpoint s))
    c.ops;
  ignore (Durable.checkpoint s);
  Durable.detach s;
  List.iter
    (fun (_, path) -> corrupt_last_byte path)
    (Durable.snapshots dir);
  let c2 = sheet_dctx () in
  let o = Durable.recover ~dir c2.eng c2.persist in
  checki "both snapshots rejected" 2 (List.length o.Durable.o_rejected);
  checkb "nothing restored" true (o.Durable.o_snapshot = None);
  checkb "degraded" true o.Durable.o_degraded;
  (* whatever journal suffix survives replays onto the empty state; the
     result must still be internally consistent *)
  checks "incremental agrees with exhaustive" (c2.oracle ()) (c2.render ());
  (match Engine.audit_errors c2.eng with
  | [] -> ()
  | errs -> Alcotest.failf "audit: %s" (String.concat "; " errs));
  rm_rf dir

let test_empty_dir_recovers_to_empty () =
  let dir = fresh_dir () in
  let c = sheet_dctx () in
  let o = Durable.recover ~dir c.eng c.persist in
  checkb "no snapshot" true (o.Durable.o_snapshot = None);
  checki "nothing replayed" 0 o.Durable.o_replayed;
  checkb "verified" true o.Durable.o_verified;
  checkb "not degraded" false o.Durable.o_degraded

let test_uncommitted_txn_discarded () =
  let dir = fresh_dir () in
  let c = diamond_dctx () in
  let s = Durable.attach ~dir c.eng c.persist in
  c.arm s;
  c.ops.(0) ();
  c.ops.(1) ();
  Engine.stabilize c.eng;
  let committed = c.render () in
  (* a transaction that journals its Begin and some ops but dies before
     the Commit marker: simulate by killing at the commit append *)
  let pokes = ref 0 in
  Durable.set_kill_hook s
    (Some
       (fun site ->
         if site = "wal-append" then begin
           incr pokes;
           (* ops 2 and 3 journal inside the txn; die on the next
              append after them — the Commit marker *)
           if !pokes > 3 then raise (Faults.Killed site)
         end));
  (match
     Engine.transact c.eng (fun () ->
         c.ops.(2) ();
         c.ops.(3) ())
   with
  | _ -> Alcotest.fail "expected Killed"
  | exception Faults.Killed _ -> ());
  Durable.detach s;
  let c2 = diamond_dctx () in
  let o = Durable.recover ~dir c2.eng c2.persist in
  checkb "uncommitted transaction dropped" true
    (o.Durable.o_discarded_txns >= 1);
  checks "recovered state predates the transaction" committed (c2.render ());
  rm_rf dir

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "durable"
    [
      ( "wal",
        [
          Alcotest.test_case "crc32 known answer" `Quick
            test_crc32_known_answer;
          Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "segment rotation" `Quick test_rotation;
          Alcotest.test_case "torn tail tolerated" `Quick
            test_torn_tail_tolerated;
          Alcotest.test_case "kill at wal-torn leaves a torn tail" `Quick
            test_kill_at_torn_leaves_torn_tail;
          Alcotest.test_case "mid-journal corruption detected" `Quick
            test_mid_journal_corruption_detected;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "checkpoint/recover roundtrip" `Quick
            test_snapshot_roundtrip;
          Alcotest.test_case "corrupt snapshot falls back a generation"
            `Quick test_corrupt_snapshot_falls_back_a_generation;
          Alcotest.test_case "all snapshots corrupt: degrade, no crash"
            `Quick test_all_snapshots_corrupt_never_crashes;
          Alcotest.test_case "empty dir recovers to empty" `Quick
            test_empty_dir_recovers_to_empty;
          Alcotest.test_case "uncommitted transaction discarded" `Quick
            test_uncommitted_txn_discarded;
        ] );
      ( "export-import",
        [
          Alcotest.test_case "diamond round-trip" `Quick
            (export_import_roundtrip diamond_dctx);
          Alcotest.test_case "spreadsheet round-trip" `Quick
            (export_import_roundtrip sheet_dctx);
          Alcotest.test_case "avl round-trip" `Quick
            (export_import_roundtrip ~strict:false avl_dctx);
          Alcotest.test_case "old par_* stats keys import" `Quick
            test_import_legacy_par_stats;
        ] );
      ( "kill-sweep",
        [
          Alcotest.test_case "diamond" `Slow (kill_sweep diamond_dctx);
          Alcotest.test_case "spreadsheet" `Slow (kill_sweep sheet_dctx);
          Alcotest.test_case "avl" `Slow (kill_sweep avl_dctx);
          Alcotest.test_case "attribute grammar" `Slow (kill_sweep doc_dctx);
        ] );
    ]
