(* Write-ahead journal: framed, CRC-guarded, segmented.

   A journal is a directory of segment files [wal-%08d.log], each a
   sequence of frames:

     "AW" | length (4 bytes BE) | crc32 (4 bytes BE) | payload | '\n'

   where [payload] is an [Alphonse.Json] value printed with
   [Json.to_string] and [crc32] covers the payload bytes only. The
   trailing '\n' keeps segments greppable; it is not load-bearing.

   Durability contract: a frame is appended (and the channel flushed)
   BEFORE the in-memory mutation it describes is applied, so after a
   crash the journal describes a superset-or-prefix of the applied
   mutations and replay converges. The writer never appends to an
   existing segment — [open_] always starts a fresh one — so a torn
   tail left by a crash is read-only evidence, never overwritten.

   Torn-tail tolerance: [replay] stops at the first frame that is
   short, has a bad magic, or fails its CRC, and reports where. A torn
   final frame is the expected signature of a crash mid-append; a bad
   frame in a non-final segment is genuine corruption. Either way no
   bytes after the break are trusted.

   Crash simulation: every byte-risking step pokes a kill hook
   ([kill_sites]); a hook raising [Faults.Killed] models the process
   dying there. When a hook is installed, [append] deliberately writes
   the frame in two flushed halves around the "wal-torn" poke so a
   kill at that site leaves a genuinely torn frame on disk. *)

type policy = Always | Commit | Never

let policy_to_string = function
  | Always -> "always"
  | Commit -> "commit"
  | Never -> "never"

let policy_of_string = function
  | "always" -> Some Always
  | "commit" -> Some Commit
  | "never" -> Some Never
  | _ -> None

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) — pure OCaml        *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let magic = "AW"
let header_len = 2 + 4 + 4

let be32 n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.unsafe_to_string b

let read_be32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let frame payload =
  String.concat ""
    [ magic; be32 (String.length payload); be32 (crc32 payload); payload; "\n" ]

(* ------------------------------------------------------------------ *)
(* Segment naming                                                      *)
(* ------------------------------------------------------------------ *)

let segment_name i = Printf.sprintf "wal-%08d.log" i

let segment_index name =
  match Scanf.sscanf_opt name "wal-%8d.log%!" (fun i -> i) with
  | Some i when segment_name i = name -> Some i
  | _ -> None

let segments dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun n ->
           match segment_index n with
           | Some i -> Some (i, Filename.concat dir n)
           | None -> None)
    |> List.sort compare

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let default_segment_limit = 1 lsl 20

type t = {
  dir : string;
  policy : policy;
  segment_limit : int;
  mutable seg_index : int;
  mutable oc : out_channel;
  mutable seg_bytes : int;
  mutable appended : int;
  mutable rotations : int;
  mutable closed : bool;
  mutable kill_hook : (string -> unit) option;
  mutable on_rotate : (int -> unit) option;
  (* the fsync-latency cell, timed only when a registry is attached —
     the disabled path stays one branch — and the sources that read
     [appended] and [rotations] *)
  mutable fsyncs : Metrics.histogram option;
  mutable sources : Metrics.source list;
}

let kill_sites = [ "wal-append"; "wal-torn"; "wal-sync"; "wal-rotate" ]

let poke w site = match w.kill_hook with None -> () | Some h -> h site
let set_kill_hook w h = w.kill_hook <- h
let set_on_rotate w f = w.on_rotate <- f
let policy w = w.policy
let segment w = w.seg_index
let appended w = w.appended

let open_segment dir i =
  open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644
    (Filename.concat dir (segment_name i))

let open_ ?(policy = Commit) ?(segment_limit = default_segment_limit) dir =
  if segment_limit < 1 then invalid_arg "Wal.open_: segment_limit must be > 0";
  mkdir_p dir;
  (* Never append to an existing segment: a crash may have left its tail
     torn, and recovery needs that evidence intact. *)
  let next = match List.rev (segments dir) with [] -> 0 | (i, _) :: _ -> i + 1 in
  {
    dir;
    policy;
    segment_limit;
    seg_index = next;
    oc = open_segment dir next;
    seg_bytes = 0;
    appended = 0;
    rotations = 0;
    closed = false;
    kill_hook = None;
    on_rotate = None;
    fsyncs = None;
    sources = [];
  }

let set_metrics w reg =
  List.iter Metrics.release w.sources;
  w.sources <- [];
  w.fsyncs <- None;
  match reg with
  | None -> ()
  | Some reg ->
    w.sources <-
      [
        Metrics.source reg `Counter "wal_appends_total"
          ~help:"frames appended to the write-ahead journal" (fun () ->
            w.appended);
        Metrics.source reg `Counter "wal_rotations_total"
          ~help:"journal segment rotations" (fun () -> w.rotations);
      ];
    w.fsyncs <-
      Some
        (Metrics.histogram reg "wal_fsync_seconds"
           ~help:"latency of journal fsync calls")

let fsync_channel oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

let sync w =
  if w.closed then invalid_arg "Wal.sync: closed";
  poke w "wal-sync";
  match w.fsyncs with
  | None -> fsync_channel w.oc
  | Some h ->
    let t0 = Metrics.now () in
    fsync_channel w.oc;
    Metrics.observe_since h t0

let rotate w =
  if w.closed then invalid_arg "Wal.rotate: closed";
  w.rotations <- w.rotations + 1;
  poke w "wal-rotate";
  fsync_channel w.oc;
  close_out w.oc;
  w.seg_index <- w.seg_index + 1;
  w.oc <- open_segment w.dir w.seg_index;
  w.seg_bytes <- 0;
  match w.on_rotate with None -> () | Some f -> f w.seg_index

let append ?sync:(do_sync = false) w json =
  if w.closed then invalid_arg "Wal.append: closed";
  poke w "wal-append";
  let payload = Json.to_string json in
  let fr = frame payload in
  if w.seg_bytes > 0 && w.seg_bytes + String.length fr > w.segment_limit then
    rotate w;
  (match w.kill_hook with
  | None -> output_string w.oc fr
  | Some _ ->
    (* Split the frame around the torn-write poke so a kill there leaves
       a half-written frame on disk, flushed — the real artifact replay
       must tolerate. *)
    let cut = min (String.length fr) (header_len + (String.length payload / 2))
    in
    output_string w.oc (String.sub fr 0 cut);
    flush w.oc;
    poke w "wal-torn";
    output_string w.oc (String.sub fr cut (String.length fr - cut)));
  (* Always flush: readers (and recovery of a later crash) must see every
     completed frame; fsync is governed by the policy. *)
  flush w.oc;
  w.seg_bytes <- w.seg_bytes + String.length fr;
  w.appended <- w.appended + 1;
  if w.policy = Always || (do_sync && w.policy <> Never) then sync w

let close w =
  set_metrics w None;
  if not w.closed then begin
    w.closed <- true;
    (* All frame bytes were flushed at append time, so this close cannot
       retroactively "heal" a simulated crash by flushing more data. *)
    close_out_noerr w.oc
  end

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

type break = {
  b_segment : int;
  b_offset : int;
  b_reason : string;
  b_final_segment : bool;
}

type status = Complete | Torn of break

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Scan one segment, calling [f] per decoded entry. Returns [Ok n] (n
   entries) or [Error (off, reason, n)] at the first undecodable frame. *)
let scan_segment data f =
  let len = String.length data in
  let rec go off n =
    if off = len then Ok n
    else if len - off < header_len then
      Error (off, Printf.sprintf "short header (%d byte(s))" (len - off), n)
    else if String.sub data off 2 <> magic then Error (off, "bad magic", n)
    else
      let plen = read_be32 data (off + 2) in
      let crc = read_be32 data (off + 6) in
      let body = off + header_len in
      if len - body < plen + 1 then
        Error (off, Printf.sprintf "short frame (payload %d)" plen, n)
      else
        let payload = String.sub data body plen in
        if crc32 payload <> crc then Error (off, "crc mismatch", n)
        else if data.[body + plen] <> '\n' then Error (off, "bad terminator", n)
        else
          match Json.of_string_opt payload with
          | None -> Error (off, "unparsable payload", n)
          | Some j ->
            f j;
            go (body + plen + 1) (n + 1)
  in
  go 0 0

let replay ?(from_segment = 0) dir f =
  let segs =
    List.filter (fun (i, _) -> i >= from_segment) (segments dir)
  in
  let last = match List.rev segs with [] -> -1 | (i, _) :: _ -> i in
  let rec go n = function
    | [] -> (n, Complete)
    | (i, path) :: rest -> (
      match scan_segment (read_file path) f with
      | Ok k -> go (n + k) rest
      | Error (off, reason, k) ->
        ( n + k,
          Torn
            {
              b_segment = i;
              b_offset = off;
              b_reason = reason;
              b_final_segment = i = last;
            } ))
  in
  go 0 segs
