(** Write-ahead journal: framed, CRC-guarded, segmented.

    A journal is a directory of segment files [wal-%08d.log]; each
    frame is ["AW" | length (4B BE) | crc32 (4B BE) | payload | '\n']
    where the payload is an {!Json} value and the CRC-32 (IEEE) covers
    the payload bytes. Frames are appended — and the channel flushed —
    {e before} the mutation they describe is applied, so after a crash
    the journal is a superset-or-prefix of the applied mutations.
    {!replay} tolerates a torn tail: it stops at the first short /
    bad-magic / bad-CRC frame and reports where. {!Durable} builds
    snapshot + recovery on top of this module. *)

type policy =
  | Always  (** fsync after every append. *)
  | Commit  (** fsync only at commit boundaries ([append ~sync:true]). *)
  | Never  (** flush to the OS, never fsync — crash-consistent only
               against process death, not power loss. *)

val policy_to_string : policy -> string
val policy_of_string : string -> policy option

val crc32 : string -> int
(** CRC-32 (IEEE 802.3, reflected) of a string — also used by
    {!Durable} to checksum snapshot files. *)

type t
(** An open journal writer. *)

val default_segment_limit : int
(** 1 MiB. *)

val open_ : ?policy:policy -> ?segment_limit:int -> string -> t
(** [open_ dir] creates [dir] if needed and starts a {e fresh} segment
    after any existing ones (never appends to an old segment — a torn
    tail left by a crash is evidence recovery must still be able to
    read). Default policy {!Commit}, default segment limit
    {!default_segment_limit} bytes (rotation happens when an append
    would overflow it). *)

val append : ?sync:bool -> t -> Json.t -> unit
(** Frame, write and flush one entry; fsyncs according to the policy
    ([~sync:true] marks a commit boundary under {!Commit}). May rotate
    to a new segment first. *)

val sync : t -> unit
(** Explicit flush + fsync of the current segment. *)

val rotate : t -> unit
(** Force a new segment (fsyncs and closes the current one). Used by
    {!Durable.checkpoint} to cut the journal at a snapshot. *)

val close : t -> unit
(** Close the writer (idempotent), first releasing its metrics sources.
    Never writes new bytes: every frame was already flushed at append
    time. *)

val policy : t -> policy
val segment : t -> int
(** Index of the segment currently being written. *)

val appended : t -> int
(** Entries appended through this writer. *)

(** {1 Crash simulation} *)

val kill_sites : string list
(** [["wal-append"; "wal-torn"; "wal-sync"; "wal-rotate"]] — poked (in
    byte-risking order) on the append/sync/rotate paths. A hook raising
    {!Faults.Killed} models the process dying there; "wal-torn" fires
    after a half frame has been written {e and flushed}, leaving a
    genuinely torn tail on disk. *)

val set_kill_hook : t -> (string -> unit) option -> unit
val set_on_rotate : t -> (int -> unit) option -> unit
(** Notification when rotation opens a new segment (telemetry). *)

val set_metrics : t -> Metrics.t option -> unit
(** Report appends and rotations since attach, and time fsyncs, into a
    registry ([wal_appends_total] and [wal_rotations_total] read this
    writer's counts at scrape time; [wal_fsync_seconds] is timed per
    fsync). [None] (the default) detaches, releasing the sources; the
    disabled path costs one branch per fsync. {!Durable.attach} wires
    this automatically from the engine's registry. *)

(** {1 Replay} *)

type break = {
  b_segment : int;  (** segment index where decoding stopped *)
  b_offset : int;  (** byte offset of the undecodable frame *)
  b_reason : string;  (** "short frame", "crc mismatch", … *)
  b_final_segment : bool;
      (** [true]: a torn tail — the expected crash signature. [false]:
          corruption mid-journal; entries in later segments were NOT
          read. *)
}

type status = Complete | Torn of break

val replay : ?from_segment:int -> string -> (Json.t -> unit) -> int * status
(** [replay dir f] decodes every frame of every segment with index
    [>= from_segment] in order, calling [f] per entry; returns how many
    entries were decoded and whether the journal was read to the end. *)

val segments : string -> (int * string) list
(** Existing segments of a journal directory, sorted by index. *)

val segment_name : int -> string

val mkdir_p : string -> unit
(** Create a directory and its parents ([Durable] shares it). *)
