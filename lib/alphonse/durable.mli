(** Durable engine state: checksummed snapshots, a write-ahead mutation
    journal, and crash recovery with verified replay.

    Instance bodies are closures, so cached values cannot persist; what
    survives a crash is (a) the {e domain} state — enough to rebuild the
    structure exhaustively — and (b) the engine's {e logical} state
    ({!Engine.export}): dirty marks, failure/poison bookkeeping,
    counters. A recovered process answers every query correctly by
    recomputation, and the journal guarantees no acknowledged mutation
    is lost.

    Wiring: the domain exposes a {!persistable} (save / load / apply)
    and routes every mutation through a journaling callback (see
    [Sheet.set_journal], [Avl.set_journal], [Binary.doc]); {!attach}
    installs the engine half ({!Engine.set_journal}) so write intents
    and transaction boundaries land in the same journal. Typical life
    cycle:

    {[
      let eng = Engine.create () in
      let sheet = Sheet.create eng in
      let p = Sheet.persist sheet in
      let outcome = Durable.recover ~dir eng p in      (* cold start *)
      let s = Durable.attach ~dir eng p in             (* arm journaling *)
      Sheet.set_journal sheet (Some (Durable.journal_op s));
      …mutate, query…
      ignore (Durable.checkpoint s);                   (* cut + snapshot *)
      Durable.detach s
    ]} *)

type persistable = {
  p_save : unit -> Json.t;
      (** The full domain state, enough for [p_load] to rebuild it in a
          fresh domain. Must be deterministic (sorted) so snapshots of
          equal states are byte-equal. *)
  p_load : Json.t -> unit;
      (** Rebuild the domain structure from a [p_save] image. Called on
          a freshly created domain, before any journal replay; must not
          journal. *)
  p_apply : Json.t -> unit;
      (** Re-apply one journaled mutation (the payload previously passed
          to {!journal_op}). Must be deterministic. *)
}

(** {1 Sessions} *)

type t
(** An attached durability session: an open journal plus the engine
    hooks feeding it. *)

val attach :
  ?policy:Wal.policy ->
  ?segment_limit:int ->
  dir:string ->
  Engine.t ->
  persistable ->
  t
(** Arms journaling: opens a fresh journal segment in [dir] (creating
    it if needed) and installs the engine journal hooks. Run
    {!recover} first when [dir] may hold prior state. {!checkpoint}
    retains the newest two snapshot generations.
    @raise Invalid_argument if the engine already has a journal. *)

val journal_op : t -> Json.t -> unit
(** [journal_op s d] appends domain mutation [d] to the journal —
    call it {e before} applying the mutation (write-ahead). Standalone
    ops are their own commit boundary (fsynced under {!Wal.Commit});
    inside {!Engine.transact} the sync belongs to the commit marker. *)

val checkpoint : t -> string
(** Rotates the journal, writes a checksummed snapshot of engine +
    domain state (temp file, fsync, atomic rename), prunes old
    snapshots and the journal segments no kept snapshot needs, and
    returns the snapshot path. *)

val detach : t -> unit
(** Uninstalls the engine hooks and closes the journal (idempotent;
    never writes new bytes, so it is safe after a simulated crash). *)

val wal : t -> Wal.t
val dir : t -> string

(** {1 Recovery} *)

type outcome = {
  o_dir : string;
  o_snapshot : string option;  (** snapshot file restored from *)
  o_rejected : (string * string) list;
      (** snapshots rejected (file, reason: crc mismatch, bad header,
          domain load failure) before one was accepted *)
  o_matched : int;  (** engine nodes restored by {!Engine.import} *)
  o_replayed : int;  (** committed journal ops applied *)
  o_discarded : int;  (** journal entries dropped (uncommitted txns) *)
  o_discarded_txns : int;  (** uncommitted transaction groups dropped *)
  o_verified : bool;
      (** the journaled write intents agree with the intents the replay
          itself provoked: restricted to the names both runs tracked
          (lazy node materialization makes the alphabets differ), the
          journaled sequence is a subsequence of the captured one — a
          divergent replay reorders, a crash only truncates *)
  o_degraded : bool;
      (** recovery called {!Engine.degrade_to_exhaustive}: a snapshot
          failed its checksum, verification missed, the auditor
          complained, or the journal broke mid-stream — incremental
          state is abandoned and answers recompute exhaustively *)
  o_warnings : string list;
}

val recover : dir:string -> Engine.t -> persistable -> outcome
(** [recover ~dir eng p] runs the recovery state machine against a
    fresh engine + domain: pick the newest snapshot that passes its CRC
    and loads ([p_load]), restore engine bookkeeping
    ({!Engine.import}), replay the journal's committed units through
    [p_apply] (settling after each; uncommitted transaction groups and
    any torn tail are dropped), verify the re-captured write intents
    against the journaled ones, then {!Engine.audit_errors}. On any
    integrity failure it degrades to exhaustive recomputation rather
    than serving corrupt state — the recovered answers are then still
    correct, merely cold. An empty or absent [dir] recovers to the
    empty state. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** One deterministic summary line (used by [alphonsec recover]). *)

(** {1 Crash simulation} *)

val kill_sites : string list
(** {!Wal.kill_sites} plus ["snap-begin"; "snap-torn"; "snap-rename";
    "snap-prune"] — every byte-risking point of the checkpoint path.
    "snap-torn" fires with a half-written, flushed temp file on disk. *)

val set_kill_hook : t -> (string -> unit) option -> unit
(** Installs a hook poked at every {!kill_sites} site (shared with the
    session's {!Wal.t}); a hook raising {!Faults.Killed} models the
    process dying there. *)

(** {1 Snapshot files} *)

val snapshots : string -> (int * string) list
(** Existing snapshots of a state directory, sorted by index (the
    journal segment at which post-snapshot replay starts). *)

val snapshot_name : int -> string
