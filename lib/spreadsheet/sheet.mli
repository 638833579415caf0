(** The spreadsheet of paper §7.2: sparse cells whose values are
    maintained methods over formula trees, with cell references reading
    other cells' maintained values (the [CellExp] operation).

    Editing a cell re-executes exactly the instances that (transitively)
    referenced it. Circular references are surfaced as [Error Cycle]
    values; under the default [Demand] strategy this matches
    {!exhaustive_value} exactly, while [Eager] evaluation on a cyclic
    sheet may instead quiesce at a consistent fixpoint of the circular
    equations (outside the paper's DET contract — see DESIGN.md). *)

type cell_error =
  | Cycle
  | Parse of string
  | Div_by_zero
  | Bad_arg  (** e.g. SQRT of a negative, AVG over an empty range *)
  | Fault of string
      (** an engine-level failure (e.g. a poisoned cell instance),
          rendered [#ERR!]; like every other error it propagates through
          dependent formulas as a value *)

type value =
  | Empty
  | Num of float
  | Error of cell_error

val pp_value : Format.formatter -> value -> unit
val pp_error : Format.formatter -> cell_error -> unit

type content =
  | Blank
  | Const of float
  | Formula of Formula.expr * string  (** parsed expression, source text *)
  | Invalid of string * string  (** unparsable input and its error *)

type t
(** A sheet (with its own private engine). *)

val create :
  ?strategy:Alphonse.Engine.strategy ->
  ?partitioning:bool ->
  unit ->
  t
(** [strategy] and [partitioning] configure the sheet's engine
    ({!Alphonse.Engine.create}'s [default_strategy] and
    [partitioning]). *)

val engine : t -> Alphonse.Engine.t

(** {1 Editing} *)

val set : t -> string -> string -> unit
(** [set t "B2" input] — [""] clears, ["=…"] is a formula, numeric text
    is a constant, anything else becomes a parse-error value. *)

val set_raw : t -> int * int -> string -> unit
(** Like {!set} with a coordinate instead of a name. *)

val set_const : t -> int * int -> float -> unit
val set_formula : t -> int * int -> Formula.expr -> unit
val clear : t -> int * int -> unit

(** {1 Reading} *)

val value : t -> int * int -> value
(** The cell's maintained value; recomputes only what pending edits
    invalidated. *)

val clear_fault : t -> int * int -> unit
(** Forget the cell's poisoned state (if any) so the next read retries
    its formula — the recovery action behind an [#ERR!] cell. No-op on
    healthy cells. *)

val value_at : t -> string -> value
(** {!value} by cell name. *)

val content : t -> int * int -> content

val recalc_all : t -> int
(** Force every materialized cell current; returns how many were
    visited. *)

val coords : t -> (int * int) list
(** Coordinates of all materialized cells (referenced or written). *)

val render : t -> string
(** The bounding box of materialized cells as an aligned text grid with
    A/B/C column headers and 1-based row numbers; values are brought
    current first. *)

(** {1 Oracle} *)

val exhaustive_value : t -> int * int -> value
(** From-scratch evaluation with no caching, cycles detected with a
    visited set — the conventional execution of the sheet program. *)

(** {1 Durability} *)

val set_journal : t -> (Alphonse.Json.t -> unit) option -> unit
(** Installs the write-ahead hook: every edit ({!set}, {!set_raw},
    {!set_const}, {!set_formula}, {!clear}) is announced to it as
    [{"op":"cell","at":name,"v":raw}] {e before} the tracked write
    applies. Wire it to [Durable.journal_op]. *)

val persist : t -> Alphonse.Durable.persistable
(** The sheet's durability hooks: save serializes all non-blank cells
    (sorted, raw-input form — constants round-trip bit-exactly), load
    rebuilds them in a fresh sheet, apply replays one journaled edit.
    Load and apply never journal. *)

(** {1 Daemon workload} *)

val workload :
  ?strategy:Alphonse.Engine.strategy ->
  ?partitioning:bool ->
  unit ->
  Alphonse.Tenant.workload
(** The spreadsheet as a daemon tenant ([alphonsec daemon] hosts one
    sheet per tenant). Ops: [{"op":"set","cell":"A1","v":"=B1+1"}],
    [{"op":"get","cell":"A1"}] (value is a number, [null] for an empty
    cell, or an error string such as ["#DIV/0!"]),
    [{"op":"render"}], [{"op":"recalc"}]. Malformed ops raise
    {!Alphonse.Tenant.Bad_op}, which the daemon answers with 400 after
    rolling back the batch. *)
