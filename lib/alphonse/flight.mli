(** Flight recorder: always-on incident reports.

    The bounded telemetry ring already holds "the last N things the
    engine did"; this module turns it into a flight recorder. {!arm}
    chains a sink onto a {!Telemetry} recorder that watches for
    anomalous events — a quarantine, a poisoning, a degraded crash
    recovery — and, when one fires, writes an {e incident report}: a
    timestamped JSON file carrying the trigger, the tail of the event
    window, a metrics snapshot (when a registry is supplied) and the
    {!Telemetry.why_recomputed} provenance chain of the failed node.

    Steady-state cost while armed is one sink call per event; file I/O
    happens only when something has already gone wrong. Reports are
    capped so a crash loop cannot fill the disk. *)

type t

val arm :
  ?metrics:Metrics.t ->
  ?dir:string ->
  ?last:int ->
  ?on_report:(string -> unit) ->
  Telemetry.t ->
  t
(** [arm tm] installs the incident sink, chaining onto (not replacing)
    any sink already set on [tm]. Reports land in [dir] (default
    ["incidents"], created on first incident) as
    [incident-<UTC-stamp>-<seq>.json], schema ["alphonse-incident/1"].
    [last] (default 256) bounds how many trailing events each report
    embeds; each armed recorder writes at most 16 reports.
    [on_report] is called with each written file's path (the CLI prints
    a notice). Reporting failures (e.g. an unwritable [dir]) are
    swallowed — the flight recorder never takes the engine down. *)

val triggers : string list
(** The trigger kinds a report's ["trigger"."kind"] field can carry. *)

val reports : t -> string list
(** Paths written so far, oldest first. *)

val written : t -> int
val dir : t -> string
