(** Thread-safe metrics registry: labeled counters, gauges and
    log-bucketed histograms, exposed as Prometheus text or JSON.

    A count the program already keeps in a plain field is registered
    once as a {!source}: the registry reads it when scraped, so the
    counting site is the field's own increment, with or without a
    registry attached. Counts with no plain twin, and histograms, are
    cells: instrumented code resolves them {e once} (under the registry
    mutex) and then updates them lock-free from any thread — a counter
    cell is an [int Atomic.t], a histogram an array of bucket atomics.
    Disabled cell instrumentation (no registry attached) costs exactly
    one immediate [option] branch per site and allocates nothing; bench
    E20 gates that overhead at 5%. *)

type t
(** A registry: a mutable set of metric families. *)

type counter
type gauge
type histogram

val create : ?namespace:string -> unit -> t
(** [create ()] makes an empty registry. Every metric name is exposed
    as [<namespace>_<name>]; the namespace defaults to ["alphonse"]. *)

(** {1 Registration} — get-or-create, keyed by name + label set.
    Registering an existing (name, labels) pair returns the existing
    cell; reusing a name with a different metric kind raises
    [Invalid_argument]. *)

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge

val histogram :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  ?bounds:float array ->
  string ->
  histogram
(** [bounds] are upper bucket bounds, ascending; a final [infinity]
    bucket is appended when missing. Defaults to {!default_bounds}. *)

val default_bounds : float array
(** Decade buckets for latencies in seconds: [1e-6 .. 10, +Inf] — the
    same geometry as [Telemetry]'s settle-latency histogram. *)

(** {1 Updates} — lock-free, safe from concurrent threads. *)

val inc : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

val now : unit -> float
(** Wall-clock seconds, for timing instrumented regions. *)

val observe_since : histogram -> float -> unit
(** [observe_since h t0] records [now () -. t0]. *)

(** {1 Scrape-time sources} *)

type source

val source :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  [ `Counter | `Gauge ] ->
  string ->
  (unit -> int) ->
  source
(** [source reg kind name read] registers [read] as a source of the
    counter or gauge series [name] (get-or-create, as {!counter} and
    {!gauge}, so the series is exposed even while it is 0). The series
    then reports its own cell plus the sum of its live sources' values,
    taken when it is read: {!counter_value}, {!gauge_value} and the
    exposition all include them. A counter source's value is its
    reading less its reading at registration, so it counts the events
    after registration; a gauge source's value is its reading. [read]
    may run on the scraping thread. *)

val release : source -> unit
(** [release s] folds [s]'s last value into its series and drops [s]:
    the series keeps its value (a counter never decreases) and the
    registry no longer holds [read] or what it closes over. Idempotent. *)

(** {1 Reading} *)

val counter_value : counter -> int
val gauge_value : gauge -> float
(** Cell plus sources, as a scrape reports the series. *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val histogram_counts : histogram -> int array
(** Per-bucket (non-cumulative) counts, index-aligned with the bounds. *)

val quantile : counts:int array -> bounds:float array -> float -> float
(** [quantile ~counts ~bounds q] estimates the [q]-quantile of a
    log-bucketed histogram by geometric interpolation inside the bucket
    containing the rank. [counts.(i)] holds the observations below
    [bounds.(i)]; returns [nan] when the histogram is empty. Shared
    with [Inspect]'s per-instance profile quantiles so both report the
    same p50/p90/p99. *)

val quantiles : counts:int array -> bounds:float array -> float * float * float
(** [(p50, p90, p99)] via {!quantile}. *)

(** {1 Exposition} — deterministic: families sort by name, series by
    label signature. *)

val to_prometheus : t -> string
(** Prometheus text format ([# HELP]/[# TYPE], cumulative [_bucket]
    series with [le] labels, [_sum]/[_count]). *)

val to_json : t -> Json.t
(** Schema ["alphonse-metrics/1"]; histograms carry estimated
    p50/p90/p99 alongside their buckets. *)
