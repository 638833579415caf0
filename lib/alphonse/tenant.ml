(* One supervised tenant: an isolated engine + domain instance with its
   own durable state directory, restarted from disk when it crashes,
   backed off exponentially (with jitter) when it keeps crashing, and
   parked behind a circuit breaker when it flaps. The supervisor never
   lets one tenant's failure leak: a crash tears down only this
   tenant's session, and recovery replays only this tenant's WAL. *)

module Log = (val Logs.src_log (Logs.Src.create "alphonse.tenant"))

exception Bad_op of string

type session = {
  s_engine : Engine.t;
  s_apply : Json.t -> Json.t;
  s_persist : Durable.persistable;
  s_set_journal : (Json.t -> unit) option -> unit;
}

type workload = { w_make : unit -> session }

type config = {
  c_root : string;
  c_durable : bool;
  c_wal_policy : Wal.policy;
  c_max_restarts : int;
  c_backoff_base : float;
  c_backoff_cap : float;
  c_cooldown : float;
  c_seed : int;
  c_metrics : Metrics.t option;
}

(* Tenant ids become directory names: refuse anything that could
   escape the state root or collide across encodings. *)
let valid_id id =
  let n = String.length id in
  n > 0 && n <= 64
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
         | _ -> false)
       id
  && id.[0] <> '.'

type status =
  | Serving
  | Backoff of float  (** restart pending; retry after this many seconds *)
  | Parked of float  (** circuit open; half-opens after this many seconds *)
  | Stopped

type live = { ls : session; ld : Durable.t option }

type state =
  | Up of live
  | Down of { until : float }
  | Tripped of { until : float }
  | Off

type t = {
  id : string;
  cfg : config;
  w : workload;
  tdir : string;
  lock : Mutex.t;
      (* held across a whole batch: per-tenant serialization is the
         isolation unit — one in-flight batch per tenant *)
  mutable state : state;
  mutable crashes : int; (* consecutive; reset by a successful batch *)
  mutable restarts : int; (* lifetime restart attempts *)
  mutable trips : int; (* lifetime circuit-breaker trips *)
  mutable last_error : string option;
  mutable last_recovery : Durable.outcome option;
  mutable kill_hook : (string -> unit) option;
  (* shared series (same names across tenants; label-free): crashes is
     a cell, since [crashes] above is reset on success; restarts and
     trips are read from the fields above *)
  m_crashes : Metrics.counter option;
}

type error =
  | Cancelled of string
  | Rejected of string
  | Unavailable of { reason : string; retry_after : float }

(* splitmix-style hash → jitter in [0, 1): deterministic per
   (seed, id, attempt), so backoff schedules are reproducible in tests
   while still decorrelating tenants that crash in lockstep. *)
let jitter ~seed ~id ~attempt =
  let h = ref (Int64.of_int (seed lxor (attempt * 0x9e3779b9))) in
  String.iter
    (fun ch ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code ch)))
             0x100000001b3L)
    id;
  let z = Int64.add !h 0x9e3779b97f4a7c15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94d049bb133111ebL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0

let backoff_delay t =
  let attempt = max 1 t.crashes in
  let exp = t.cfg.c_backoff_base *. (2.0 ** float_of_int (attempt - 1)) in
  let base = Float.min exp t.cfg.c_backoff_cap in
  (* full jitter on the top half: [0.5b, 1.0b] *)
  base *. (0.5 +. (0.5 *. jitter ~seed:t.cfg.c_seed ~id:t.id ~attempt))

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let dir_for cfg id = Filename.concat (Filename.concat cfg.c_root "tenants") id
let dir t = t.tdir
let id t = t.id

let teardown t =
  match t.state with
  | Up { ls; ld } ->
    Engine.set_metrics ls.s_engine None;
    (try ls.s_set_journal None with _ -> ());
    (match ld with
    | Some d -> ( try Durable.detach d with _ -> ())
    | None -> ());
    t.state <- Off
  | _ -> ()

(* Build a fresh session and recover it from this tenant's directory.
   Raises when the workload constructor or the durability layer does —
   the caller turns that into a crash. *)
let start_session t =
  let s = t.w.w_make () in
  (match t.cfg.c_metrics with
  | Some reg -> Engine.set_metrics s.s_engine (Some reg)
  | None -> ());
  let durable () =
    if t.cfg.c_durable then begin
      mkdirs t.tdir;
      let o = Durable.recover ~dir:t.tdir s.s_engine s.s_persist in
      t.last_recovery <- Some o;
      let d =
        Durable.attach ~policy:t.cfg.c_wal_policy ~dir:t.tdir s.s_engine
          s.s_persist
      in
      s.s_set_journal (Some (Durable.journal_op d));
      Durable.set_kill_hook d t.kill_hook;
      Some d
    end
    else None
  in
  match durable () with
  | d -> { ls = s; ld = d }
  | exception e ->
    (* a session that fails to start is never torn down: release its
       engine's sources here *)
    Engine.set_metrics s.s_engine None;
    raise e

let crash t ~now e =
  let msg = Printexc.to_string e in
  t.last_error <- Some msg;
  teardown t;
  t.crashes <- t.crashes + 1;
  (match t.m_crashes with Some c -> Metrics.inc c | None -> ());
  if t.crashes > t.cfg.c_max_restarts then begin
    t.trips <- t.trips + 1;
    Log.warn (fun m ->
        m "tenant %s: circuit open after %d consecutive crashes (%s)" t.id
          t.crashes msg);
    t.state <- Tripped { until = now +. t.cfg.c_cooldown };
    Unavailable
      { reason = "circuit open: " ^ msg; retry_after = t.cfg.c_cooldown }
  end
  else begin
    let delay = backoff_delay t in
    Log.info (fun m ->
        m "tenant %s: crashed (%s); restart in %.0f ms" t.id msg
          (delay *. 1000.));
    t.state <- Down { until = now +. delay };
    Unavailable { reason = "crashed: " ^ msg; retry_after = delay }
  end

let try_restart t ~now =
  t.restarts <- t.restarts + 1;
  match start_session t with
  | live ->
    t.state <- Up live;
    Ok live
  | exception e -> Error (crash t ~now e)

(* Resolve the current session, restarting when a pending backoff or a
   parked circuit's cooldown has elapsed (half-open probe). *)
let ensure t ~now =
  match t.state with
  | Up live -> Ok live
  | Off -> Error (Unavailable { reason = "stopped"; retry_after = 1.0 })
  | Down { until } ->
    if now >= until then try_restart t ~now
    else
      Error (Unavailable { reason = "restarting"; retry_after = until -. now })
  | Tripped { until } ->
    if now >= until then try_restart t ~now
    else
      Error (Unavailable { reason = "circuit open"; retry_after = until -. now })

let create cfg w ~id =
  if not (valid_id id) then
    invalid_arg ("Tenant.create: invalid tenant id: " ^ String.escaped id);
  let t =
    {
      id;
      cfg;
      w;
      tdir = dir_for cfg id;
      lock = Mutex.create ();
      state = Off;
      crashes = 0;
      restarts = 0;
      trips = 0;
      last_error = None;
      last_recovery = None;
      kill_hook = None;
      m_crashes =
        Option.map
          (fun reg ->
            Metrics.counter reg "tenant_crashes_total"
              ~help:"tenant session crashes")
          cfg.c_metrics;
    }
  in
  (* lifetime counts, so a tenant's sources are never released *)
  Option.iter
    (fun reg ->
      let src name help read =
        ignore (Metrics.source reg ~help `Counter name read : Metrics.source)
      in
      src "tenant_restarts_total" "tenant session (re)starts" (fun () ->
          t.restarts);
      src "tenant_trips_total" "tenant circuit-breaker trips" (fun () ->
          t.trips))
    cfg.c_metrics;
  (match try_restart t ~now:(Unix.gettimeofday ()) with
  | Ok _ -> ()
  | Error _ -> () (* stays Down/Tripped; submits surface the backoff *));
  t

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let submit t ?budget ~now ops =
  locked t @@ fun () ->
  match ensure t ~now with
  | Error e -> Error e
  | Ok { ls; _ } -> (
    let batch () =
      Engine.transact ls.s_engine (fun () -> List.map ls.s_apply ops)
    in
    let batch () =
      match budget with
      | None -> batch ()
      | Some b -> Engine.with_budget ls.s_engine b batch
    in
    match batch () with
    | results ->
      t.crashes <- 0;
      Ok results
    | exception Engine.Cancelled msg ->
      (* the transact rolled back; the session is healthy *)
      Error (Cancelled msg)
    | exception Bad_op msg ->
      (* malformed op: the batch rolled back, the client is at fault *)
      Error (Rejected msg)
    | exception e ->
      (* anything else is a tenant crash: discard the session and
         restart from this tenant's own directory *)
      Error (crash t ~now e))

let status t ~now =
  match t.state with
  | Up _ -> Serving
  | Off -> Stopped
  | Down { until } -> Backoff (Float.max 0. (until -. now))
  | Tripped { until } -> Parked (Float.max 0. (until -. now))

let checkpoint t =
  locked t @@ fun () ->
  match t.state with
  | Up { ld = Some d; _ } -> ignore (Durable.checkpoint d : string)
  | _ -> ()

let stop t =
  locked t @@ fun () ->
  Fun.protect
    ~finally:(fun () -> teardown t)
    (fun () ->
      match t.state with
      | Up { ld = Some d; _ } -> ignore (Durable.checkpoint d : string)
      | _ -> ())

let engine t =
  match t.state with Up { ls; _ } -> Some ls.s_engine | _ -> None

let set_kill_hook t h =
  locked t @@ fun () ->
  t.kill_hook <- h;
  match t.state with
  | Up { ld = Some d; _ } -> Durable.set_kill_hook d h
  | _ -> ()

let crashes t = t.crashes
let restarts t = t.restarts
let trips t = t.trips
let last_error t = t.last_error
let last_recovery t = t.last_recovery
