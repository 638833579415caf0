(* alphonsed: a long-running multi-tenant host for Alphonse engines.
   Connections speak newline-delimited JSON over the [Serve] listener;
   each request names a tenant and carries a batch of domain ops that
   run atomically ([Engine.transact]) under an [Engine.Budget]. The
   daemon's job is to keep answering under hostile load:

   - admission control: a bounded global in-flight count and a bounded
     per-tenant pending count; both full queues shed with a 503 +
     [retry_after_ms] instead of queueing without bound;
   - a max-concurrent-settles gate (counting semaphore) so a burst of
     heavy batches cannot oversubscribe the machine;
   - per-tenant supervision (see [Tenant]): a crashing tenant restarts
     from its own WAL behind exponential backoff, a flapping one is
     parked by its circuit breaker — 503 for that tenant only;
   - deadlines: a batch that outlives its budget is cancelled at a
     settle step or a demand execution and rolled back — 408, state
     unchanged;
   - SIGTERM drain: stop accepting, finish in-flight requests,
     checkpoint every tenant, return.

   Concurrency model: one OS thread per connection (requests on a
   connection are pipelined in order), per-tenant batches serialized by
   the tenant lock, admission counters under one daemon mutex. *)

module Log = (val Logs.src_log (Logs.Src.create "alphonse.daemon"))

type config = {
  d_host : string;
  d_port : int;  (** NDJSON protocol port; 0 picks a free one *)
  d_metrics_port : int option;  (** HTTP health/metrics; 0 picks *)
  d_root : string;
  d_durable : bool;
  d_wal_policy : Wal.policy;
  d_max_tenants : int;
  d_tenant_queue : int;
  d_global_queue : int;
  d_max_settles : int;
  d_default_deadline : float option;  (** seconds; None = no deadline *)
  d_max_restarts : int;
  d_backoff_base : float;
  d_backoff_cap : float;
  d_cooldown : float;
  d_seed : int;
  d_conn_timeout : float;  (** per-connection socket timeout, seconds *)
  d_drain_grace : float;  (** max seconds to wait for in-flight on drain *)
}

let default_config ~root () =
  {
    d_host = "127.0.0.1";
    d_port = 0;
    d_metrics_port = None;
    d_root = root;
    d_durable = true;
    d_wal_policy = Wal.Commit;
    d_max_tenants = 4096;
    d_tenant_queue = 16;
    d_global_queue = 1024;
    d_max_settles = 8;
    d_default_deadline = Some 30.0;
    d_max_restarts = 5;
    d_backoff_base = 0.05;
    d_backoff_cap = 5.0;
    d_cooldown = 30.0;
    d_seed = 0;
    d_conn_timeout = 30.0;
    d_drain_grace = 30.0;
  }

type entry = { e_tenant : Tenant.t; mutable e_pending : int }

type cells = {
  dm_req : (int * Metrics.counter) list;  (** by status code *)
  dm_req_other : Metrics.counter;
  dm_shed_global : Metrics.counter;
  dm_shed_tenant : Metrics.counter;
  dm_cancelled : Metrics.counter;
  dm_batch_seconds : Metrics.histogram;
}

type t = {
  cfg : config;
  w : Tenant.workload;
  reg : Metrics.t;
  listener : Serve.t;
  mutable http : Serve.t option;
  tenants : (string, entry) Hashtbl.t;
  lock : Mutex.t;  (** guards [tenants], the counters, [draining] *)
  idle : Condition.t;  (** signalled when an in-flight request retires *)
  settle_gate : Semaphore.Counting.t;
  mutable inflight : int;
  mutable draining : bool;
  mutable recovered : bool;  (** preload of existing tenant dirs finished *)
  mutable served : int;  (** requests answered (any status) *)
  cells : cells;
}

let tenant_cfg (cfg : config) reg : Tenant.config =
  {
    c_root = cfg.d_root;
    c_durable = cfg.d_durable;
    c_wal_policy = cfg.d_wal_policy;
    c_max_restarts = cfg.d_max_restarts;
    c_backoff_base = cfg.d_backoff_base;
    c_backoff_cap = cfg.d_backoff_cap;
    c_cooldown = cfg.d_cooldown;
    c_seed = cfg.d_seed;
    c_metrics = Some reg;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ------------------------------------------------------------------ *)
(* Health surface                                                      *)
(* ------------------------------------------------------------------ *)

let ready t = t.recovered && not t.draining

let tenant_statuses t =
  let now = Unix.gettimeofday () in
  let rows =
    locked t @@ fun () ->
    Hashtbl.fold (fun id e acc -> (id, e.e_tenant) :: acc) t.tenants []
  in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  List.map
    (fun (id, tn) ->
      let status, retry =
        match Tenant.status tn ~now with
        | Tenant.Serving -> ("serving", None)
        | Tenant.Backoff s -> ("backoff", Some s)
        | Tenant.Parked s -> ("parked", Some s)
        | Tenant.Stopped -> ("stopped", None)
      in
      Json.Obj
        ([
           ("tenant", Json.Str id);
           ("status", Json.Str status);
           ("crashes", Json.Num (float_of_int (Tenant.crashes tn)));
           ("restarts", Json.Num (float_of_int (Tenant.restarts tn)));
         ]
        @ (match retry with
          | None -> []
          | Some s -> [ ("retry_after_ms", Json.Num (Float.round (s *. 1000.))) ])
        ))
    rows

let routes t =
  [
    ("/metrics", fun () -> Serve.text (Metrics.to_prometheus t.reg));
    ( "/metrics.json",
      fun () -> Serve.json (Json.to_string (Metrics.to_json t.reg)) );
    ( "/healthz",
      fun () ->
        Serve.text
          (Printf.sprintf "ok\ntenants %d\nserved %d\n"
             (locked t (fun () -> Hashtbl.length t.tenants))
             t.served) );
    ( "/readyz",
      fun () ->
        if ready t then Serve.text "ready\n"
        else if t.draining then Serve.text ~status:503 "draining\n"
        else Serve.text ~status:503 "recovering\n" );
    ( "/tenantz",
      fun () -> Serve.json (Json.to_string (Json.Arr (tenant_statuses t))) );
  ]

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create ?metrics cfg w =
  if cfg.d_max_settles < 1 then
    invalid_arg "Daemon.create: d_max_settles must be >= 1";
  if cfg.d_global_queue < 1 || cfg.d_tenant_queue < 1 then
    invalid_arg "Daemon.create: queue bounds must be >= 1";
  let reg = match metrics with Some r -> r | None -> Metrics.create () in
  let listener =
    Serve.create_raw ~host:cfg.d_host ~timeout:cfg.d_conn_timeout
      ~port:cfg.d_port ()
  in
  Serve.set_metrics listener (Some reg);
  let c name help = Metrics.counter reg name ~help in
  let req code =
    Metrics.counter reg "daemon_requests_total"
      ~labels:[ ("code", string_of_int code) ]
      ~help:"requests answered, by status code"
  in
  let cells =
    {
      dm_req = List.map (fun code -> (code, req code)) [ 200; 400; 408; 503 ];
      dm_req_other =
        Metrics.counter reg "daemon_requests_total"
          ~labels:[ ("code", "other") ]
          ~help:"requests answered, by status code";
      dm_shed_global =
        Metrics.counter reg "daemon_shed_total"
          ~labels:[ ("scope", "global") ]
          ~help:"requests shed by a full queue";
      dm_shed_tenant =
        Metrics.counter reg "daemon_shed_total"
          ~labels:[ ("scope", "tenant") ]
          ~help:"requests shed by a full queue";
      dm_cancelled =
        c "daemon_cancellations_total"
          "batches cancelled by their budget (rolled back)";
      dm_batch_seconds =
        Metrics.histogram reg "daemon_batch_seconds"
          ~help:"request latency, admission to response";
    }
  in
  let t =
    {
      cfg;
      w;
      reg;
      listener;
      http = None;
      tenants = Hashtbl.create 64;
      lock = Mutex.create ();
      idle = Condition.create ();
      settle_gate = Semaphore.Counting.make cfg.d_max_settles;
      inflight = 0;
      draining = false;
      recovered = false;
      served = 0;
      cells;
    }
  in
  (* read at scrape time; the daemon lives as long as its registry *)
  let gauge name help read =
    ignore (Metrics.source reg ~help `Gauge name read : Metrics.source)
  in
  gauge "daemon_tenants" "live tenants" (fun () -> Hashtbl.length t.tenants);
  gauge "daemon_inflight" "requests in flight" (fun () -> t.inflight);
  (* the health routes close over [t], so the HTTP side binds second *)
  (match cfg.d_metrics_port with
  | None -> ()
  | Some p ->
    let h = Serve.create ~host:cfg.d_host ~port:p (routes t) in
    Serve.set_metrics h (Some t.reg);
    t.http <- Some h);
  t

let port t = Serve.port t.listener
let metrics_port t = Option.map Serve.port t.http
let metrics t = t.reg

(* ------------------------------------------------------------------ *)
(* Tenants                                                             *)
(* ------------------------------------------------------------------ *)

let find_tenant t id =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.tenants id with
  | Some e -> Some e.e_tenant
  | None -> None

let tenant_ids t =
  locked t @@ fun () ->
  List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.tenants [])

(* Get-or-create under the daemon lock. Creation recovers the tenant
   from its directory, so a restarted daemon serves a tenant's first
   request from its journaled state even before [preload] reaches it. *)
let get_tenant t id =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.tenants id with
  | Some e -> Ok e
  | None ->
    if Hashtbl.length t.tenants >= t.cfg.d_max_tenants then
      Error
        (`Unavailable ("tenant capacity " ^ string_of_int t.cfg.d_max_tenants))
    else if not (Tenant.valid_id id) then Error `Bad_id
    else begin
      let e =
        { e_tenant = Tenant.create (tenant_cfg t.cfg t.reg) t.w ~id;
          e_pending = 0 }
      in
      Hashtbl.replace t.tenants id e;
      Ok e
    end

(* Recover every tenant directory found under the state root. Runs
   before the daemon reports ready: a restarted daemon gates traffic
   ([/readyz] 503) until each tenant has been recovered. *)
let preload t =
  let tdir = Filename.concat t.cfg.d_root "tenants" in
  let ids =
    match Sys.readdir tdir with
    | entries ->
      Array.to_list entries
      |> List.filter (fun id ->
             Tenant.valid_id id
             && Sys.is_directory (Filename.concat tdir id))
      |> List.sort compare
    | exception _ -> []
  in
  List.iter
    (fun id ->
      match get_tenant t id with
      | Ok _ -> Log.info (fun m -> m "preloaded tenant %s" id)
      | Error _ -> Log.warn (fun m -> m "preload failed for tenant %s" id))
    ids;
  t.recovered <- true;
  List.length ids

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let count_status t code =
  t.served <- t.served + 1;
  match List.assoc_opt code t.cells.dm_req with
  | Some c -> Metrics.inc c
  | None -> Metrics.inc t.cells.dm_req_other

let reply t ?id ?(extra = []) code =
  count_status t code;
  let idf = match id with None -> [] | Some v -> [ ("id", v) ] in
  Json.Obj (idf @ (("status", Json.Num (float_of_int code)) :: extra))

let err t ?id code msg ~retry_after:ra =
  let extra =
    [ ("error", Json.Str msg) ]
    @
    match ra with
    | None -> []
    | Some s ->
      [ ("retry_after_ms", Json.Num (Float.max 1. (Float.round (s *. 1000.)))) ]
  in
  reply t ?id ~extra code

(* Admission: reserve a slot in the global and the per-tenant queue, or
   shed. Returns a release closure that must run exactly once. *)
let admit t entry =
  locked t @@ fun () ->
  if t.inflight >= t.cfg.d_global_queue then begin
    Metrics.inc t.cells.dm_shed_global;
    Error (`Shed_global t.inflight)
  end
  else if entry.e_pending >= t.cfg.d_tenant_queue then begin
    Metrics.inc t.cells.dm_shed_tenant;
    Error (`Shed_tenant entry.e_pending)
  end
  else begin
    t.inflight <- t.inflight + 1;
    entry.e_pending <- entry.e_pending + 1;
    Ok
      (fun () ->
        locked t @@ fun () ->
        t.inflight <- t.inflight - 1;
        entry.e_pending <- entry.e_pending - 1;
        if t.inflight = 0 then Condition.broadcast t.idle)
  end

(* Sheds quote a retry hint proportional to the congestion they saw:
   deeper queues get longer hints, bounded to keep retries live. *)
let retry_hint depth = Float.min 2.0 (0.05 *. float_of_int (max 1 depth))

(* The batch fields of a request, typed: the ops (absent is an empty
   batch), [deadline_ms] (a number) and [max_steps] (a positive
   integer), or the 400 message for the first ill-typed one. *)
let batch_fields req =
  let num key =
    match Json.member key req with
    | None -> Ok None
    | Some v -> (
      match Json.to_float v with
      | Some f -> Ok (Some f)
      | None -> Error (key ^ " must be a number"))
  in
  match (Json.member "ops" req, num "deadline_ms", num "max_steps") with
  | Some v, _, _ when Json.to_list v = None -> Error "ops must be an array"
  | _, Error m, _ | _, _, Error m -> Error m
  | _, _, Ok (Some n)
    when not (Float.is_integer n && n >= 1. && n < float_of_int max_int) ->
    Error "max_steps must be a positive integer"
  | ops, Ok deadline_ms, Ok max_steps ->
    Ok
      ( Option.value ~default:[] (Option.bind ops Json.to_list),
        deadline_ms,
        Option.map int_of_float max_steps )

let submit t req =
  let id = Json.member "id" req in
  if t.draining then err t ?id 503 "draining" ~retry_after:(Some 1.0)
  else
    match Json.member "op" req with
    | Some (Json.Str "ping") ->
      reply t ?id ~extra:[ ("pong", Json.Bool true) ] 200
    | Some _ -> err t ?id 400 "unknown daemon op" ~retry_after:None
    | None -> (
      match Option.bind (Json.member "tenant" req) Json.to_str with
      | None -> err t ?id 400 "missing tenant" ~retry_after:None
      | Some tid when not (Tenant.valid_id tid) ->
        err t ?id 400 "invalid tenant id" ~retry_after:None
      | Some tid -> (
        match batch_fields req with
        | Error msg -> err t ?id 400 msg ~retry_after:None
        | Ok (ops, deadline_ms, max_steps) -> (
        match get_tenant t tid with
        | Error `Bad_id -> err t ?id 400 "invalid tenant id" ~retry_after:None
        | Error (`Unavailable msg) ->
          err t ?id 503 msg ~retry_after:(Some 1.0)
        | Ok entry -> (
          match admit t entry with
          | Error (`Shed_global depth) ->
            err t ?id 503 "overloaded: global queue full"
              ~retry_after:(Some (retry_hint depth))
          | Error (`Shed_tenant depth) ->
            err t ?id 503
              ("overloaded: tenant queue full for " ^ tid)
              ~retry_after:(Some (retry_hint depth))
          | Ok release ->
            Fun.protect ~finally:release @@ fun () ->
            let t0 = Metrics.now () in
            Fun.protect
              ~finally:(fun () ->
                Metrics.observe_since t.cells.dm_batch_seconds t0)
            @@ fun () ->
            let now = Unix.gettimeofday () in
            let deadline =
              match deadline_ms with
              | Some ms -> Some (now +. (ms /. 1000.))
              | None -> (
                match t.cfg.d_default_deadline with
                | Some s -> Some (now +. s)
                | None -> None)
            in
            let budget =
              match (deadline, max_steps) with
              | None, None -> None
              | _ -> Some (Engine.Budget.create ?deadline ?max_steps ())
            in
            (* the settle gate bounds concurrent batch execution; time
               spent waiting here still counts against the deadline *)
            Semaphore.Counting.acquire t.settle_gate;
            Fun.protect
              ~finally:(fun () -> Semaphore.Counting.release t.settle_gate)
            @@ fun () ->
            let now = Unix.gettimeofday () in
            match deadline with
            | Some d when now > d ->
              Metrics.inc t.cells.dm_cancelled;
              err t ?id 408 "deadline exceeded in queue" ~retry_after:None
            | _ -> (
              match Tenant.submit entry.e_tenant ?budget ~now ops with
              | Ok results ->
                reply t ?id ~extra:[ ("results", Json.Arr results) ] 200
              | Error (Tenant.Cancelled msg) ->
                Metrics.inc t.cells.dm_cancelled;
                err t ?id 408 msg ~retry_after:None
              | Error (Tenant.Rejected msg) ->
                err t ?id 400 msg ~retry_after:None
              | Error (Tenant.Unavailable { reason; retry_after }) ->
                err t ?id 503 reason ~retry_after:(Some retry_after))))))

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

let handle_conn t fd =
  let ic = Unix.in_channel_of_descr fd in
  let rec loop () =
    match input_line ic with
    | line ->
      let line = String.trim line in
      if line <> "" then begin
        let resp =
          match Json.of_string_opt line with
          | None -> err t 400 "bad json" ~retry_after:None
          | Some req -> ( try submit t req with _ -> reply t 500)
        in
        Serve.write_all fd (Json.to_string resp ^ "\n")
      end;
      loop ()
    | exception End_of_file -> ()
    | exception _ -> ()
  in
  loop ()

let drain t =
  (* async-signal-safe enough: a flag write plus closing the listener
     (which wakes the blocked accept); the run loop does the waiting *)
  t.draining <- true;
  Serve.close t.listener

(* Wait for in-flight requests to retire, at most [d_drain_grace]
   seconds. A ticker thread pokes the condition so the wait cannot hang
   on a wedged request. *)
let wait_idle t =
  let deadline = Unix.gettimeofday () +. t.cfg.d_drain_grace in
  let ticker =
    Thread.create
      (fun () ->
        while
          Unix.gettimeofday () < deadline
          && locked t (fun () -> t.inflight > 0)
        do
          Thread.delay 0.1;
          locked t (fun () -> Condition.broadcast t.idle)
        done)
      ()
  in
  Mutex.lock t.lock;
  while t.inflight > 0 && Unix.gettimeofday () < deadline do
    Condition.wait t.idle t.lock
  done;
  let leftover = t.inflight in
  Mutex.unlock t.lock;
  Thread.join ticker;
  if leftover > 0 then
    Log.warn (fun m -> m "drain: %d request(s) still in flight" leftover)

let checkpoint_all t =
  let tenants =
    locked t @@ fun () ->
    Hashtbl.fold (fun _ e acc -> e.e_tenant :: acc) t.tenants []
  in
  List.iter
    (fun tn ->
      try Tenant.stop tn
      with e ->
        Log.warn (fun m ->
            m "checkpoint of tenant %s failed: %s" (Tenant.id tn)
              (Printexc.to_string e)))
    tenants

let run t =
  (match t.http with
  | None -> ()
  | Some h ->
    ignore
      (Thread.create (fun () -> try Serve.serve_forever h with _ -> ()) ()
        : Thread.t));
  let n = preload t in
  Log.info (fun m ->
      m "alphonsed: serving on %s:%d (%d tenant(s) recovered)" t.cfg.d_host
        (port t) n);
  let rec loop () =
    match Serve.accept t.listener with
    | None -> ()
    | Some fd ->
      ignore
        (Thread.create
           (fun () ->
             Fun.protect
               ~finally:(fun () -> try Unix.close fd with _ -> ())
               (fun () -> try handle_conn t fd with _ -> ()))
           ()
          : Thread.t);
      loop ()
  in
  loop ();
  t.draining <- true;
  Log.info (fun m -> m "alphonsed: draining (%d in flight)" t.inflight);
  wait_idle t;
  checkpoint_all t;
  (match t.http with Some h -> Serve.close h | None -> ());
  Log.info (fun m -> m "alphonsed: drained, %d request(s) served" t.served)

let start t = Thread.create (fun () -> run t) ()

let install_signal_handlers t =
  let handler _ = drain t in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle handler) with _ -> ());
  try Sys.set_signal Sys.sigint (Sys.Signal_handle handler) with _ -> ()

let served t = t.served
let inflight t = locked t @@ fun () -> t.inflight
let draining t = t.draining
