(* Flight recorder: always-on incident reports from the telemetry
   stream.

   [arm] chains a sink onto a recorder. On every anomalous event — a
   quarantine, a poisoning, a degraded crash recovery — it dumps an incident report: the last window of telemetry
   events, a metrics snapshot (when a registry is armed alongside), and
   the provenance chain ([why_recomputed]) of the node that failed, into
   one timestamped JSON file. The report is written from state already
   in hand (the bounded ring IS the flight buffer), so the steady-state
   cost of being armed is one sink call per event; file I/O happens only
   when something already went wrong.

   Reports are capped ([max_reports], 16): a crash loop must
   not fill the disk with identical incidents. The cap trips once per
   armed recorder; long-running processes re-arm after acting on the
   incidents. *)

type t = {
  tm : Telemetry.t;
  metrics : Metrics.t option;
  dir : string;
  last : int;
  mutable written : int;
  mutable seq : int; (* per-process filename discriminator *)
  mutable reports : string list; (* newest first *)
  mutable writing : bool; (* re-entrancy guard: reporting emits nothing,
                             but stay safe if that ever changes *)
}

let triggers = [ "quarantine"; "poison"; "recovery-degradation" ]

let trigger_of_event = function
  | Telemetry.Quarantined _ -> Some "quarantine"
  | Telemetry.Instance_poisoned _ -> Some "poison"
  | Telemetry.Recovery_finished { degraded = true; _ } ->
    Some "recovery-degradation"
  | _ -> None

let trigger_node = function
  | Telemetry.Quarantined { id; name; _ }
  | Telemetry.Instance_poisoned { id; name; _ } ->
    Some (id, name)
  | _ -> None

let event_str ev = Fmt.str "%a" Telemetry.pp_event ev

let record_json (r : Telemetry.record) =
  Json.Obj
    [
      ("seq", Json.Num (float_of_int r.Telemetry.seq));
      ("at", Json.Num r.Telemetry.at);
      ("event", Json.Str (event_str r.Telemetry.ev));
    ]

let why_json why =
  Json.Arr
    (List.map
       (fun (s : Telemetry.why_step) ->
         Json.Obj
           [
             ("id", Json.Num (float_of_int s.Telemetry.step_id));
             ("name", Json.Str s.Telemetry.step_name);
             ("at", Json.Num s.Telemetry.step_at);
             ( "role",
               Json.Str
                 (match s.Telemetry.step_role with
                 | `Written -> "written"
                 | `Marked_by c -> Printf.sprintf "marked-by:#%d" c
                 | `Executed -> "executed") );
           ])
       why)

let last_n n l =
  let len = List.length l in
  if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

let report f trigger ev =
  let now = Unix.gettimeofday () in
  let events = last_n f.last (Telemetry.events f.tm) in
  let why =
    match trigger_node ev with
    | None -> Json.Null
    | Some (id, _) -> (
      match Telemetry.why_recomputed f.tm ~id with
      | None -> Json.Null
      | Some w -> why_json w)
  in
  let trigger_obj =
    Json.Obj
      (("kind", Json.Str trigger)
      :: ("event", Json.Str (event_str ev))
      ::
      (match trigger_node ev with
      | None -> []
      | Some (id, name) ->
        [ ("id", Json.Num (float_of_int id)); ("name", Json.Str name) ]))
  in
  let body =
    Json.Obj
      [
        ("schema", Json.Str "alphonse-incident/1");
        ("at", Json.Num now);
        ("trigger", trigger_obj);
        ( "telemetry",
          Json.Obj
            [
              ("dropped", Json.Num (float_of_int (Telemetry.dropped f.tm)));
              ( "total_emitted",
                Json.Num (float_of_int (Telemetry.total_emitted f.tm)) );
            ] );
        ("events", Json.Arr (List.map record_json events));
        ( "metrics",
          match f.metrics with None -> Json.Null | Some reg -> Metrics.to_json reg
        );
        ("why", why);
      ]
  in
  let tm = Unix.gmtime now in
  let name =
    Printf.sprintf "incident-%04d%02d%02dT%02d%02d%02d-%03d.json"
      (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
      tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec f.seq
  in
  f.seq <- f.seq + 1;
  Wal.mkdir_p f.dir;
  let path = Filename.concat f.dir name in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string body);
      output_char oc '\n');
  f.written <- f.written + 1;
  f.reports <- path :: f.reports;
  path

let max_reports = 16

let arm ?metrics ?(dir = "incidents") ?(last = 256) ?on_report tm =
  if last < 1 then invalid_arg "Flight.arm: last must be >= 1";
  let f =
    {
      tm;
      metrics;
      dir;
      last;
      written = 0;
      seq = 0;
      reports = [];
      writing = false;
    }
  in
  let prev = Telemetry.sink tm in
  let sink (r : Telemetry.record) =
    (match prev with None -> () | Some g -> g r);
    match trigger_of_event r.Telemetry.ev with
    | None -> ()
    | Some trigger ->
      if f.written < max_reports && not f.writing then begin
        f.writing <- true;
        Fun.protect
          ~finally:(fun () -> f.writing <- false)
          (fun () ->
            match report f trigger r.Telemetry.ev with
            | path -> (
              match on_report with None -> () | Some g -> g path)
            | exception _ ->
              (* reporting must never take the engine down with it; an
                 unwritable incident dir loses the report, nothing else *)
              ())
      end
  in
  Telemetry.set_sink tm (Some sink);
  f

let reports f = List.rev f.reports
let written f = f.written
let dir f = f.dir
