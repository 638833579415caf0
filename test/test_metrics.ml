(* The observability surface: registry semantics (get-or-create, label
   series, kind clashes), quantile estimation, exposition formats, the
   engine's series as scrape-time projections of its stats, the
   telemetry ring's overflow accounting, the HTTP exposition endpoint,
   and the flight recorder's incident reports. *)

module Engine = Alphonse.Engine
module Var = Alphonse.Var
module Func = Alphonse.Func
module Metrics = Alphonse.Metrics
module Telemetry = Alphonse.Telemetry
module Flight = Alphonse.Flight
module Durable = Alphonse.Durable
module Serve = Alphonse.Serve
module Json = Alphonse.Json

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_basics () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "widgets_total" ~help:"widgets" in
  Metrics.inc c;
  Metrics.add c 4;
  checki "counter accumulates" 5 (Metrics.counter_value c);
  (* get-or-create: same (name, labels) resolves to the same cell *)
  let c' = Metrics.counter reg "widgets_total" in
  Metrics.inc c';
  checki "same cell through re-registration" 6 (Metrics.counter_value c);
  (* distinct label sets are distinct series *)
  let ok = Metrics.counter reg "rpcs_total" ~labels:[ ("code", "200") ] in
  let bad = Metrics.counter reg "rpcs_total" ~labels:[ ("code", "500") ] in
  Metrics.inc ok;
  Metrics.inc ok;
  Metrics.inc bad;
  checki "labeled series independent" 2 (Metrics.counter_value ok);
  checki "labeled series independent (2)" 1 (Metrics.counter_value bad);
  let g = Metrics.gauge reg "depth" in
  Metrics.set g 3.5;
  Alcotest.(check (float 1e-9)) "gauge holds last set" 3.5 (Metrics.gauge_value g);
  (* a name registered as one kind cannot come back as another *)
  (match Metrics.gauge reg "widgets_total" with
  | _ -> Alcotest.fail "expected Invalid_argument on kind clash"
  | exception Invalid_argument _ -> ())

let test_histogram () =
  let reg = Metrics.create () in
  let h =
    Metrics.histogram reg "lat_seconds" ~bounds:[| 1e-3; 1e-2; 1e-1 |]
  in
  List.iter (Metrics.observe h) [ 5e-4; 5e-3; 5e-3; 5e-2; 2.0 ];
  checki "count" 5 (Metrics.histogram_count h);
  checkb "sum" true (abs_float (Metrics.histogram_sum h -. 2.0605) < 1e-6);
  (* bounds get an implicit +Inf bucket; counts are per-bucket *)
  Alcotest.(check (array int))
    "bucket counts" [| 1; 2; 1; 1 |] (Metrics.histogram_counts h)

let test_quantiles () =
  let bounds = [| 1e-3; 1e-2; 1e-1; infinity |] in
  (* everything in the (1e-3, 1e-2] bucket: all quantiles interpolate
     inside it, geometrically, and stay ordered *)
  let counts = [| 0; 100; 0; 0 |] in
  let p50, p90, p99 = Metrics.quantiles ~counts ~bounds in
  checkb "p50 inside its bucket" true (p50 > 1e-3 && p50 <= 1e-2);
  checkb "p99 inside its bucket" true (p99 > 1e-3 && p99 <= 1e-2);
  checkb "ordered" true (p50 <= p90 && p90 <= p99);
  (* empty histogram: nan, not an exception *)
  let p50, _, _ = Metrics.quantiles ~counts:[| 0; 0; 0; 0 |] ~bounds in
  checkb "empty is nan" true (Float.is_nan p50);
  (* mass split across buckets: the p99 rank lands in the top one *)
  let p50, _, p99 = Metrics.quantiles ~counts:[| 90; 0; 10; 0 |] ~bounds in
  checkb "p50 in bottom bucket" true (p50 <= 1e-3);
  checkb "p99 in top finite bucket" true (p99 > 1e-2 && p99 <= 1e-1)

let test_exposition () =
  let reg = Metrics.create ~namespace:"t" () in
  let c = Metrics.counter reg "reqs_total" ~help:"requests" ~labels:[ ("code", "200") ] in
  Metrics.inc c;
  Metrics.inc c;
  let h = Metrics.histogram reg "lat_seconds" ~bounds:[| 0.01; 0.1 |] in
  Metrics.observe h 0.005;
  Metrics.observe h 0.05;
  let text = Metrics.to_prometheus reg in
  List.iter
    (fun needle ->
      checkb (Printf.sprintf "prometheus text has %S" needle) true
        (contains text needle))
    [
      "# HELP t_reqs_total requests";
      "# TYPE t_reqs_total counter";
      "t_reqs_total{code=\"200\"} 2";
      "# TYPE t_lat_seconds histogram";
      "t_lat_seconds_bucket{le=\"0.01\"} 1";
      "t_lat_seconds_bucket{le=\"+Inf\"} 2";
      "t_lat_seconds_count 2";
    ];
  let j = Metrics.to_json reg in
  checks "json schema tag" "alphonse-metrics/1"
    (Option.value ~default:"?" (Option.bind (Json.member "schema" j) Json.to_str));
  (* the JSON rendering round-trips through the in-repo parser *)
  checkb "json reparses" true
    (Json.of_string_opt (Json.to_string j) <> None)

(* ------------------------------------------------------------------ *)
(* Engine instrumentation: exact totals                               *)
(* ------------------------------------------------------------------ *)

(* A fan: one input, [width] siblings, a top sum. *)
let fan ~width () =
  let eng = Engine.create ~default_strategy:Engine.Eager () in
  let a = Var.create eng ~name:"a" 1 in
  let mids =
    List.init width (fun i ->
        Func.create eng ~name:(Printf.sprintf "mid%d" i) (fun _ () ->
            Var.get a + i))
  in
  let top =
    Func.create eng ~name:"top" (fun _ () ->
        List.fold_left (fun acc f -> acc + Func.call f ()) 0 mids)
  in
  (eng, a, top)

(* Every engine family in the registry, as the projection of
   [Engine.stats] it reports. *)
let engine_families =
  let open Engine in
  [
    ("settles_total", [ ("mode", "serial") ], fun s -> s.settles);
    ("settle_steps_total", [], fun s -> s.settle_steps);
    ("executions_total", [ ("kind", "first") ], fun s -> s.first_executions);
    ( "executions_total",
      [ ("kind", "re") ],
      fun s -> s.executions - s.first_executions );
    ("cache_hits_total", [], fun s -> s.cache_hits);
    ("cutoffs_total", [], fun s -> s.cutoffs);
    ("quarantines_total", [], fun s -> s.failures - s.poisonings);
    ("poisonings_total", [], fun s -> s.poisonings);
    ("retries_total", [], fun s -> s.retries);
    ("degradations_total", [], fun s -> s.degradations);
    ("rollbacks_total", [], fun s -> s.rollbacks);
    ("cancellations_total", [], fun s -> s.cancellations);
  ]

let family_values reg =
  List.map
    (fun (name, labels, _) ->
      Metrics.counter_value (Metrics.counter reg ~labels name))
    engine_families

(* The registry must agree exactly with the engine's own stats. *)
let check_families what reg (st : Engine.stats) =
  List.iter2
    (fun (name, labels, proj) v ->
      let series =
        name
        ^ String.concat ""
            (List.map (fun (k, v) -> Printf.sprintf "{%s=%s}" k v) labels)
      in
      checki (Printf.sprintf "%s: %s exact" what series) (proj st) v)
    engine_families (family_values reg)

let check_engine_counters ~rounds ~width () =
  let eng, a, top = fan ~width () in
  let reg = Metrics.create () in
  Engine.set_metrics eng (Some reg);
  ignore (Func.call top ());
  for i = 1 to rounds do
    (* values never repeat the initial 1: a same-value write is cut off
       at the cell and would make the settle a no-op session *)
    Var.set a (100 + i);
    Engine.stabilize eng;
    ignore (Func.call top ())
  done;
  let st = Engine.stats eng in
  let counter ?labels name = Metrics.counter_value (Metrics.counter reg ?labels name) in
  (* the registry must agree exactly with the engine's own stats *)
  checki "first executions exact" st.Engine.first_executions
    (counter "executions_total" ~labels:[ ("kind", "first") ]);
  checki "re-executions exact"
    (st.Engine.executions - st.Engine.first_executions)
    (counter "executions_total" ~labels:[ ("kind", "re") ]);
  checki "cache hits exact" st.Engine.cache_hits (counter "cache_hits_total");
  checki "settle steps exact" st.Engine.settle_steps
    (counter "settle_steps_total");
  check_families "fan" reg st;
  reg

let test_serial_counters () =
  let reg = check_engine_counters ~rounds:8 ~width:8 () in
  checki "serial settles counted" 8
    (Metrics.counter_value
       (Metrics.counter reg "settles_total" ~labels:[ ("mode", "serial") ]))

(* A stabilize with nothing left to do is not a session, also when the
   work was done by the settle each [Func.call] runs on its partition:
   that settle used to leave the partition on the dirty list, so every
   such stabilize counted a serial session that took no step. *)
let test_quiescent_stabilize_not_a_session () =
  let eng, a, top = fan ~width:4 () in
  let reg = Metrics.create () in
  Engine.set_metrics eng (Some reg);
  ignore (Func.call top ());
  for i = 1 to 5 do
    Var.set a (100 + i);
    ignore (Func.call top ());
    let steps = (Engine.stats eng).Engine.settle_steps in
    Engine.stabilize eng;
    checki "the call did every settle step" steps
      (Engine.stats eng).Engine.settle_steps
  done;
  checki "no serial session counted" 0
    (Metrics.counter_value
       (Metrics.counter reg "settles_total" ~labels:[ ("mode", "serial") ]))

(* A program that takes every counted path: a cutoff, a quarantine, a
   retry that poisons, a rollback, a budget cancellation and a
   degradation to exhaustive evaluation. *)
let eventful () =
  let eng = Engine.create ~default_strategy:Engine.Eager ~max_retries:2 () in
  let a = Var.create eng ~name:"a" 1 in
  let b = Var.create eng ~name:"b" 2 in
  let f =
    Func.create eng ~name:"f" (fun _ () ->
        if Var.get a = 13 then failwith "unlucky";
        Var.get a)
  in
  let parity = Func.create eng ~name:"parity" (fun _ () -> Var.get b mod 2) in
  let top =
    Func.create eng ~name:"top" (fun _ () -> Func.call parity () + Var.get b)
  in
  let run () =
    ignore (Func.call f ());
    ignore (Func.call top ());
    (* parity re-executes to the same value: a cutoff *)
    Var.set b 4;
    Engine.stabilize eng;
    ignore (Func.call top ());
    (* f raises: quarantined, retried at the next settle, poisoned *)
    Var.set a 13;
    Engine.stabilize eng;
    Engine.stabilize eng;
    (try
       Engine.transact eng (fun () ->
           Var.set b 6;
           failwith "abort")
     with Failure _ -> ());
    let budget = Engine.Budget.create () in
    Engine.Budget.cancel budget;
    (try
       Engine.with_budget eng budget (fun () ->
           Var.set b 8;
           Engine.stabilize eng)
     with Engine.Cancelled _ -> ());
    Engine.stabilize eng;
    Engine.degrade_to_exhaustive eng;
    ignore (Func.call top ())
  in
  (eng, run)

let test_every_family_is_a_projection () =
  let eng, run = eventful () in
  let reg = Metrics.create () in
  Engine.set_metrics eng (Some reg);
  run ();
  let st = Engine.stats eng in
  List.iter
    (fun (what, n) -> checkb (what ^ " happened") true (n > 0))
    Engine.
      [
        ("cutoff", st.cutoffs);
        ("quarantine", st.failures - st.poisonings);
        ("retry", st.retries);
        ("poisoning", st.poisonings);
        ("rollback", st.rollbacks);
        ("cancellation", st.cancellations);
        ("degradation", st.degradations);
      ];
  check_families "eventful" reg st

let test_engines_sum () =
  let reg = Metrics.create () in
  let e1, run1 = eventful () and e2, run2 = eventful () in
  Engine.set_metrics e1 (Some reg);
  Engine.set_metrics e2 (Some reg);
  run1 ();
  run2 ();
  let s1 = Engine.stats e1 and s2 = Engine.stats e2 in
  List.iter2
    (fun (name, _, proj) v ->
      checki (name ^ " sums both engines") (proj s1 + proj s2) v)
    engine_families (family_values reg)

(* [reset_stats] and [import] move what [stats] reports, never what the
   registry has counted. *)
let test_reset_and_import_leave_registry () =
  let eng, run = eventful () in
  let reg = Metrics.create () in
  Engine.set_metrics eng (Some reg);
  run ();
  let snap = Engine.export eng in
  let a = Var.create eng ~name:"a2" 1 in
  let g = Func.create eng ~name:"g" (fun _ () -> Var.get a + 1) in
  ignore (Func.call g ());
  let before = Metrics.to_prometheus reg in
  Engine.reset_stats eng;
  checki "reset zeroes stats" 0 (Engine.stats eng).Engine.executions;
  checks "reset leaves the registry" before (Metrics.to_prometheus reg);
  ignore (Engine.import eng snap : int * string list);
  checki "import restores stats"
    (Option.get
       (Option.bind (Json.member "stats" snap) (fun j ->
            Option.bind (Json.member "executions" j) Json.to_float))
    |> int_of_float)
    (Engine.stats eng).Engine.executions;
  checks "import leaves the registry" before (Metrics.to_prometheus reg);
  (* and the registry keeps counting from where it was *)
  let re () =
    Metrics.counter_value
      (Metrics.counter reg ~labels:[ ("kind", "re") ] "executions_total")
  in
  let re0 = re () in
  Var.set a 5;
  ignore (Func.call g ());
  checki "counting resumes" (re0 + 1) (re ())

(* Detaching freezes every series at its value; re-attaching counts on
   from there, once. Events while detached, or before the first attach,
   are not counted. *)
let test_detach_and_reattach () =
  let eng, a, top = fan ~width:4 () in
  ignore (Func.call top ());
  let reg = Metrics.create () in
  Engine.set_metrics eng (Some reg);
  checkb "events before the first attach are not counted" true
    (List.for_all (( = ) 0) (family_values reg));
  let edit v =
    Var.set a v;
    Engine.stabilize eng;
    ignore (Func.call top ())
  in
  let s0 = Engine.stats eng in
  edit 10;
  let s1 = Engine.stats eng in
  Engine.set_metrics eng None;
  let frozen = family_values reg in
  edit 11;
  checkb "detached series stay frozen" true (frozen = family_values reg);
  let s2 = Engine.stats eng in
  Engine.set_metrics eng (Some reg);
  Engine.set_metrics eng (Some reg);
  edit 12;
  let s3 = Engine.stats eng in
  List.iter2
    (fun (name, _, proj) v ->
      checki (name ^ " counts attached spans once")
        (proj s1 - proj s0 + (proj s3 - proj s2))
        v)
    engine_families (family_values reg)

(* The registry holds a released engine through nothing: once detached,
   an engine is garbage like any other. *)
let test_detached_engine_collectable () =
  let reg = Metrics.create () in
  let collected = ref false in
  let attach_and_drop () =
    let eng, a, top = fan ~width:4 () in
    Engine.set_metrics eng (Some reg);
    ignore (Func.call top ());
    Var.set a 7;
    Engine.stabilize eng;
    Engine.set_metrics eng None;
    Gc.finalise (fun _ -> collected := true) eng
  in
  attach_and_drop ();
  Gc.full_major ();
  Gc.full_major ();
  checkb "detached engine collected" true !collected;
  checkb "its counts outlive it" true
    (Metrics.counter_value
       (Metrics.counter reg ~labels:[ ("kind", "first") ] "executions_total")
    > 0)

(* ------------------------------------------------------------------ *)
(* Telemetry ring overflow accounting (the silent-discard bugfix)      *)
(* ------------------------------------------------------------------ *)

let test_ring_overflow () =
  let tm = Telemetry.create ~capacity:4 () in
  let reg = Metrics.create () in
  Telemetry.set_metrics tm (Some reg);
  for i = 1 to 10 do
    Telemetry.emit tm (Telemetry.Marked { id = i; name = "x"; cause = None })
  done;
  checki "ring keeps only the window" 4 (List.length (Telemetry.events tm));
  checki "total emitted" 10 (Telemetry.total_emitted tm);
  checki "drops counted" 6 (Telemetry.dropped tm);
  checki "drops surfaced in the registry" 6
    (Metrics.counter_value (Metrics.counter reg "telemetry_dropped_total"));
  (* and in the trace export, so a truncated trace is never mistaken
     for a complete one *)
  checkb "trace declares droppedEvents" true
    (contains (Telemetry.to_chrome_trace tm) "droppedEvents")

(* ------------------------------------------------------------------ *)
(* HTTP exposition endpoint                                            *)
(* ------------------------------------------------------------------ *)

let http_get ~port target =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" target in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 512 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      in
      drain ();
      Buffer.contents buf)

let test_serve_roundtrip () =
  let reg = Metrics.create () in
  Metrics.inc (Metrics.counter reg "pings_total");
  let srv =
    Serve.create ~port:0
      [
        ("/metrics", fun () -> Serve.text (Metrics.to_prometheus reg));
        ("/healthz", fun () -> Serve.text "ok\n");
        ("/boom", fun () -> failwith "handler bug");
      ]
  in
  let port = Serve.port srv in
  checkb "port 0 picked a real port" true (port > 0);
  let client =
    Domain.spawn (fun () ->
        let m = http_get ~port "/metrics" in
        let h = http_get ~port "/healthz?verbose=1" in
        let missing = http_get ~port "/nope" in
        let err = http_get ~port "/boom" in
        (m, h, missing, err))
  in
  Serve.serve ~max_requests:4 srv;
  let m, h, missing, err = Domain.join client in
  Serve.close srv;
  checkb "metrics scrape is 200" true (contains m "HTTP/1.0 200");
  checkb "metrics body served" true (contains m "alphonse_pings_total 1");
  checkb "prometheus content type" true (contains m "text/plain; version=0.0.4");
  checkb "query string stripped" true (contains h "ok\n");
  checkb "unknown path is 404" true (contains missing "HTTP/1.0 404");
  checkb "raising handler is 503" true (contains err "HTTP/1.0 503")

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let fresh_dir what =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "alphonse-test-%s-%d" what (Unix.getpid ()))
  in
  rm_rf dir;
  dir

let test_flight_incident () =
  let dir = fresh_dir "incidents" in
  let tm = Telemetry.create ~capacity:64 () in
  let reg = Metrics.create () in
  let eng = Engine.create ~max_retries:3 () in
  Engine.set_telemetry eng (Some tm);
  Engine.set_metrics eng (Some reg);
  let fl = Flight.arm ~metrics:reg ~dir ~last:32 tm in
  let a = Var.create eng ~name:"a" 1 in
  let f =
    Func.create eng ~name:"f" (fun _ () ->
        if Var.get a = 13 then failwith "unlucky";
        Var.get a * 2)
  in
  checki "graph works" 2 (Func.call f ());
  checki "no incident yet" 0 (Flight.written fl);
  Var.set a 13;
  (match Func.call f () with
  | _ -> Alcotest.fail "expected raise"
  | exception Failure _ -> ());
  (* the quarantine fired the recorder *)
  checki "one incident report" 1 (Flight.written fl);
  let path = List.hd (Flight.reports fl) in
  checkb "report under the armed dir" true (contains path dir);
  let body =
    In_channel.with_open_bin path (fun ic ->
        really_input_string ic (In_channel.length ic |> Int64.to_int))
  in
  let j =
    match Json.of_string_opt body with
    | Some j -> j
    | None -> Alcotest.fail "incident report is not valid JSON"
  in
  let str path_keys =
    List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j)
      path_keys
    |> Fun.flip Option.bind Json.to_str
  in
  checks "schema" "alphonse-incident/1" (Option.value ~default:"?" (str [ "schema" ]));
  checks "trigger kind" "quarantine"
    (Option.value ~default:"?" (str [ "trigger"; "kind" ]));
  checks "trigger names the instance" "f"
    (Option.value ~default:"?" (str [ "trigger"; "name" ]));
  checkb "events window present" true
    (Option.bind (Json.member "events" j) Json.to_list <> None);
  checkb "metrics snapshot embedded" true
    (match Option.bind (Json.member "metrics" j) (Json.member "schema") with
    | Some (Json.Str "alphonse-metrics/1") -> true
    | _ -> false);
  rm_rf dir

(* A degraded crash recovery is one anomaly, so it writes one report: the
   exhaustive fallback recovery takes emits no event of its own. *)
let test_flight_degraded_recovery () =
  let state = fresh_dir "recovery"
  and incidents = fresh_dir "recovery-incidents" in
  let domain eng =
    let x = Var.create eng ~name:"x" 0 in
    let set j = Var.set x (int_of_float (Option.get (Json.to_float j))) in
    { Durable.p_save = (fun () -> Json.Num (float_of_int (Var.get x)));
      p_load = set; p_apply = set }
  in
  (* a first life: one journaled write, then a checkpoint *)
  let eng = Engine.create () in
  let p = domain eng in
  let s = Durable.attach ~dir:state eng p in
  Durable.journal_op s (Json.Num 7.);
  p.Durable.p_apply (Json.Num 7.);
  let snap = Durable.checkpoint s in
  Durable.detach s;
  (* the only snapshot fails its checksum: recovery degrades *)
  let bytes =
    Bytes.of_string (In_channel.with_open_bin snap In_channel.input_all)
  in
  let i = Bytes.length bytes - 2 in
  Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0xff));
  Out_channel.with_open_bin snap (fun oc -> Out_channel.output_bytes oc bytes);
  let eng = Engine.create () in
  let tm = Telemetry.create () in
  Engine.set_telemetry eng (Some tm);
  let fl = Flight.arm ~dir:incidents tm in
  let o = Durable.recover ~dir:state eng (domain eng) in
  checkb "recovery degraded" true o.Durable.o_degraded;
  checki "one incident report" 1 (Flight.written fl);
  let j =
    Json.of_string
      (In_channel.with_open_bin (List.hd (Flight.reports fl))
         In_channel.input_all)
  in
  checks "trigger kind" "recovery-degradation"
    (Option.value ~default:"?"
       (Option.bind
          (Option.bind (Json.member "trigger" j) (Json.member "kind"))
          Json.to_str));
  rm_rf incidents;
  rm_rf state

let () =
  Alcotest.run "metrics"
    [
      ( "registry",
        [
          Alcotest.test_case "counters, gauges, labels, kinds" `Quick
            test_registry_basics;
          Alcotest.test_case "histogram buckets" `Quick test_histogram;
          Alcotest.test_case "quantile estimation" `Quick test_quantiles;
          Alcotest.test_case "prometheus and json exposition" `Quick
            test_exposition;
        ] );
      ( "engine",
        [
          Alcotest.test_case "serial counters exact" `Quick
            test_serial_counters;
          Alcotest.test_case "quiescent stabilize is not a session" `Quick
            test_quiescent_stabilize_not_a_session;
          Alcotest.test_case "every family is a projection of stats" `Quick
            test_every_family_is_a_projection;
          Alcotest.test_case "engines sharing a registry sum" `Quick
            test_engines_sum;
          Alcotest.test_case "reset_stats and import leave the registry"
            `Quick test_reset_and_import_leave_registry;
          Alcotest.test_case "detach freezes, re-attach counts once" `Quick
            test_detach_and_reattach;
          Alcotest.test_case "a detached engine is collectable" `Quick
            test_detached_engine_collectable;
        ] );
      ( "telemetry",
        [ Alcotest.test_case "ring overflow is counted" `Quick test_ring_overflow ] );
      ( "serve",
        [ Alcotest.test_case "scrape round-trip" `Quick test_serve_roundtrip ] );
      ( "flight",
        [
          Alcotest.test_case "quarantine writes an incident report" `Quick
            test_flight_incident;
          Alcotest.test_case "degraded recovery writes one incident report"
            `Quick test_flight_degraded_recovery;
        ] );
    ]
