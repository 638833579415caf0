(* The daemon: protocol, budgets, admission control, per-tenant
   supervision, drain — plus the hardened Serve accept path. *)

module Engine = Alphonse.Engine
module Var = Alphonse.Var
module Json = Alphonse.Json
module Durable = Alphonse.Durable
module Tenant = Alphonse.Tenant
module Daemon = Alphonse.Daemon
module Faults = Alphonse.Faults
module Serve = Alphonse.Serve
module Metrics = Alphonse.Metrics
module Sheet = Spreadsheet.Sheet

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_root name =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "alphonse-daemon-%s-%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  dir

(* ------------------------------------------------------------------ *)
(* Request/response helpers                                            *)
(* ------------------------------------------------------------------ *)

let status resp =
  match Option.bind (Json.member "status" resp) Json.to_float with
  | Some f -> int_of_float f
  | None -> Alcotest.failf "response without status: %s" (Json.to_string resp)

let results resp =
  match Option.bind (Json.member "results" resp) Json.to_list with
  | Some l -> l
  | None -> Alcotest.failf "response without results: %s" (Json.to_string resp)

let has_retry_after resp = Json.member "retry_after_ms" resp <> None

let request ?deadline_ms ?max_steps ~tenant ops =
  let extra =
    (match deadline_ms with
    | Some ms -> [ ("deadline_ms", Json.Num ms) ]
    | None -> [])
    @
    match max_steps with
    | Some n -> [ ("max_steps", Json.Num (float_of_int n)) ]
    | None -> []
  in
  Json.Obj
    ([ ("id", Json.Num 1.); ("tenant", Json.Str tenant) ]
    @ extra
    @ [ ("ops", Json.Arr ops) ])

let set_op cell v =
  Json.Obj [ ("op", Json.Str "set"); ("cell", Json.Str cell); ("v", Json.Str v) ]

let get_op cell = Json.Obj [ ("op", Json.Str "get"); ("cell", Json.Str cell) ]
let render_op = Json.Obj [ ("op", Json.Str "render") ]

(* numeric value of a sheet "get" result *)
let got_num r =
  match Option.bind (Json.member "value" r) Json.to_float with
  | Some f -> f
  | None -> Alcotest.failf "get result without value: %s" (Json.to_string r)

let sheet_get d ~tenant cell =
  let resp = Daemon.submit d (request ~tenant [ get_op cell ]) in
  checki ("get " ^ cell ^ " status") 200 (status resp);
  got_num (List.hd (results resp))

let sheet_render d ~tenant =
  let resp = Daemon.submit d (request ~tenant [ render_op ]) in
  checki "render status" 200 (status resp);
  match Option.bind (Json.member "render" (List.hd (results resp))) Json.to_str with
  | Some s -> s
  | None -> Alcotest.fail "render result without render"

(* Retry a submit until the tenant comes back from a restart. *)
let await_recovery ?(timeout = 10.0) d ~tenant cell =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    let resp = Daemon.submit d (request ~tenant [ get_op cell ]) in
    match status resp with
    | 200 -> got_num (List.hd (results resp))
    | 503 when Unix.gettimeofday () -. t0 < timeout ->
      Thread.delay 0.02;
      go ()
    | s -> Alcotest.failf "tenant did not recover (last status %d)" s
  in
  go ()

(* ------------------------------------------------------------------ *)
(* A toy workload with controllable behavior                           *)
(* ------------------------------------------------------------------ *)

(* One tracked int cell. Ops: put/get/slow/boom — slow holds the tenant
   lock (shedding tests), boom crashes the session (supervision
   tests). *)
let toy () : Tenant.workload =
  {
    Tenant.w_make =
      (fun () ->
        let eng = Engine.create ~default_strategy:Engine.Eager () in
        let v = Var.create eng ~name:"v" 0 in
        let apply op =
          match Option.bind (Json.member "op" op) Json.to_str with
          | Some "put" -> (
            match Option.bind (Json.member "v" op) Json.to_float with
            | Some f ->
              Var.set v (int_of_float f);
              Json.Obj [ ("ok", Json.Bool true) ]
            | None -> raise (Tenant.Bad_op "put needs a numeric v"))
          | Some "get" -> Json.Obj [ ("v", Json.Num (float_of_int (Var.get v))) ]
          | Some "slow" ->
            Thread.delay 0.4;
            Json.Obj [ ("ok", Json.Bool true) ]
          | Some "boom" -> failwith "boom"
          | _ -> raise (Tenant.Bad_op "unknown toy op")
        in
        {
          Tenant.s_engine = eng;
          s_apply = apply;
          s_persist =
            {
              Durable.p_save = (fun () -> Json.Num (float_of_int (Var.get v)));
              p_load =
                (fun j ->
                  match Json.to_float j with
                  | Some f -> Var.set v (int_of_float f)
                  | None -> ());
              p_apply = (fun _ -> ());
            };
          s_set_journal = (fun _ -> ());
        });
  }

let toy_op name = Json.Obj [ ("op", Json.Str name) ]

let put_op n =
  Json.Obj [ ("op", Json.Str "put"); ("v", Json.Num (float_of_int n)) ]

let mem_config root =
  { (Daemon.default_config ~root ()) with Daemon.d_durable = false }

(* ------------------------------------------------------------------ *)
(* Protocol (in-process)                                               *)
(* ------------------------------------------------------------------ *)

let test_ping_and_batch () =
  let d = Daemon.create (mem_config (fresh_root "ping")) (Sheet.workload ()) in
  let pong = Daemon.submit d (Json.Obj [ ("op", Json.Str "ping") ]) in
  checki "ping status" 200 (status pong);
  checkb "pong" true (Json.member "pong" pong = Some (Json.Bool true));
  let resp =
    Daemon.submit d
      (request ~tenant:"acme" [ set_op "A1" "4"; set_op "A2" "=A1*A1"; get_op "A2" ])
  in
  checki "batch status" 200 (status resp);
  checki "three results" 3 (List.length (results resp));
  checkb "id echoed" true (Json.member "id" resp = Some (Json.Num 1.));
  Alcotest.(check (float 0.0)) "A2 = 16" 16.0 (got_num (List.nth (results resp) 2));
  checkb "tenant listed" true (List.mem "acme" (Daemon.tenant_ids d));
  checki "served counted" 2 (Daemon.served d);
  Daemon.drain d

let test_protocol_errors () =
  let d = Daemon.create (mem_config (fresh_root "errors")) (Sheet.workload ()) in
  checki "missing tenant" 400
    (status (Daemon.submit d (Json.Obj [ ("ops", Json.Arr []) ])));
  checki "invalid tenant id" 400
    (status (Daemon.submit d (request ~tenant:"../escape" [])));
  checki "unknown daemon op" 400
    (status (Daemon.submit d (Json.Obj [ ("op", Json.Str "reboot") ])));
  (* a malformed op rejects the whole batch and rolls it back *)
  let resp =
    Daemon.submit d
      (request ~tenant:"t" [ set_op "A1" "7"; Json.Obj [ ("op", Json.Str "??") ] ])
  in
  checki "bad op is a 400" 400 (status resp);
  let resp = Daemon.submit d (request ~tenant:"t" [ get_op "A1" ]) in
  checki "tenant survives a bad op" 200 (status resp);
  checkb "rejected batch rolled back" true
    (Json.member "value" (List.hd (results resp)) = Some Json.Null);
  Daemon.drain d

let test_draining_503 () =
  let d = Daemon.create (mem_config (fresh_root "drain503")) (Sheet.workload ()) in
  Daemon.drain d;
  let resp = Daemon.submit d (request ~tenant:"t" [ get_op "A1" ]) in
  checki "draining sheds" 503 (status resp);
  checkb "draining quotes retry" true (has_retry_after resp)

(* ------------------------------------------------------------------ *)
(* Budgets through the daemon                                          *)
(* ------------------------------------------------------------------ *)

let test_budget_408_rolls_back () =
  (* an eager sheet: a step budget caps eager settle work, and a write
     only flips a demand sheet's formulas, which takes no settle step *)
  let d =
    Daemon.create (mem_config (fresh_root "budget"))
      (Sheet.workload ~strategy:Alphonse.Engine.Eager ())
  in
  let resp =
    Daemon.submit d
      (request ~tenant:"t"
         (* the render forces every formula, so the next batch has real
            propagation work for the step budget to interrupt *)
         [ set_op "A1" "4"; set_op "A2" "=A1+1"; set_op "A3" "=A2+A1"; render_op ])
  in
  checki "seed batch" 200 (status resp);
  (* one settle step cannot finish this batch: cancelled + rolled back *)
  let resp =
    Daemon.submit d
      (request ~tenant:"t" ~max_steps:1 [ set_op "A1" "9"; set_op "A4" "=A3*A1" ])
  in
  checki "budget trip is a 408" 408 (status resp);
  Alcotest.(check (float 0.0)) "A1 rolled back" 4.0 (sheet_get d ~tenant:"t" "A1");
  checkb "A4 rolled back" true
    (let r = Daemon.submit d (request ~tenant:"t" [ get_op "A4" ]) in
     Json.member "value" (List.hd (results r)) = Some Json.Null);
  (* the tenant is healthy, not crashed: the same batch replays clean *)
  let resp =
    Daemon.submit d (request ~tenant:"t" [ set_op "A1" "9"; set_op "A4" "=A3*A1" ])
  in
  checki "replay commits" 200 (status resp);
  Alcotest.(check (float 0.0)) "A4 = A3*A1 = 171" 171.0
    (sheet_get d ~tenant:"t" "A4");
  (match Daemon.find_tenant d "t" with
  | Some t -> checki "no crash charged" 0 (Tenant.crashes t)
  | None -> Alcotest.fail "tenant missing");
  Daemon.drain d

(* The default, demand sheet: a write only flips its formulas, so the
   batch's work is the demand executions its read forces, and each one
   is a deadline checkpoint. The read below re-executes 2000 formulas,
   far longer than the 50 us deadline; an attempt whose deadline passes
   already in the queue (a 408 before the batch) is retried, so the
   trip checked is the one inside the batch. *)
let test_deadline_408_demand () =
  let d = Daemon.create (mem_config (fresh_root "deadline408")) (Sheet.workload ()) in
  let n = 2000 in
  let resp =
    Daemon.submit d
      (request ~tenant:"t"
         ((set_op "A1" "4"
          :: List.init n (fun i -> set_op (Fmt.str "B%d" (i + 1)) "=A1+1"))
         @ [ set_op "C1" (Fmt.str "=SUM(B1:B%d)" n); get_op "C1" ]))
  in
  checki "seed batch" 200 (status resp);
  Alcotest.(check (float 0.0)) "C1 seeded" (float_of_int (5 * n))
    (got_num (List.nth (results resp) (n + 2)));
  let rec attempt k =
    if k > 20 then Alcotest.fail "every attempt expired in the queue";
    let resp =
      Daemon.submit d
        (request ~tenant:"t" ~deadline_ms:0.05
           [ set_op "A1" "9"; set_op "A2" "=C1"; get_op "C1" ])
    in
    checki "deadline trip is a 408" 408 (status resp);
    match Option.bind (Json.member "error" resp) Json.to_str with
    | Some "deadline exceeded in queue" -> attempt (k + 1)
    | msg ->
      checks "tripped inside the batch" "deadline exceeded"
        (Option.value msg ~default:"")
  in
  attempt 1;
  Alcotest.(check (float 0.0)) "A1 rolled back" 4.0 (sheet_get d ~tenant:"t" "A1");
  checkb "A2 rolled back" true
    (let r = Daemon.submit d (request ~tenant:"t" [ get_op "A2" ]) in
     Json.member "value" (List.hd (results r)) = Some Json.Null);
  Alcotest.(check (float 0.0)) "C1 still 5n" (float_of_int (5 * n))
    (sheet_get d ~tenant:"t" "C1");
  (match Daemon.find_tenant d "t" with
  | Some t -> checki "no crash charged" 0 (Tenant.crashes t)
  | None -> Alcotest.fail "tenant missing");
  Daemon.drain d

let test_deadline_in_queue () =
  let d = Daemon.create (mem_config (fresh_root "deadline")) (Sheet.workload ()) in
  let resp =
    Daemon.submit d
      (request ~tenant:"t" ~deadline_ms:(-50.) [ set_op "A1" "1" ])
  in
  checki "already-expired deadline is a 408" 408 (status resp);
  Daemon.drain d

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let test_tenant_queue_shed () =
  let cfg =
    { (mem_config (fresh_root "shed-tenant")) with Daemon.d_tenant_queue = 1 }
  in
  let d = Daemon.create cfg (toy ()) in
  checki "prime" 200 (status (Daemon.submit d (request ~tenant:"t" [ put_op 1 ])));
  let slow_resp = ref Json.Null in
  let th =
    Thread.create
      (fun () -> slow_resp := Daemon.submit d (request ~tenant:"t" [ toy_op "slow" ]))
      ()
  in
  Thread.delay 0.1;
  let resp = Daemon.submit d (request ~tenant:"t" [ toy_op "get" ]) in
  checki "second request shed" 503 (status resp);
  checkb "shed quotes retry_after_ms" true (has_retry_after resp);
  let other = Daemon.submit d (request ~tenant:"u" [ put_op 5 ]) in
  checki "other tenant unaffected" 200 (status other);
  Thread.join th;
  checki "slow batch still completed" 200 (status !slow_resp);
  checki "queue drains" 200
    (status (Daemon.submit d (request ~tenant:"t" [ toy_op "get" ])));
  Daemon.drain d

let test_global_queue_shed () =
  let cfg =
    { (mem_config (fresh_root "shed-global")) with Daemon.d_global_queue = 1 }
  in
  let d = Daemon.create cfg (toy ()) in
  checki "prime" 200 (status (Daemon.submit d (request ~tenant:"a" [ put_op 1 ])));
  let th =
    Thread.create
      (fun () -> ignore (Daemon.submit d (request ~tenant:"a" [ toy_op "slow" ])))
      ()
  in
  Thread.delay 0.1;
  let resp = Daemon.submit d (request ~tenant:"b" [ put_op 2 ]) in
  checki "global overload sheds other tenants too" 503 (status resp);
  checkb "shed quotes retry_after_ms" true (has_retry_after resp);
  Thread.join th;
  Daemon.drain d

(* ------------------------------------------------------------------ *)
(* Supervision: crash isolation, restart, circuit breaker              *)
(* ------------------------------------------------------------------ *)

let test_crash_isolation_and_recovery () =
  let root = fresh_root "crash" in
  let cfg =
    {
      (Daemon.default_config ~root ()) with
      Daemon.d_backoff_base = 0.01;
      d_backoff_cap = 0.05;
    }
  in
  let d = Daemon.create cfg (Sheet.workload ()) in
  checki "seed a" 200
    (status (Daemon.submit d (request ~tenant:"a" [ set_op "A1" "7" ])));
  checki "seed b" 200
    (status (Daemon.submit d (request ~tenant:"b" [ set_op "A1" "8" ])));
  (* the counters a crash must not move backwards: a torn-down
     session's counts stay in the registry *)
  Alcotest.(check (float 0.0))
    "a reads its seed" 7.0
    (sheet_get d ~tenant:"a" "A1");
  let scrape () =
    let c ?labels name =
      Metrics.counter_value (Metrics.counter (Daemon.metrics d) ?labels name)
    in
    [
      ("first executions", c "executions_total" ~labels:[ ("kind", "first") ]);
      ("re-executions", c "executions_total" ~labels:[ ("kind", "re") ]);
      ("wal appends", c "wal_appends_total");
      ("tenant restarts", c "tenant_restarts_total");
    ]
  in
  let before = scrape () in
  (* kill tenant a's next WAL append: the batch crashes the session *)
  (match Daemon.find_tenant d "a" with
  | Some t -> Tenant.set_kill_hook t (Some (fst (Faults.kill_nth 1)))
  | None -> Alcotest.fail "tenant a missing");
  let resp = Daemon.submit d (request ~tenant:"a" [ set_op "A1" "9" ]) in
  checki "crashed batch is a 503" 503 (status resp);
  let crashed = scrape () in
  checkb "crash quotes retry_after_ms" true (has_retry_after resp);
  (* the blast radius is one tenant *)
  Alcotest.(check (float 0.0)) "tenant b keeps serving" 8.0
    (sheet_get d ~tenant:"b" "A1");
  (match Daemon.find_tenant d "a" with
  | Some t ->
    Tenant.set_kill_hook t None;
    checkb "crash recorded" true (Tenant.crashes t >= 1)
  | None -> assert false);
  (* the supervisor restarts tenant a from its own WAL: the crashed
     batch never committed, so the committed value survives *)
  Alcotest.(check (float 0.0)) "tenant a recovers its committed state" 7.0
    (await_recovery d ~tenant:"a" "A1");
  (match Daemon.find_tenant d "a" with
  | Some t ->
    checkb "restart counted" true (Tenant.restarts t >= 1);
    checki "success resets consecutive crashes" 0 (Tenant.crashes t)
  | None -> assert false);
  let after = scrape () in
  let monotone s0 s1 =
    List.iter2
      (fun (what, v0) (_, v1) ->
        checkb (Printf.sprintf "%s never decrease (%d -> %d)" what v0 v1) true
          (v1 >= v0))
      s0 s1
  in
  monotone before crashed;
  monotone crashed after;
  checki "tenant_restarts_total is the tenants' restarts"
    (List.fold_left
       (fun acc id ->
         match Daemon.find_tenant d id with
         | Some t -> acc + Tenant.restarts t
         | None -> acc)
       0 (Daemon.tenant_ids d))
    (List.assoc "tenant restarts" after);
  Daemon.drain d;
  rm_rf root

let test_circuit_breaker_parks_flapper () =
  let cfg =
    {
      (mem_config (fresh_root "breaker")) with
      Daemon.d_max_restarts = 2;
      d_backoff_base = 0.005;
      d_backoff_cap = 0.01;
      d_cooldown = 60.0;
    }
  in
  let d = Daemon.create cfg (toy ()) in
  checki "healthy tenant" 200
    (status (Daemon.submit d (request ~tenant:"good" [ put_op 3 ])));
  let parked = ref false in
  for _ = 1 to 40 do
    if not !parked then begin
      let resp = Daemon.submit d (request ~tenant:"flap" [ toy_op "boom" ]) in
      checki "crashing tenant always answers 503" 503 (status resp);
      (match Daemon.find_tenant d "flap" with
      | Some t -> (
        match Tenant.status t ~now:(Unix.gettimeofday ()) with
        | Tenant.Parked _ -> parked := true
        | _ -> ())
      | None -> ());
      Thread.delay 0.02
    end
  done;
  checkb "flapping tenant ends up parked" true !parked;
  (match Daemon.find_tenant d "flap" with
  | Some t -> checkb "trip counted" true (Tenant.trips t >= 1)
  | None -> assert false);
  (* the parked tenant answers 503 instantly, without a restart attempt *)
  let resp = Daemon.submit d (request ~tenant:"flap" [ toy_op "get" ]) in
  checki "parked tenant sheds" 503 (status resp);
  checkb "parked shed quotes retry" true (has_retry_after resp);
  (* its neighbour never noticed *)
  let resp = Daemon.submit d (request ~tenant:"good" [ toy_op "get" ]) in
  checki "neighbour still serving" 200 (status resp);
  Daemon.drain d

(* The ISSUE's acceptance sweep, end to end through the daemon: kill the
   durable layer at its k-th fault site mid-batch, let the supervisor
   restart the tenant from disk, and require the recovered state to be
   exactly the pre-batch or the post-batch state — never a torn one. *)
let test_kill_sweep_through_daemon () =
  let expected_pre, expected_post =
    let root = fresh_root "sweep-oracle" in
    let d = Daemon.create (mem_config root) (Sheet.workload ()) in
    checki "oracle seed" 200
      (status
         (Daemon.submit d
            (request ~tenant:"t" [ set_op "A1" "2"; set_op "A2" "=A1*3" ])));
    let pre = sheet_render d ~tenant:"t" in
    checki "oracle batch" 200
      (status
         (Daemon.submit d
            (request ~tenant:"t"
               [ set_op "A1" "5"; set_op "A2" "=A1+1"; set_op "A3" "=A2*2" ])));
    let post = sheet_render d ~tenant:"t" in
    Daemon.drain d;
    (pre, post)
  in
  let crashes = ref 0 in
  let k = ref 1 in
  let continue = ref true in
  while !continue && !k <= 64 do
    let root = fresh_root "sweep" in
    let cfg =
      {
        (Daemon.default_config ~root ()) with
        Daemon.d_backoff_base = 0.01;
        d_backoff_cap = 0.05;
      }
    in
    let d = Daemon.create cfg (Sheet.workload ()) in
    checki "seed" 200
      (status
         (Daemon.submit d
            (request ~tenant:"t" [ set_op "A1" "2"; set_op "A2" "=A1*3" ])));
    let hook, fired = Faults.kill_nth !k in
    (match Daemon.find_tenant d "t" with
    | Some t -> Tenant.set_kill_hook t (Some hook)
    | None -> Alcotest.fail "tenant missing");
    let resp =
      Daemon.submit d
        (request ~tenant:"t"
           [ set_op "A1" "5"; set_op "A2" "=A1+1"; set_op "A3" "=A2*2" ])
    in
    (match Daemon.find_tenant d "t" with
    | Some t -> Tenant.set_kill_hook t None
    | None -> ());
    if !fired then begin
      incr crashes;
      checki (Printf.sprintf "k=%d: killed batch is a 503" !k) 503 (status resp);
      ignore (await_recovery d ~tenant:"t" "A1" : float);
      let recovered = sheet_render d ~tenant:"t" in
      checkb
        (Printf.sprintf "k=%d: recovered state is pre or post, not torn" !k)
        true
        (String.equal recovered expected_pre || String.equal recovered expected_post)
    end
    else begin
      checki (Printf.sprintf "k=%d: unkilled batch commits" !k) 200 (status resp);
      checks (Printf.sprintf "k=%d: clean run reaches post" !k) expected_post
        (sheet_render d ~tenant:"t");
      continue := false
    end;
    Daemon.drain d;
    rm_rf root;
    incr k
  done;
  checkb "sweep exercised at least one crash" true (!crashes >= 1);
  checkb "sweep terminated" true (not !continue)

(* ------------------------------------------------------------------ *)
(* Drain and restart of the whole daemon                               *)
(* ------------------------------------------------------------------ *)

let test_drain_checkpoints_and_preload () =
  let root = fresh_root "lifecycle" in
  let cfg = Daemon.default_config ~root () in
  let d = Daemon.create cfg (Sheet.workload ()) in
  let th = Daemon.start d in
  checki "seed t1" 200
    (status (Daemon.submit d (request ~tenant:"t1" [ set_op "A1" "42" ])));
  checki "seed t2" 200
    (status (Daemon.submit d (request ~tenant:"t2" [ set_op "A1" "43" ])));
  checkb "ready while serving" true (Daemon.ready d);
  Daemon.drain d;
  Thread.join th;
  checkb "drained daemon reports draining" true (Daemon.draining d);
  (* drain checkpointed every tenant: snapshots exist on disk *)
  List.iter
    (fun id ->
      let dir = Filename.concat (Filename.concat root "tenants") id in
      checkb (id ^ " has a snapshot") true (Durable.snapshots dir <> []))
    [ "t1"; "t2" ];
  (* a fresh daemon on the same root preloads every tenant before ready *)
  let d2 = Daemon.create cfg (Sheet.workload ()) in
  checkb "not ready before preload" false (Daemon.ready d2);
  checki "preload finds both tenants" 2 (Daemon.preload d2);
  checkb "ready after preload" true (Daemon.ready d2);
  Alcotest.(check (float 0.0)) "t1 recovered" 42.0 (sheet_get d2 ~tenant:"t1" "A1");
  Alcotest.(check (float 0.0)) "t2 recovered" 43.0 (sheet_get d2 ~tenant:"t2" "A1");
  Daemon.drain d2;
  rm_rf root

(* A failed drain checkpoint must reach the caller (the daemon logs it
   per tenant), and the tenant must still end stopped. *)
let test_stop_reports_failed_checkpoint () =
  let root = fresh_root "stop-fails" in
  let d = Daemon.create (Daemon.default_config ~root ()) (Sheet.workload ()) in
  checki "seed" 200
    (status (Daemon.submit d (request ~tenant:"t1" [ set_op "A1" "1" ])));
  let tn = Option.get (Daemon.find_tenant d "t1") in
  rm_rf root;
  checkb "stop raises" true
    (match Tenant.stop tn with () -> false | exception _ -> true);
  checkb "tenant stopped" true
    (Tenant.status tn ~now:(Unix.gettimeofday ()) = Tenant.Stopped)

(* ------------------------------------------------------------------ *)
(* The socket layer                                                    *)
(* ------------------------------------------------------------------ *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let send_line fd s = Serve.write_all fd (s ^ "\n")

let test_ndjson_over_socket_with_slow_client () =
  let cfg = mem_config (fresh_root "socket") in
  let d = Daemon.create cfg (Sheet.workload ()) in
  let th = Daemon.start d in
  let port = Daemon.port d in
  (* a stalled client that never sends a byte must not block others *)
  let stalled = connect port in
  let fd = connect port in
  let ic = Unix.in_channel_of_descr fd in
  send_line fd {|{"op":"ping"}|};
  send_line fd
    {|{"id":7,"tenant":"acme","ops":[{"op":"set","cell":"A1","v":"=6*7"},{"op":"get","cell":"A1"}]}|};
  send_line fd {|not json|};
  let l1 = Json.of_string (input_line ic) in
  checki "socket ping" 200 (status l1);
  let l2 = Json.of_string (input_line ic) in
  checki "socket batch" 200 (status l2);
  checkb "responses carry the request id" true
    (Json.member "id" l2 = Some (Json.Num 7.));
  Alcotest.(check (float 0.0)) "A1 = 42 over the wire" 42.0
    (got_num (List.nth (results l2) 1));
  let l3 = Json.of_string (input_line ic) in
  checki "bad json answers 400 without killing the connection" 400 (status l3);
  (* the connection survives the parse error *)
  send_line fd {|{"op":"ping"}|};
  checki "connection still live" 200 (status (Json.of_string (input_line ic)));
  (* many concurrent clients, one thread each, interleaved *)
  let clients =
    List.init 4 (fun i ->
        Thread.create
          (fun () ->
            let fd = connect port in
            let ic = Unix.in_channel_of_descr fd in
            send_line fd
              (Json.to_string
                 (request ~tenant:(Printf.sprintf "c%d" i)
                    [ set_op "A1" (string_of_int i); get_op "A1" ]));
            let resp = Json.of_string (input_line ic) in
            assert (status resp = 200);
            assert (got_num (List.nth (results resp) 1) = float_of_int i);
            Unix.close fd)
          ())
  in
  List.iter Thread.join clients;
  Unix.close fd;
  Unix.close stalled;
  Daemon.drain d;
  Thread.join th

(* Ill-typed batch fields are answered with 400 before anything runs:
   each frame below would set A1 if its fields were taken as they stand,
   and the tenant's cells read back unchanged. So is a truncated JSON
   line. *)
let test_ill_typed_fields_400 () =
  let d = Daemon.create (mem_config (fresh_root "typed")) (Sheet.workload ()) in
  let th = Daemon.start d in
  let read_back () =
    let resp = Daemon.submit d (request ~tenant:"acme" [ get_op "A1"; get_op "A2" ]) in
    List.map got_num (results resp)
  in
  checki "seed" 200
    (status
       (Daemon.submit d
          (request ~tenant:"acme" [ set_op "A1" "5"; set_op "A2" "=A1+1" ])));
  let fd = connect (Daemon.port d) in
  let ic = Unix.in_channel_of_descr fd in
  let frame fields =
    {|{"id":1,"tenant":"acme",|} ^ fields
    ^ {|"ops":[{"op":"set","cell":"A1","v":"9"}]}|}
  in
  List.iter
    (fun (label, line) ->
      send_line fd line;
      checki label 400 (status (Json.of_string (input_line ic)));
      Alcotest.(check (list (float 0.))) (label ^ ": cells unchanged")
        [ 5.; 6. ] (read_back ()))
    [
      ("ops not an array", {|{"id":1,"tenant":"acme","ops":"x"}|});
      ("max_steps 0", frame {|"max_steps":0,|});
      ("max_steps -3", frame {|"max_steps":-3,|});
      ("max_steps 1.5", frame {|"max_steps":1.5,|});
      ("max_steps a text", frame {|"max_steps":"x",|});
      ("deadline_ms a text", frame {|"deadline_ms":"x",|});
      ("truncated json", {|{"id":1,"tenant":"acme","ops":[{"op":"set","cell":"A1"|});
    ];
  Unix.close fd;
  Daemon.drain d;
  Thread.join th

let test_health_surface () =
  let cfg =
    { (mem_config (fresh_root "health")) with Daemon.d_metrics_port = Some 0 }
  in
  (* A "hold" op blocks inside the tenant until released. The daemon
     closes this endpoint as soon as a drain finds nothing in flight, so
     the post-drain /readyz check below runs while a held batch keeps
     the drain open; otherwise it races the shutdown. *)
  let entered = Semaphore.Binary.make false
  and release = Semaphore.Binary.make false in
  let sheet = Sheet.workload () in
  let workload =
    {
      Tenant.w_make =
        (fun () ->
          let s = sheet.Tenant.w_make () in
          {
            s with
            Tenant.s_apply =
              (fun op ->
                if Json.member "op" op = Some (Json.Str "hold") then begin
                  Semaphore.Binary.release entered;
                  Semaphore.Binary.acquire release;
                  Json.Null
                end
                else s.Tenant.s_apply op);
          });
    }
  in
  let d = Daemon.create cfg workload in
  let th = Daemon.start d in
  let rec await_ready n =
    if (not (Daemon.ready d)) && n > 0 then begin
      Thread.delay 0.02;
      await_ready (n - 1)
    end
  in
  await_ready 100;
  let hport = match Daemon.metrics_port d with Some p -> p | None -> assert false in
  let http_get path =
    let fd = connect hport in
    Serve.write_all fd (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path);
    let buf = Buffer.create 256 in
    let chunk = Bytes.create 1024 in
    let rec slurp () =
      match Unix.read fd chunk 0 1024 with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        slurp ()
      | exception Unix.Unix_error (_, _, _) -> ()
    in
    slurp ();
    Unix.close fd;
    Buffer.contents buf
  in
  checki "one tenant" 200
    (status (Daemon.submit d (request ~tenant:"t" [ set_op "A1" "1" ])));
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  checkb "readyz is 200 while serving" true (contains (http_get "/readyz") "200");
  checkb "healthz reports tenants" true (contains (http_get "/healthz") "tenants 1");
  checkb "tenantz lists the tenant" true (contains (http_get "/tenantz") "\"t\"");
  checkb "metrics exposition has daemon cells" true
    (contains (http_get "/metrics") "daemon_requests_total");
  let holder =
    Thread.create
      (fun () ->
        ignore
          (Daemon.submit d
             (request ~tenant:"t" [ Json.Obj [ ("op", Json.Str "hold") ] ])))
      ()
  in
  Semaphore.Binary.acquire entered;
  Daemon.drain d;
  checkb "readyz gates while draining" true (contains (http_get "/readyz") "503");
  Semaphore.Binary.release release;
  Thread.join holder;
  Thread.join th

let test_serve_oversize_431 () =
  let s =
    Serve.create ~port:0 [ ("/ok", fun _ -> Serve.text "fine") ]
  in
  let th = Thread.create (fun () -> Serve.serve ~max_requests:2 s) () in
  let fd = connect (Serve.port s) in
  Serve.write_all fd ("GET /" ^ String.make 9000 'x' ^ " HTTP/1.0\r\n\r\n");
  let ic = Unix.in_channel_of_descr fd in
  let line = try input_line ic with End_of_file -> "" in
  checkb "oversize request answers 431" true
    (String.length line >= 12 && String.sub line 9 3 = "431");
  Unix.close fd;
  (* the listener survives the oversize request *)
  let fd = connect (Serve.port s) in
  Serve.write_all fd "GET /ok HTTP/1.0\r\n\r\n";
  let ic = Unix.in_channel_of_descr fd in
  let line = try input_line ic with End_of_file -> "" in
  checkb "next request serves normally" true
    (String.length line >= 12 && String.sub line 9 3 = "200");
  Unix.close fd;
  Thread.join th;
  checki "oversize counted" 1 (Serve.oversize_requests s)

let () =
  Alcotest.run "daemon"
    [
      ( "protocol",
        [
          Alcotest.test_case "ping and batch round-trip" `Quick test_ping_and_batch;
          Alcotest.test_case "protocol errors are 400s" `Quick test_protocol_errors;
          Alcotest.test_case "draining sheds with retry" `Quick test_draining_503;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "step budget: 408 + rollback" `Quick
            test_budget_408_rolls_back;
          Alcotest.test_case "expired deadline: 408 before the batch" `Quick
            test_deadline_in_queue;
          Alcotest.test_case "deadline on a demand sheet: 408 + rollback"
            `Quick test_deadline_408_demand;
        ] );
      ( "admission",
        [
          Alcotest.test_case "per-tenant queue sheds" `Quick test_tenant_queue_shed;
          Alcotest.test_case "global queue sheds" `Quick test_global_queue_shed;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "crash isolation and recovery" `Quick
            test_crash_isolation_and_recovery;
          Alcotest.test_case "circuit breaker parks a flapper" `Quick
            test_circuit_breaker_parks_flapper;
          Alcotest.test_case "kill sweep through the daemon" `Slow
            test_kill_sweep_through_daemon;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "drain checkpoints, restart preloads" `Quick
            test_drain_checkpoints_and_preload;
          Alcotest.test_case "stop raises a failed checkpoint" `Quick
            test_stop_reports_failed_checkpoint;
        ] );
      ( "serve",
        [
          Alcotest.test_case "ndjson over sockets, slow + concurrent clients"
            `Quick test_ndjson_over_socket_with_slow_client;
          Alcotest.test_case "ill-typed fields are 400s" `Quick
            test_ill_typed_fields_400;
          Alcotest.test_case "health surface" `Quick test_health_surface;
          Alcotest.test_case "oversize request is a 431" `Quick
            test_serve_oversize_431;
        ] );
    ]
