(* daemon-wal: a child `alphonsec daemon` with its default durable WAL
   (fsync on every commit), state on disk under the benchmark's state
   directory. [tenants] tenants are seeded through the socket with a
   [chain]-cell chain (A1 a constant, A_k = A_(k-1) + 1). Two NDJSON
   connections, one client thread each, then run round-robin over their
   half of the tenants, each request being `set A1` plus `get A<chain>`.
   The oracle: every reply is 200 and its `get` equals the client's
   model, v + chain - 1. *)

module Json = Alphonse.Json
open Measure

type config = {
  tenants : int;
  chain : int;
  alphonsec : string;
  state_dir : string;
  reps : int;
}

let layers = [| "json.encode"; "daemon.roundtrip"; "json.decode" |]
let l_encode = 0
let l_roundtrip = 1
let l_decode = 2
let n_callers = 2

(* ------------------------------------------------------------------ *)
(* Files and the child process                                         *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Reads to end of file; /proc files report no length. *)
let read_file path =
  match open_in_bin path with
  | ic ->
    let s = In_channel.input_all ic in
    close_in ic;
    s
  | exception Sys_error _ -> ""

(* The integer following [marker] in [s], if both are there. *)
let int_after marker s =
  let m = String.length marker and n = String.length s in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = marker then begin
      let j = ref (i + m) in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
      if !j > i + m then Some (int_of_string (String.sub s (i + m) (!j - i - m)))
      else None
    end
    else find (i + 1)
  in
  find 0

type daemon = { pid : int; port : int; http : int; log : string }

let live_children : int list ref = ref []

let spawn cfg root =
  let log = root ^ ".log" in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process cfg.alphonsec
      [| cfg.alphonsec; "daemon"; "--port"; "0"; "--metrics-port"; "0";
         "--state"; root |]
      null out out
  in
  Unix.close out;
  Unix.close null;
  live_children := pid :: !live_children;
  let give_up = now_ns () + 30_000_000_000 in
  let rec wait () =
    let s = read_file log in
    match
      (int_after "ndjson on 127.0.0.1:" s, int_after "http on 127.0.0.1:" s)
    with
    | Some port, Some http -> { pid; port; http; log }
    | _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith ("daemon exited during start-up: " ^ s));
      if now_ns () > give_up then failwith "daemon did not report its ports";
      Unix.sleepf 0.001;
      wait ()
  in
  wait ()

(* SIGTERM drains the daemon (it checkpoints every tenant); SIGKILL if
   that takes longer than [grace] seconds. *)
let stop ?(grace = 60.) d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let give_up = now_ns () + int_of_float (grace *. 1e9) in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now_ns () < give_up ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live_children := List.filter (( <> ) d.pid) !live_children

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_children;
  live_children := []

(* A field of /proc/<pid>/status, in kB. *)
let proc_kb pid field =
  let prefix = field ^ ":" in
  String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid))
  |> List.find_map (fun line ->
         if String.starts_with ~prefix line then
           Scanf.sscanf_opt
             (String.sub line (String.length prefix)
                (String.length line - String.length prefix))
             " %d" Fun.id
         else None)
  |> Option.value ~default:0

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; ic : in_channel }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; ic = Unix.in_channel_of_descr fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let roundtrip c line =
  write_all c.fd (line ^ "\n");
  input_line c.ic

let http_get port path =
  let c = connect port in
  Fun.protect ~finally:(fun () -> close c) @@ fun () ->
  write_all c.fd (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path);
  let buf = Buffer.create 65536 in
  (try
     while true do
       Buffer.add_channel buf c.ic 1
     done
   with End_of_file -> ());
  let s = Buffer.contents buf in
  let rec body i =
    if i + 4 > String.length s then ""
    else if String.sub s i 4 = "\r\n\r\n" then
      String.sub s (i + 4) (String.length s - i - 4)
    else body (i + 1)
  in
  body 0

(* ------------------------------------------------------------------ *)
(* Requests and the oracle                                             *)
(* ------------------------------------------------------------------ *)

let tenant_id i = Printf.sprintf "t%03d" i

let set_op cell v =
  Json.Obj [ ("op", Json.Str "set"); ("cell", Json.Str cell); ("v", Json.Str v) ]

let get_op cell = Json.Obj [ ("op", Json.Str "get"); ("cell", Json.Str cell) ]

let request id tenant ops =
  Json.Obj
    [
      ("id", Json.Num (float_of_int id));
      ("tenant", Json.Str tenant);
      ("ops", Json.Arr ops);
    ]

(* A 200 reply whose last result is the cell value [expect]. *)
let answered reply expect =
  match Json.member "status" reply, Json.member "results" reply with
  | Some (Json.Num 200.), Some (Json.Arr results) -> (
    match List.rev results with
    | last :: _ -> Json.member "value" last = Some (Json.Num (float_of_int expect))
    | [] -> false)
  | _ -> false

let seed_tenant c cfg i v =
  let ops =
    set_op "A1" (string_of_int v)
    :: List.init (cfg.chain - 1) (fun k ->
           set_op (Printf.sprintf "A%d" (k + 2)) (Printf.sprintf "=A%d+1" (k + 1)))
    @ [ get_op (Printf.sprintf "A%d" cfg.chain) ]
  in
  let reply = roundtrip c (Json.to_string (request i (tenant_id i) ops)) in
  answered (Json.of_string reply) (v + cfg.chain - 1)

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type setup = { d : daemon; ready_s : float; seed_s : float; seeded_ok : bool }

let setup cfg rng root =
  rm_rf root;
  let t0 = now_ns () in
  let d = spawn cfg root in
  let c = connect d.port in
  let pong = roundtrip c {|{"id":0,"op":"ping"}|} in
  let t1 = now_ns () in
  let ok = ref (Json.member "pong" (Json.of_string pong) = Some (Json.Bool true)) in
  for i = 0 to cfg.tenants - 1 do
    if not (seed_tenant c cfg i (Random.State.int rng 1_000_000)) then ok := false
  done;
  let t2 = now_ns () in
  close c;
  { d; ready_s = secs_of_ns (t1 - t0); seed_s = secs_of_ns (t2 - t1); seeded_ok = !ok }

(* ------------------------------------------------------------------ *)
(* The closed loop: one thread per connection                          *)
(* ------------------------------------------------------------------ *)

(* As in [Inproc.run_ops], a traced run alternates blocks of untraced
   and traced requests; latency samples come from untraced ones. *)
type caller = {
  conn : conn;
  rng : Random.State.t;
  mine : int array;  (** this caller's tenants, visited round-robin *)
  off : Trace.t;
  tr : Trace.t;
  samples : Samples.t;
  busy_ns : int array;  (** untraced/traced *)
  count : int array;
  mutable next : int;
  mutable failed : int;
}

let caller_loop cfg ~traced k deadline =
  while now_ns () < deadline do
    let mode = if traced && k.next / Inproc.block land 1 = 1 then 1 else 0 in
    let tr = if mode = 1 then k.tr else k.off in
    let t_loop = now_ns () in
    let tenant = k.mine.(k.next mod Array.length k.mine) in
    k.next <- k.next + 1;
    let v = Random.State.int k.rng 1_000_000 in
    let req =
      request k.next (tenant_id tenant)
        [ set_op "A1" (string_of_int v); get_op (Printf.sprintf "A%d" cfg.chain) ]
    in
    Trace.op_begin tr;
    let t0 = now_ns () in
    let outcome =
      match
        let s = Trace.start tr in
        let line = Json.to_string req in
        Trace.stop tr l_encode s;
        let s = Trace.start tr in
        let reply = roundtrip k.conn line in
        Trace.stop tr l_roundtrip s;
        let s = Trace.start tr in
        let j = Json.of_string reply in
        Trace.stop tr l_decode s;
        j
      with
      | j -> Some j
      | exception e ->
        prerr_endline ("request failed: " ^ Printexc.to_string e);
        None
    in
    let t1 = now_ns () in
    Trace.op_end tr;
    if mode = 0 then Samples.add k.samples (t1 - t0);
    k.busy_ns.(mode) <- k.busy_ns.(mode) + (t1 - t_loop);
    k.count.(mode) <- k.count.(mode) + 1;
    match outcome with
    | Some j when answered j (v + cfg.chain - 1) -> ()
    | _ -> k.failed <- k.failed + 1
  done

let make_callers cfg d ~seed =
  List.init n_callers (fun k ->
      {
        conn = connect d.port;
        rng = Random.State.make [| seed; k |];
        mine =
          Array.of_list
            (List.filter (fun t -> t mod n_callers = k) (List.init cfg.tenants Fun.id));
        off = Trace.create ~enabled:false layers;
        tr = Trace.create ~enabled:true layers;
        samples = Samples.create ();
        busy_ns = [| 0; 0 |];
        count = [| 0; 0 |];
        next = 0;
        failed = 0;
      })

(* The window is cut into slices of [slice_secs] (see
   [Measure.Quiet]); each slice runs both callers to its deadline. The
   [quiet_slices] kept are 1% of a 30 s run. *)
let slice_secs = 0.05
let quiet_slices = 6

type slices = {
  all : Samples.t;  (** every untraced latency sample *)
  quiet : Quiet.t;
  mutable p50s : float list;
}

let run_window cfg callers ~traced ~seconds =
  let sl = { all = Samples.create (); quiet = Quiet.create quiet_slices; p50s = [] } in
  let slice = Samples.create () in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  while sl.p50s = [] || now_ns () < deadline do
    List.iter (fun k -> Samples.clear k.samples) callers;
    let ops () = List.fold_left (fun a k -> a + k.count.(0) + k.count.(1)) 0 callers in
    let ops0 = ops () in
    let t0 = now_ns () in
    let stop = t0 + int_of_float (slice_secs *. 1e9) in
    let threads =
      List.map (fun k -> Thread.create (caller_loop cfg ~traced k) stop) callers
    in
    List.iter Thread.join threads;
    let busy_ns = now_ns () - t0 in
    Samples.clear slice;
    List.iter (fun k -> Samples.append slice k.samples; Samples.append sl.all k.samples) callers;
    sl.p50s <- Samples.percentile_us slice 0.5 :: sl.p50s;
    Quiet.offer sl.quiet slice ~ops:(ops () - ops0) ~busy_ns
  done;
  sl

(* ------------------------------------------------------------------ *)
(* /metrics.json                                                       *)
(* ------------------------------------------------------------------ *)

let series scrape name =
  let fams = Option.value ~default:[] (Option.bind (Json.member "metrics" scrape) Json.to_list) in
  List.concat_map
    (fun f ->
      if Json.member "name" f = Some (Json.Str ("alphonse_" ^ name)) then
        Option.value ~default:[] (Option.bind (Json.member "series" f) Json.to_list)
      else [])
    fams

let num_field k j = Option.value ~default:0. (Option.bind (Json.member k j) Json.to_float)
let counter scrape name = List.fold_left (fun a s -> a +. num_field "value" s) 0. (series scrape name)

(* Bucket bounds and counts of a histogram, summed over its series. *)
let histogram scrape name =
  let bounds = ref [||] and counts = ref [||] in
  List.iter
    (fun s ->
      let bs = Option.value ~default:[] (Option.bind (Json.member "buckets" s) Json.to_list) in
      let b =
        Array.of_list
          (List.map
             (fun b ->
               match Option.bind (Json.member "le" b) Json.to_str with
               | Some "+Inf" | None -> infinity
               | Some x -> float_of_string x)
             bs)
      in
      let c = Array.of_list (List.map (fun b -> int_of_float (num_field "count" b)) bs) in
      if !counts = [||] then (bounds := b; counts := c)
      else Array.iteri (fun i x -> !counts.(i) <- !counts.(i) + x) c)
    (series scrape name);
  (!bounds, !counts)

(* The daemon's own quantile estimate (geometric interpolation inside
   the bucket holding the rank), over the observations made between two
   scrapes. *)
let window_quantile before after name q =
  let bounds, c1 = histogram after name in
  let _, c0 = histogram before name in
  let counts = Array.mapi (fun i c -> c - (if i < Array.length c0 then c0.(i) else 0)) c1 in
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0.
  else begin
    let rank = q *. float_of_int total in
    let rec go i cum =
      if i >= Array.length counts then bounds.(Array.length bounds - 1)
      else
        let cum' = cum + counts.(i) in
        if counts.(i) > 0 && float_of_int cum' >= rank then begin
          let hi = bounds.(i) in
          let lo = if i = 0 then hi /. 10. else bounds.(i - 1) in
          let hi = if Float.is_finite hi then hi else lo *. 10. in
          lo *. ((hi /. lo) ** ((rank -. float_of_int cum) /. float_of_int counts.(i)))
        end
        else go (i + 1) cum'
    in
    go 0 0
  end

let histogram_count scrape name = Array.fold_left ( + ) 0 (snd (histogram scrape name))

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let run cfg (icfg : Inproc.config) =
  at_exit kill_children;
  let rng = Random.State.make [| icfg.seed; Hashtbl.hash "daemon-wal" |] in
  let probe0 = host_probe_ms () and fill0 = host_fill_ms () in
  (try Unix.mkdir cfg.state_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let root = Filename.concat cfg.state_dir "daemon" in
  (* [reps] set-ups before the window, the last of which is measured,
     and [reps] after it, so that the samples span the run *)
  let setup_once () = setup cfg (Random.State.copy rng) root in
  let spare () =
    let s = setup_once () in
    stop s.d;
    s
  in
  let early = List.init (cfg.reps - 1) (fun _ -> spare ()) in
  let measured = setup_once () in
  let d = measured.d in
  let scrape () = Json.of_string (http_get d.http "/metrics.json") in
  let before = scrape () and rss0 = proc_kb d.pid "VmRSS" in
  let callers = make_callers cfg d ~seed:icfg.seed in
  let sl = run_window cfg callers ~traced:icfg.traced ~seconds:icfg.seconds in
  List.iter (fun k -> close k.conn) callers;
  let after = scrape () and rss1 = proc_kb d.pid "VmRSS" in
  let hwm_kb = proc_kb d.pid "VmHWM" in
  stop d;
  let setups = early @ (measured :: List.init cfg.reps (fun _ -> spare ())) in
  rm_rf root;
  (try Unix.unlink d.log with Unix.Unix_error _ -> ());
  let probe1 = host_probe_ms () and fill1 = host_fill_ms () in
  let sum f = List.fold_left (fun a k -> a + f k) 0 callers in
  let ops = sum (fun k -> k.count.(0) + k.count.(1)) in
  let failed = sum (fun k -> k.failed) in
  let tr = Trace.create ~enabled:true layers in
  List.iter (fun k -> Trace.merge tr k.tr) callers;
  let mean_ns mode =
    float_of_int (sum (fun k -> k.busy_ns.(mode)))
    /. float_of_int (max 1 (sum (fun k -> k.count.(mode))))
  in
  let ready = List.map (fun s -> s.ready_s) setups
  and seed = List.map (fun s -> s.seed_s) setups in
  let notes =
    [
      Printf.sprintf
        "workload daemon-wal seed %d: %d tenants x %d-cell chains, %d callers; \
         setup reps (s) %s"
        icfg.seed cfg.tenants cfg.chain n_callers
        (String.concat " "
           (List.map (fun s -> Printf.sprintf "%.4f" (s.ready_s +. s.seed_s)) setups));
      Printf.sprintf
        "host_probe_ms start=%.3f end=%.3f (fixed integer loop); memory fill (ms) \
         start=%.3f end=%.3f"
        probe0 probe1 fill0 fill1;
      Printf.sprintf "%d slices; per-slice op p50 (us): min %.1f median %.1f max %.1f"
        (List.length sl.p50s) (quantile sl.p50s 0.) (median sl.p50s) (quantile sl.p50s 1.);
      Printf.sprintf "op latency (us) over %d untraced requests: %s" (Samples.count sl.all)
        (String.concat " "
           (List.map
              (fun p -> Printf.sprintf "p%g=%.1f" (100. *. p) (Samples.percentile_us sl.all p))
              [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99 ]));
    ]
  in
  let values, notes =
    if not icfg.traced then
      ( [
          ("setup_s", quiet_time (List.map (fun s -> s.ready_s +. s.seed_s) setups));
          ("op_p50_us", Quiet.percentile_us sl.quiet 0.5);
          ("op_p90_us", Quiet.percentile_us sl.quiet 0.9);
          ("ops_per_s", Quiet.rate sl.quiet);
          ("mem_peak_mb", float_of_int hwm_kb /. 1024.);
        ],
        notes )
    else
      let delta_counter name = counter after name -. counter before name in
      let per_req x = x /. float_of_int ops in
      let fsyncs =
        histogram_count after "wal_fsync_seconds"
        - histogram_count before "wal_fsync_seconds"
      in
      let batch_p50 = 1e6 *. window_quantile before after "daemon_batch_seconds" 0.5 in
      ( List.map (fun l -> (l ^ "_us", Trace.mean_us tr l)) (Array.to_list layers)
        @ [
            ("daemon.batch_p50_us", batch_p50);
            (* both over the whole window *)
            ( "daemon.wire_overhead_us",
              Samples.percentile_us sl.all 0.5 -. batch_p50 );
            ("wal.appends_per_req", per_req (delta_counter "wal_appends_total"));
            ("wal.fsyncs_per_req", per_req (float_of_int fsyncs));
            ("wal.fsync_p50_us", 1e6 *. window_quantile before after "wal_fsync_seconds" 0.5);
            ("engine.settles_per_req", per_req (delta_counter "settles_total"));
            ("daemon.shed_total", delta_counter "daemon_shed_total");
            ( "daemon.rss_growth_kb_per_kop",
              float_of_int (rss1 - rss0) /. (float_of_int ops /. 1000.) );
            ("daemon.ready_s", quiet_time ready);
            ("daemon.seed_s", quiet_time seed);
            ("trace.overhead_ratio", mean_ns 1 /. mean_ns 0);
            ("trace.op_self_share", Trace.self_share tr);
            ("trace.unreconciled_ops", float_of_int tr.Trace.unreconciled);
            ("host.probe_ms", median [ probe0; probe1 ]);
          ],
        notes
        @ [
            Printf.sprintf
              "trace: %d requests traced, op spans %d ns = layer self %d ns + \
               bench self %d ns; %d unreconciled"
              tr.Trace.ops tr.Trace.op_ns
              (tr.Trace.op_ns - tr.Trace.op_self_ns)
              tr.Trace.op_self_ns tr.Trace.unreconciled;
            Printf.sprintf
              "trace overhead: untraced %.1f us/request, traced %.1f us/request \
               per caller (alternating blocks of %d)"
              (mean_ns 0 /. 1e3) (mean_ns 1 /. 1e3) Inproc.block;
          ] )
  in
  let correct =
    failed = 0
    && List.for_all (fun s -> s.seeded_ok) setups
    && tr.Trace.unreconciled = 0
  in
  { Report.correct; attempted = ops; failed; values; notes }
