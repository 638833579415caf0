(* alphonsec — the Alphonse-L compiler driver (paper §8).

   Subcommands:
     check      parse and type check a module
     print      parse, check, and unparse (the identity transform)
     transform  emit the Algorithm 2 display: access/modify/call inserted
     analyze    report the §6.1 site analysis, interprocedural effects,
                and §6.3 static partitions
     lint       incremental-correctness diagnostics (ALF001–ALF006)
     run        execute a module (conventional or Alphonse execution)
     compare    run both executions, check Theorem 5.1, report speedup
     profile    run under telemetry: per-instance profile, hot-node DOT,
                provenance queries (--why), Chrome trace export
     graph      dump the dependency graph of a run as DOT
     samples    list or dump the built-in sample programs
     sheet      run a durable spreadsheet edit script (WAL + snapshots)
     recover    recover a durable state directory and report
     metrics    run a module and dump the metrics registry (Prometheus/JSON)
     serve      HTTP exposition: /metrics /metrics.json /healthz /readyz
     daemon     alphonsed: multi-tenant NDJSON daemon (one sheet per tenant)
     call       send NDJSON request lines to a running daemon *)

module P = Lang.Parser
module Tc = Lang.Typecheck
module Interp = Lang.Interp
module Analysis = Transform.Analysis
module Effects = Analyze.Effects
module Diag = Analyze.Diag
module Lint = Analyze.Lint
module Incr = Transform.Incr_interp
module Engine = Alphonse.Engine
module Telemetry = Alphonse.Telemetry
module Inspect = Alphonse.Inspect
module Metrics = Alphonse.Metrics
module Flight = Alphonse.Flight
module Serve = Alphonse.Serve
module Daemon = Alphonse.Daemon
open Cmdliner

let read_source path =
  match path with
  | "-" -> In_channel.input_all In_channel.stdin
  | path -> (
    match Lang.Samples.all |> List.assoc_opt path with
    | Some src -> src (* convenience: sample name instead of a path *)
    | None -> In_channel.with_open_text path In_channel.input_all)

let compile src =
  match P.parse src with
  | Error e -> Error e
  | Ok m -> (
    match Tc.check m with
    | Ok env -> Ok env
    | Error es ->
      Error (Fmt.str "%a" Fmt.(list ~sep:(any "\n") Tc.pp_error) es))

let with_module path f =
  match compile (read_source path) with
  | Error e ->
    Fmt.epr "%s@." e;
    1
  | Ok env -> f env

(* ---------------- common args ---------------- *)

let path_arg =
  let doc =
    "Path to an Alphonse-L module, '-' for stdin, or the name of a \
     built-in sample (see $(b,alphonsec samples))."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"MODULE" ~doc)

let strategy_arg =
  let doc = "Default evaluation strategy: 'demand' or 'eager'." in
  let strategy =
    Arg.enum [ ("demand", Engine.Demand); ("eager", Engine.Eager) ]
  in
  Arg.(value & opt strategy Engine.Demand & info [ "strategy" ] ~doc)

let partitioning_arg =
  let doc = "Enable dynamic dependency-graph partitioning (paper 6.3)." in
  Arg.(value & flag & info [ "partitioning" ] ~doc)

let fuel_arg =
  let doc = "Abort after this many interpreter steps." in
  Arg.(value & opt int 200_000_000 & info [ "fuel" ] ~doc)

let log_arg =
  let doc =
    "Stream the engine's decisions (marks, executions, settle pops, \
     budget trips) to stderr while running, one telemetry event a line."
  in
  Arg.(value & flag & info [ "log" ] ~doc)

let trace_arg =
  let doc =
    "Record structured telemetry and write it to $(docv) as Chrome \
     trace-event JSON (open in Perfetto or chrome://tracing)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE" ~doc)

let profile_arg =
  let doc =
    "Print a per-instance profile (re-executions, self time, settle \
     latency) to stderr after the run."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

(* Telemetry recorder shared by --trace/--profile/the profile command:
   generously sized so even long sessions keep their whole event stream. *)
let make_telemetry () = Telemetry.create ~capacity:(1 lsl 20) ()

let recorder_for ~trace ~profile =
  if trace <> None || profile then Some (make_telemetry ()) else None

let write_trace file tm =
  match
    Out_channel.with_open_text file (fun oc ->
        Out_channel.output_string oc (Telemetry.to_chrome_trace tm))
  with
  | () ->
    Fmt.epr "[trace: %d event(s) -> %s%s]@." (Telemetry.total_emitted tm) file
      (if Telemetry.dropped tm > 0 then
         Fmt.str ", %d dropped by the ring" (Telemetry.dropped tm)
       else "")
  | exception Sys_error msg ->
    Fmt.epr "cannot write trace: %s@." msg;
    exit 1

let emit_trace trace tm =
  match (trace, tm) with
  | Some file, Some tm -> write_trace file tm
  | _ -> ()

let emit_profile ~ppf profile tm =
  match tm with
  | Some tm when profile ->
    Fmt.pf ppf "== per-instance profile (hottest first) ==@.%a@."
      (Inspect.pp_profile_quantiles ~top:25)
      (Telemetry.profile tm)
  | _ -> ()

(* The flight recorder is always on: even without --trace/--profile the
   engine keeps a small bounded telemetry window, and an anomaly — a
   quarantine, a poisoning, a degraded crash recovery — dumps it as a
   timestamped incident report. *)
let incidents_arg =
  let doc =
    "Directory for flight-recorder incident reports (created on the \
     first incident; a report carries the trigger, the trailing \
     telemetry window, a metrics snapshot and the failing node's \
     provenance chain)."
  in
  Arg.(value & opt string "incidents" & info [ "incidents" ] ~docv:"DIR" ~doc)

let arm_flight ?metrics ~incidents tm =
  ignore
    (Flight.arm ?metrics ~dir:incidents
       ~on_report:(fun path -> Fmt.epr "[incident report: %s]@." path)
       tm)

(* ---------------- subcommands ---------------- *)

let check_cmd =
  let run path =
    with_module path (fun env ->
        Fmt.pr "module %s: %d type(s), %d procedure(s), %d global(s) — OK@."
          env.Tc.m.Lang.Ast.modname
          (List.length env.Tc.m.Lang.Ast.types)
          (List.length env.Tc.m.Lang.Ast.procs)
          (List.length env.Tc.m.Lang.Ast.globals);
        0)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse and type check a module")
    Term.(const run $ path_arg)

let print_cmd =
  let run path =
    with_module path (fun env ->
        Fmt.pr "%a@." (Lang.Pretty.pp_module ~marks:false) env.Tc.m;
        0)
  in
  Cmd.v
    (Cmd.info "print" ~doc:"Unparse a module (pretty-printer round trip)")
    Term.(const run $ path_arg)

let transform_cmd =
  let run path =
    with_module path (fun env ->
        let _ = Analysis.analyze env in
        Fmt.pr "%a@." (Lang.Pretty.pp_module ~marks:true) env.Tc.m;
        0)
  in
  let doc =
    "Emit the transformed program with explicit access/modify/call \
     operations (the paper's Algorithm 2 display form)"
  in
  Cmd.v (Cmd.info "transform" ~doc) Term.(const run $ path_arg)

let analyze_cmd =
  let run path no_sharpen effects =
    with_module path (fun env ->
        let r = Analysis.analyze ~sharpen:(not no_sharpen) env in
        let sorted tbl =
          Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare
        in
        Fmt.pr "== incremental procedures ==@.";
        List.iter
          (fun p ->
            Fmt.pr "  %s %a@." p Lang.Pretty.pp_pragma
              (Hashtbl.find r.Analysis.incremental_procs p))
          (sorted r.Analysis.incremental_procs);
        Fmt.pr "== reachable from incremental code ==@.";
        List.iter (Fmt.pr "  %s@.") (sorted r.Analysis.reachable_procs);
        Fmt.pr "== tracked globals ==@.";
        List.iter (Fmt.pr "  %s@.") (sorted r.Analysis.tracked_globals);
        Fmt.pr "== tracked fields ==@.";
        List.iter (Fmt.pr "  %s@.") (sorted r.Analysis.tracked_fields);
        if effects then begin
          let eff = Effects.compute env in
          Fmt.pr "== interprocedural effects (transitive) ==@.";
          List.iter
            (fun p -> Fmt.pr "  %-14s %a@." p Effects.pp_eff (Effects.summary eff p))
            (Effects.procs eff)
        end;
        Fmt.pr "== instrumentation sites (6.1) ==@.%a@." Analysis.pp_stats
          r.Analysis.stats;
        Fmt.pr "== static partitions (6.3) ==@.";
        List.iter
          (fun (name, comp) -> Fmt.pr "  %-24s component %d@." name comp)
          (Analysis.connectivity env r);
        0)
  in
  let no_sharpen =
    Arg.(
      value & flag
      & info [ "no-sharpen" ]
          ~doc:
            "Disable the interprocedural-effect sharpening of the 6.1 \
             analysis: report the pure reachability result (every location \
             reachable incremental code may access is tracked, even if no \
             instance could ever observe a change to it).")
  in
  let effects =
    Arg.(
      value & flag
      & info [ "effects" ]
          ~doc:
            "Also print each procedure's transitive may-read/may-write \
             summary over globals, fields, and the array pool.")
  in
  let doc =
    "Report the static analysis: instrumented sites, effects, partitions"
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const run $ path_arg $ no_sharpen $ effects)

let lint_cmd =
  let run path json warn_error enable disable show_info list_rules =
    if list_rules then begin
      Fmt.pr "%a@?" Diag.pp_rules ();
      0
    end
    else
      match path with
      | None ->
        Fmt.epr "lint: a MODULE argument is required (or --rules)@.";
        2
      | Some path ->
        with_module path (fun env ->
            let enabled code =
              (match enable with [] -> true | es -> List.mem code es)
              && not (List.mem code disable)
            in
            let cfg = { Diag.enabled; warn_error; show_info } in
            let ds = Diag.apply cfg (Lint.run env) in
            let module_name = env.Tc.m.Lang.Ast.modname in
            if json then
              Fmt.pr "%s@."
                (Alphonse.Json.to_string (Diag.to_json ~module_name ds))
            else Fmt.pr "%a@?" (Diag.pp_text cfg ~module_name) ds;
            Diag.exit_code cfg ds)
  in
  let path_opt =
    let doc =
      "Path to an Alphonse-L module, '-' for stdin, or a built-in sample \
       name."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"MODULE" ~doc)
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the findings as a JSON object instead of text.")
  in
  let warn_error =
    Arg.(
      value & flag
      & info [ "warn-error" ]
          ~doc:"Exit nonzero on warnings, not only on errors.")
  in
  let enable =
    Arg.(
      value & opt_all string []
      & info [ "enable" ] ~docv:"CODE"
          ~doc:
            "Run only the listed rule(s) (repeatable). Default: all rules.")
  in
  let disable =
    Arg.(
      value & opt_all string []
      & info [ "disable" ] ~docv:"CODE"
          ~doc:"Disable the listed rule(s) (repeatable).")
  in
  let show_info =
    Arg.(
      value & flag
      & info [ "info" ]
          ~doc:
            "Show info-severity findings (hidden by default; they never \
             affect the exit code).")
  in
  let list_rules =
    Arg.(
      value & flag
      & info [ "rules" ] ~doc:"List the rule registry and exit.")
  in
  let doc =
    "Incremental-correctness diagnostics: unsound UNCHECKED pragmas, \
     self-invalidating or statically cyclic incremental procedures, dead \
     incremental code, and dead tracked dependencies (rules \
     ALF001-ALF006)."
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(
      const run $ path_opt $ json $ warn_error $ enable $ disable $ show_info
      $ list_rules)

let run_cmd =
  let run path conventional strategy partitioning fuel log trace profile
      fault_seed audit incidents =
    with_module path (fun env ->
        if conventional then begin
          let out = Interp.run ~fuel env in
          print_string out.Interp.output;
          match out.Interp.error with
          | None ->
            Fmt.epr "[conventional: %d steps]@." out.Interp.steps;
            0
          | Some e ->
            Fmt.epr "runtime error: %s@." e;
            1
        end
        else begin
          let tm =
            (* a small always-on ring when no recorder was asked for: the
               flight recorder needs a window to dump *)
            match recorder_for ~trace ~profile with
            | Some tm -> tm
            | None -> Telemetry.create ~capacity:4096 ()
          in
          (* an always-on registry too, so an incident report carries the
             counters at the moment of the trigger *)
          let reg = Metrics.create () in
          (* before arming the flight recorder, which chains onto it *)
          if log then
            Telemetry.set_sink tm
              (Some (Fmt.epr "%a@." Telemetry.pp_record));
          arm_flight ~metrics:reg ~incidents tm;
          let tm = Some tm in
          let out =
            Incr.run ~fuel ~default_strategy:strategy ~partitioning
              ?telemetry:tm ~metrics:reg ?fault_seed ~audit env
          in
          print_string out.Incr.output;
          emit_trace trace tm;
          emit_profile ~ppf:Fmt.stderr profile tm;
          match out.Incr.error with
          | None ->
            Fmt.epr "[alphonse: %d steps]@.%a@." out.Incr.steps
              Alphonse.Inspect.pp_stats out.Incr.engine_stats;
            0
          | Some e ->
            Fmt.epr "runtime error: %s@." e;
            1
        end)
  in
  let conventional =
    Arg.(
      value & flag
      & info [ "conventional" ]
          ~doc:"Use the conventional (exhaustive) execution model.")
  in
  let fault_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-seed" ] ~docv:"SEED"
          ~doc:
            "Fault-injection mode: install a seeded injector that makes \
             engine decision points occasionally raise, exercising the \
             recovery machinery (quarantine, retry, edge rollback). The \
             run's output must still match a clean run.")
  in
  let audit =
    Arg.(
      value & flag
      & info [ "audit" ]
          ~doc:
            "Run the invariant auditor after every settle step; an \
             incoherence aborts the run with a violation report.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a module")
    Term.(
      const run $ path_arg $ conventional $ strategy_arg $ partitioning_arg
      $ fuel_arg $ log_arg $ trace_arg $ profile_arg $ fault_seed $ audit
      $ incidents_arg)

let compare_cmd =
  let run path strategy partitioning fuel trace profile =
    with_module path (fun env ->
        let conv = Interp.run ~fuel env in
        let tm = recorder_for ~trace ~profile in
        let inc =
          Incr.run ~fuel ~default_strategy:strategy ~partitioning
            ?telemetry:tm env
        in
        emit_trace trace tm;
        emit_profile ~ppf:Fmt.stderr profile tm;
        (match (conv.Interp.error, inc.Incr.error) with
        | None, None -> ()
        | ce, ie ->
          Fmt.epr "conventional error: %a@.alphonse error: %a@."
            Fmt.(option string)
            ce
            Fmt.(option string)
            ie);
        let same = conv.Interp.output = inc.Incr.output in
        Fmt.pr "Theorem 5.1 (same output): %s@."
          (if same then "HOLDS" else "VIOLATED");
        Fmt.pr "conventional steps: %d@." conv.Interp.steps;
        Fmt.pr "alphonse steps:     %d (%.2fx)@." inc.Incr.steps
          (float_of_int conv.Interp.steps /. float_of_int (max 1 inc.Incr.steps));
        Fmt.pr "%a@." Alphonse.Inspect.pp_stats inc.Incr.engine_stats;
        Fmt.pr "%a@." Alphonse.Inspect.pp_graph_stats inc.Incr.graph_stats;
        if same then 0 else 2)
  in
  let doc = "Run both executions and check Theorem 5.1" in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(
      const run $ path_arg $ strategy_arg $ partitioning_arg $ fuel_arg
      $ trace_arg $ profile_arg)

let profile_cmd =
  let run path strategy partitioning top dot why trace =
    let top = match top with Some 0 -> None | t -> t in
    with_module path (fun env ->
        let tm = make_telemetry () in
        let analysis = Analysis.analyze env in
        let st =
          Incr.init_state ~default_strategy:strategy ~partitioning
            ~telemetry:tm env analysis
        in
        let error =
          match
            Incr.exec_stmts st (Hashtbl.create 8) env.Tc.m.Lang.Ast.main
          with
          | () -> false
          | exception Incr.Runtime_error (msg, p) ->
            Fmt.epr "runtime error at %a: %s@." Lang.Ast.pp_pos p msg;
            true
        in
        let eng = Incr.state_engine st in
        (match trace with Some f -> write_trace f tm | None -> ());
        let status =
          match why with
          | Some name -> (
            match Inspect.why_recomputed eng name with
            | Some w ->
              Fmt.pr "== provenance: last execution of %s ==@.%a@?" name
                Telemetry.pp_why w;
              0
            | None ->
              Fmt.epr
                "no recorded execution of %S (is it an instance name? try \
                 --dot to see them)@."
                name;
              1)
          | None ->
            if dot then
              print_string
                (Inspect.to_dot
                   ~heat:(Inspect.heat_of_profile (Telemetry.profile tm))
                   eng)
            else begin
              Fmt.pr "== per-instance profile: hottest first ==@.";
              Fmt.pr "%a@."
                (Inspect.pp_profile_quantiles ?top)
                (Telemetry.profile tm)
            end;
            0
        in
        if error && status = 0 then 1 else status)
  in
  let top_arg =
    Arg.(
      value
      & opt (some int) (Some 25)
      & info [ "top" ] ~docv:"N"
          ~doc:"Show only the $(docv) hottest instances (0 for all).")
  in
  let dot_arg =
    Arg.(
      value & flag
      & info [ "dot" ]
          ~doc:
            "Emit the dependency graph as Graphviz DOT with the hot-node \
             overlay (fill intensity = share of the hottest instance's \
             self time) instead of the table.")
  in
  let why_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "why" ] ~docv:"NAME"
          ~doc:
            "Provenance query: explain the last re-execution of the \
             instance named $(docv) — the causal chain from the mutated \
             storage cell through the inconsistency marks it propagated.")
  in
  let doc =
    "Run a module under Alphonse execution with telemetry enabled and \
     report where the time went: a per-instance profile (re-executions, \
     self time, settle-latency histogram), a hot-node DOT overlay \
     ($(b,--dot)), a provenance query ($(b,--why)), or a Chrome trace \
     ($(b,--trace))."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ path_arg $ strategy_arg $ partitioning_arg $ top_arg
      $ dot_arg $ why_arg $ trace_arg)

let graph_cmd =
  let run path show_storage =
    with_module path (fun env ->
        let analysis = Analysis.analyze env in
        let st = Incr.init_state env analysis in
        (match Incr.exec_stmts st (Hashtbl.create 8) env.Tc.m.Lang.Ast.main with
        | () -> ()
        | exception Incr.Runtime_error (msg, p) ->
          Fmt.epr "runtime error at %a: %s@." Lang.Ast.pp_pos p msg);
        print_string (Alphonse.Inspect.to_dot ~show_storage (Incr.state_engine st));
        0)
  in
  let show_storage =
    Arg.(
      value & opt bool true
      & info [ "storage" ]
          ~doc:"Include storage nodes (false: instances only).")
  in
  let doc =
    "Run a module under Alphonse execution and dump its dependency graph      in Graphviz DOT format (the debugging view of paper section 10)"
  in
  Cmd.v (Cmd.info "graph" ~doc) Term.(const run $ path_arg $ show_storage)

let samples_cmd =
  let run name =
    match name with
    | None ->
      List.iter (fun (n, _) -> Fmt.pr "%s@." n) Lang.Samples.all;
      0
    | Some n -> (
      match List.assoc_opt n Lang.Samples.all with
      | Some src ->
        print_string src;
        0
      | None ->
        Fmt.epr "unknown sample %s@." n;
        1)
  in
  let name_arg =
    Arg.(
      value & pos 0 (some string) None & info [] ~docv:"NAME"
        ~doc:"Sample to dump; omit to list all.")
  in
  Cmd.v
    (Cmd.info "samples" ~doc:"List or dump the built-in sample programs")
    Term.(const run $ name_arg)

(* ---------------- durable spreadsheet session ---------------- *)

module Durable = Alphonse.Durable
module Wal = Alphonse.Wal
module Sheet = Spreadsheet.Sheet

let state_arg =
  let doc =
    "Durable state directory: journal every edit there and (unless \
     $(b,--no-restore)) recover from it first."
  in
  Arg.(value & opt (some string) None & info [ "state" ] ~docv:"DIR" ~doc)

let wal_arg =
  let doc = "Journal fsync policy: 'always', 'commit' or 'never'." in
  let policy =
    Arg.enum
      [ ("always", Wal.Always); ("commit", Wal.Commit); ("never", Wal.Never) ]
  in
  Arg.(value & opt policy Wal.Commit & info [ "wal" ] ~docv:"POLICY" ~doc)

(* one-token / rest-of-line split for the tiny script language *)
let split1 s =
  let s = String.trim s in
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i ->
    ( String.sub s 0 i,
      String.trim (String.sub s (i + 1) (String.length s - i - 1)) )

let sheet_cmd =
  let run script state policy checkpoint_end kill_at no_restore incidents =
    let text =
      match script with
      | "-" -> In_channel.input_all In_channel.stdin
      | p -> In_channel.with_open_text p In_channel.input_all
    in
    let sheet = Sheet.create () in
    let eng = Sheet.engine sheet in
    (* observability is wired before recovery so a degraded recovery is
       itself an incident, and recovery timings land in the registry *)
    let reg = Metrics.create () in
    let tm = Telemetry.create ~capacity:4096 () in
    Engine.set_metrics eng (Some reg);
    Engine.set_telemetry eng (Some tm);
    Telemetry.set_metrics tm (Some reg);
    arm_flight ~metrics:reg ~incidents tm;
    let p = Sheet.persist sheet in
    let session =
      match state with
      | None -> None
      | Some dir ->
        if not no_restore then begin
          let o = Durable.recover ~dir eng p in
          Fmt.epr "[%a]@." Durable.pp_outcome o
        end;
        let s = Durable.attach ~policy ~dir eng p in
        Sheet.set_journal sheet (Some (Durable.journal_op s));
        (match kill_at with
        | Some n ->
          let hook, _ = Alphonse.Faults.kill_nth n in
          Durable.set_kill_hook s (Some hook)
        | None -> ());
        Some s
    in
    let do_checkpoint () =
      match session with
      | Some s ->
        Fmt.epr "[checkpoint: %s]@." (Filename.basename (Durable.checkpoint s))
      | None -> Fmt.epr "[checkpoint ignored: no --state]@."
    in
    let exec lineno line =
      let line = String.trim line in
      if line = "" || line.[0] = '#' then ()
      else
        let cmd, rest = split1 line in
        match cmd with
        | "set" ->
          let cell, raw = split1 rest in
          Sheet.set sheet cell raw
        | "get" -> Fmt.pr "%s = %a@." rest Sheet.pp_value (Sheet.value_at sheet rest)
        | "render" -> print_string (Sheet.render sheet)
        | "checkpoint" -> do_checkpoint ()
        | c -> Fmt.failwith "line %d: unknown command %s" (lineno + 1) c
    in
    let code =
      try
        List.iteri exec (String.split_on_char '\n' text);
        if checkpoint_end then do_checkpoint ();
        0
      with
      | Alphonse.Faults.Killed site ->
        Fmt.epr "[killed at %s]@." site;
        3
      | Failure msg ->
        Fmt.epr "%s@." msg;
        1
    in
    Option.iter Durable.detach session;
    code
  in
  let script_arg =
    let doc =
      "Edit script: one command per line — $(b,set A1 =A2+1), $(b,get A1), \
       $(b,render), $(b,checkpoint); '#' comments. '-' for stdin."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SCRIPT" ~doc)
  in
  let checkpoint_arg =
    let doc = "Write a snapshot checkpoint after the script completes." in
    Arg.(value & flag & info [ "checkpoint" ] ~doc)
  in
  let kill_arg =
    let doc =
      "Crash simulation: die (exit 3) at the $(docv)-th durability kill \
       site the session reaches. Recover with $(b,alphonsec recover)."
    in
    Arg.(value & opt (some int) None & info [ "kill-at" ] ~docv:"N" ~doc)
  in
  let no_restore_arg =
    let doc = "Do not recover from --state before running." in
    Arg.(value & flag & info [ "no-restore" ] ~doc)
  in
  let doc = "Run a durable spreadsheet edit script (journal + snapshots)" in
  Cmd.v
    (Cmd.info "sheet" ~doc)
    Term.(
      const run $ script_arg $ state_arg $ wal_arg $ checkpoint_arg $ kill_arg
      $ no_restore_arg $ incidents_arg)

(* ---------------- observability ---------------- *)

let metrics_cmd =
  let run path strategy partitioning fuel fault_seed audit json =
    with_module path (fun env ->
        let reg = Metrics.create () in
        let out =
          Incr.run ~fuel ~default_strategy:strategy ~partitioning ~metrics:reg
            ?fault_seed ~audit env
        in
        (* stdout carries the exposition; the program's own output is
           dropped here — use [run] for it *)
        (match out.Incr.error with
        | None -> ()
        | Some e -> Fmt.epr "runtime error: %s@." e);
        if json then
          Fmt.pr "%s@." (Alphonse.Json.to_string (Metrics.to_json reg))
        else print_string (Metrics.to_prometheus reg);
        match out.Incr.error with None -> 0 | Some _ -> 1)
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the registry as JSON (histograms carry count/sum and \
             estimated p50/p90/p99) instead of Prometheus text.")
  in
  let fault_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-seed" ] ~docv:"SEED"
          ~doc:
            "Install a seeded fault injector for the run, so the failure \
             counters (quarantines, retries, injections) are exercised.")
  in
  let audit =
    Arg.(
      value & flag
      & info [ "audit" ] ~doc:"Run the invariant auditor per settle step.")
  in
  let doc =
    "Execute a module with the metrics registry attached and dump the \
     registry — Prometheus text format by default, JSON with $(b,--json). \
     The same registry a long-running $(b,alphonsec serve) exposes over \
     HTTP, rendered once after one run."
  in
  Cmd.v (Cmd.info "metrics" ~doc)
    Term.(
      const run $ path_arg $ strategy_arg $ partitioning_arg $ fuel_arg
      $ fault_seed $ audit $ json)

let serve_cmd =
  let run port state max_requests incidents =
    let reg = Metrics.create () in
    let tm = Telemetry.create ~capacity:4096 () in
    let sheet = Sheet.create () in
    let eng = Sheet.engine sheet in
    Engine.set_metrics eng (Some reg);
    Engine.set_telemetry eng (Some tm);
    Telemetry.set_metrics tm (Some reg);
    arm_flight ~metrics:reg ~incidents tm;
    let p = Sheet.persist sheet in
    let degraded_recovery = ref false in
    let session =
      match state with
      | None -> None
      | Some dir ->
        let o = Durable.recover ~dir eng p in
        Fmt.epr "[%a]@." Durable.pp_outcome o;
        degraded_recovery := o.Durable.o_degraded;
        let s = Durable.attach ~dir eng p in
        Sheet.set_journal sheet (Some (Durable.journal_op s));
        Some s
    in
    (* ready = the state this process serves is trustworthy: the last
       recovery (if any) kept incrementality, and no instance is
       poisoned. healthz only says the process answers requests. *)
    let ready () =
      (not !degraded_recovery) && (Engine.stats eng).Engine.poisonings = 0
    in
    let srv =
      Serve.create ~port
        [
          ("/metrics", fun () -> Serve.text (Metrics.to_prometheus reg));
          ( "/metrics.json",
            fun () ->
              Serve.json (Alphonse.Json.to_string (Metrics.to_json reg)) );
          ("/healthz", fun () -> Serve.text "ok\n");
          ( "/readyz",
            fun () ->
              if ready () then Serve.text "ready\n"
              else Serve.text ~status:503 "degraded\n" );
        ]
    in
    Fmt.epr "[serving http://127.0.0.1:%d/metrics /metrics.json /healthz \
             /readyz]@."
      (Serve.port srv);
    (match max_requests with
    | Some n -> Serve.serve ~max_requests:n srv
    | None -> Serve.serve_forever srv);
    Serve.close srv;
    Option.iter Durable.detach session;
    0
  in
  let port_arg =
    let doc =
      "Port for the HTTP exposition endpoint (0 picks a free one; the \
       bound port is printed to stderr)."
    in
    Arg.(value & opt int 9464 & info [ "metrics-port" ] ~docv:"PORT" ~doc)
  in
  let max_requests_arg =
    let doc =
      "Answer exactly $(docv) requests, then exit (default: serve \
       forever). Lets scripts and CI probe the endpoint without managing \
       a daemon."
    in
    Arg.(
      value & opt (some int) None & info [ "max-requests" ] ~docv:"N" ~doc)
  in
  let doc =
    "Serve the observability surface over HTTP/1.0: Prometheus text on \
     /metrics, JSON on /metrics.json, liveness on /healthz, readiness on \
     /readyz (503 after a degraded recovery or with poisoned instances). \
     With $(b,--state), recovers the durable spreadsheet directory first \
     — its recovery counters and timings are scrapable immediately."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ port_arg $ state_arg $ max_requests_arg $ incidents_arg)

let recover_cmd =
  let run dir render dot =
    let sheet = Sheet.create () in
    let o = Durable.recover ~dir (Sheet.engine sheet) (Sheet.persist sheet) in
    Fmt.pr "%a@." Durable.pp_outcome o;
    if render then print_string (Sheet.render sheet);
    (* node ids in the DOT are stable ids, i.e. the ids of the snapshot
       this engine was just restored from — diffable against a render of
       the engine that exported it *)
    if dot then print_string (Inspect.to_dot (Sheet.engine sheet));
    0
  in
  let dir_arg =
    let doc = "Durable state directory to recover from." in
    Arg.(
      required & opt (some string) None & info [ "state" ] ~docv:"DIR" ~doc)
  in
  let render_arg =
    let doc = "Render the recovered sheet after recovery." in
    Arg.(value & flag & info [ "render" ] ~doc)
  in
  let dot_arg =
    let doc =
      "Print the recovered dependency graph in Graphviz DOT syntax. Node \
       identities are snapshot-stable: they match the ids the exporting \
       engine reported, not the restored engine's internal indices."
    in
    Arg.(value & flag & info [ "dot" ] ~doc)
  in
  let doc = "Recover a durable spreadsheet state directory and report" in
  Cmd.v (Cmd.info "recover" ~doc)
    Term.(const run $ dir_arg $ render_arg $ dot_arg)


(* ---------------- the daemon ---------------- *)

let daemon_cmd =
  let run port metrics_port state ephemeral wal max_tenants tenant_queue
      global_queue max_settles deadline_ms =
    (* the daemon's and tenants' warnings (an open circuit, a failed
       checkpoint, requests still in flight at drain) go to stderr *)
    Logs.set_reporter (Logs_fmt.reporter ());
    let reg = Metrics.create () in
    let base = Daemon.default_config ~root:state () in
    let cfg =
      {
        base with
        Daemon.d_port = port;
        d_metrics_port = metrics_port;
        d_durable = not ephemeral;
        d_wal_policy = wal;
        d_max_tenants = max_tenants;
        d_tenant_queue = tenant_queue;
        d_global_queue = global_queue;
        d_max_settles = max_settles;
        d_default_deadline =
          (if deadline_ms <= 0. then None else Some (deadline_ms /. 1000.));
      }
    in
    let d = Daemon.create ~metrics:reg cfg (Sheet.workload ()) in
    Daemon.install_signal_handlers d;
    Fmt.epr "[alphonsed: ndjson on 127.0.0.1:%d, state %s%s]@." (Daemon.port d)
      state
      (match Daemon.metrics_port d with
      | Some p -> Fmt.str ", http on 127.0.0.1:%d" p
      | None -> "");
    Daemon.run d;
    Fmt.epr "[alphonsed: drained]@.";
    0
  in
  let port_arg =
    let doc = "NDJSON protocol port (0 picks a free one; printed to stderr)." in
    Arg.(value & opt int 7465 & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let metrics_port_arg =
    let doc =
      "Also serve /metrics /metrics.json /healthz /readyz /tenantz over \
       HTTP on $(docv) (0 picks a free one). Off by default."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT" ~doc)
  in
  let state_arg =
    let doc =
      "State root; each tenant journals and snapshots under \
       $(docv)/tenants/<id>. Existing tenant directories are recovered \
       before the daemon reports ready."
    in
    Arg.(
      value & opt string "alphonsed-state" & info [ "state" ] ~docv:"DIR" ~doc)
  in
  let ephemeral_arg =
    let doc = "Disable WAL and snapshots entirely (benchmarks, scratch use)." in
    Arg.(value & flag & info [ "ephemeral" ] ~doc)
  in
  let max_tenants_arg =
    let doc = "Maximum number of hosted tenants; beyond it new tenants get 503." in
    Arg.(value & opt int 4096 & info [ "max-tenants" ] ~docv:"N" ~doc)
  in
  let tenant_queue_arg =
    let doc =
      "Per-tenant admission bound: at most $(docv) requests pending \
       (including the one running) per tenant before shedding with 503."
    in
    Arg.(value & opt int 16 & info [ "tenant-queue" ] ~docv:"N" ~doc)
  in
  let global_queue_arg =
    let doc =
      "Global admission bound: at most $(docv) requests in flight across \
       all tenants before shedding with 503."
    in
    Arg.(value & opt int 1024 & info [ "global-queue" ] ~docv:"N" ~doc)
  in
  let max_settles_arg =
    let doc = "At most $(docv) batches settle concurrently; the rest wait." in
    Arg.(value & opt int 8 & info [ "max-settles" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc =
      "Default per-request deadline in milliseconds for requests that \
       carry none (0 disables). A tripped deadline cancels the settle at \
       a step boundary, rolls the batch back, and answers 408."
    in
    Arg.(value & opt float 30000. & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let doc =
    "Run alphonsed: a supervised multi-tenant daemon hosting one durable \
     spreadsheet engine per tenant behind a newline-delimited JSON \
     protocol. Batches run atomically under deadlines; overload sheds \
     with 503 + retry_after_ms; a crashing tenant is restarted from its \
     own WAL with backoff (circuit breaker when flapping) without \
     touching its neighbours. SIGTERM drains: stop accepting, finish \
     in-flight batches, checkpoint every tenant, exit 0."
  in
  Cmd.v (Cmd.info "daemon" ~doc)
    Term.(
      const run $ port_arg $ metrics_port_arg $ state_arg $ ephemeral_arg
      $ wal_arg $ max_tenants_arg $ tenant_queue_arg $ global_queue_arg
      $ max_settles_arg $ deadline_arg)

let call_cmd =
  let run port file =
    let ic_req = match file with None -> stdin | Some f -> open_in f in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
    | exception Unix.Unix_error (e, _, _) ->
      Fmt.epr "connect 127.0.0.1:%d: %s@." port (Unix.error_message e);
      2
    | () ->
      let sock_ic = Unix.in_channel_of_descr fd in
      let worst = ref 0 in
      let rec loop () =
        match input_line ic_req with
        | exception End_of_file -> ()
        | line when String.trim line = "" -> loop ()
        | line ->
          Serve.write_all fd (line ^ "\n");
          (match input_line sock_ic with
          | resp ->
            print_endline resp;
            (match
               Option.bind
                 (Option.bind (Alphonse.Json.of_string_opt resp)
                    (Alphonse.Json.member "status"))
                 Alphonse.Json.to_float
             with
            | Some st when int_of_float st >= 400 -> worst := 1
            | _ -> ());
            loop ()
          | exception End_of_file ->
            Fmt.epr "connection closed by the daemon@.";
            worst := 2)
      in
      loop ();
      (try Unix.close fd with Unix.Unix_error _ -> ());
      !worst
  in
  let port_arg =
    let doc = "Port of the running daemon." in
    Arg.(value & opt int 7465 & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let file_arg =
    let doc = "Read request lines from $(docv) instead of stdin." in
    Arg.(
      value & opt (some string) None & info [ "file" ] ~docv:"FILE" ~doc)
  in
  let doc =
    "Send newline-delimited JSON request lines (stdin or $(b,--file)) to a \
     running $(b,alphonsec daemon) and print one response line per \
     request. Exits 1 if any response status is 400 or above, 2 on \
     connection errors."
  in
  Cmd.v (Cmd.info "call" ~doc) Term.(const run $ port_arg $ file_arg)

let () =
  let doc = "the Alphonse incremental-computation transformation system" in
  let info = Cmd.info "alphonsec" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            check_cmd; print_cmd; transform_cmd; analyze_cmd; lint_cmd;
            run_cmd; compare_cmd; profile_cmd; graph_cmd; samples_cmd;
            sheet_cmd; recover_cmd; metrics_cmd; serve_cmd; daemon_cmd;
            call_cmd;
          ]))
