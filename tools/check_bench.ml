(* Validate a BENCH_results.json produced by bench/main.exe: parses with
   the in-repo JSON module, checks the schema tag and that every
   experiment carries a name and well-shaped tables. Used by CI as the
   smoke check after the bench run. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let file =
  if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_results.json"

let get what = function
  | Some v -> v
  | None -> fail "%s: missing or mistyped %s" file what

let () =
  if not (Sys.file_exists file) then
    fail
      "%s: no such file (did the bench run produce output? run bench/main.exe \
       first, or pass the path to its results file)"
      file;
  let s =
    match
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | s -> s
    | exception Sys_error msg -> fail "%s: cannot read: %s" file msg
    | exception End_of_file ->
      fail
        "%s: truncated while reading (the file shrank mid-read — was the \
         bench still writing it?)"
        file
  in
  if String.trim s = "" then
    fail
      "%s: empty file (the bench was interrupted before writing results; \
       re-run bench/main.exe)"
      file;
  let j =
    match Alphonse.Json.of_string_opt s with
    | Some j -> j
    | None ->
      fail
        "%s: not valid JSON (%d byte(s); a partial write usually means the \
         bench was interrupted — re-run it)"
        file (String.length s)
  in
  let open Alphonse.Json in
  let schema = get "schema" (Option.bind (member "schema" j) to_str) in
  if schema <> "alphonse-bench/1" then
    fail "%s: unexpected schema tag %S" file schema;
  let exps = get "experiments" (Option.bind (member "experiments" j) to_list) in
  if exps = [] then fail "%s: no experiments recorded" file;
  List.iter
    (fun e ->
      let name = get "experiment name" (Option.bind (member "name" e) to_str) in
      if name = "" then fail "%s: experiment with empty name" file;
      ignore
        (get "wall_clock_s" (Option.bind (member "wall_clock_s" e) to_float));
      let tables = get "tables" (Option.bind (member "tables" e) to_list) in
      List.iter
        (fun t ->
          ignore (get "table title" (Option.bind (member "title" t) to_str));
          let headers =
            get "table headers" (Option.bind (member "headers" t) to_list)
          in
          let rows = get "table rows" (Option.bind (member "rows" t) to_list) in
          List.iter
            (fun row ->
              let cells = get "row cells" (to_list row) in
              if List.length cells <> List.length headers then
                fail "%s: ragged table in %S" file name)
            rows)
        tables)
    exps;
  (* the suite must not silently shrink: these experiments are load-
     bearing (E16/E17 the robustness results, E18 the durability
     overheads) and a refactor that drops one from the output would
     otherwise pass every shape check above *)
  let names =
    List.filter_map (fun e -> Option.bind (member "name" e) to_str) exps
  in
  let required = [ "E4"; "E6"; "E14"; "E16"; "E17"; "E18"; "E20"; "E21" ] in
  let missing =
    List.filter
      (fun r ->
        let m = String.length r in
        not
          (List.exists
             (fun n -> String.length n >= m && String.sub n 0 m = r)
             names))
      required
  in
  if missing <> [] then
    fail "%s: required experiment(s) missing: %s" file
      (String.concat ", " missing);
  (* E4 and E6 gate the engine's constant factors — the arena-allocated
     node/edge representation is accountable here. Both gates are
     RATIOS between rows of the same run, so machine speed cancels:
     E4's alphonse/hand-coded factor was ~570x on the pointer-graph
     representation and is ~100x on the arena (gate at 250x, halfway in
     log space); E6's tracked/plain factor was ~35x and is now under
     10x (gate at 20x). A regression past either gate means an
     allocation or indirection crept back onto the hot settle path. *)
  let time_of s =
    let s = String.trim s in
    let num suffix scale =
      let n = String.length s and m = String.length suffix in
      if n > m && String.sub s (n - m) m = suffix then
        Option.map
          (fun v -> v *. scale)
          (float_of_string_opt (String.sub s 0 (n - m)))
      else None
    in
    match (num "ms" 1e-3, num "us" 1e-6, num "s" 1.0) with
    | Some v, _, _ | _, Some v, _ | _, _, Some v -> Some v
    | None, None, None -> None
  in
  let tables_of exp =
    let e =
      get (exp ^ " experiment")
        (List.find_opt
           (fun e -> Option.bind (member "name" e) to_str = Some exp)
           exps)
    in
    get (exp ^ " tables") (Option.bind (member "tables" e) to_list)
  in
  let metric_value exp_name row_label =
    let found =
      List.find_map
        (fun t ->
          List.find_map
            (fun row ->
              match
                Option.map (List.filter_map to_str) (to_list row)
              with
              | Some (first :: rest) when first = row_label ->
                (* the value is the first remaining cell that parses as
                   a time (E6 rows carry a trailing "vs plain" cell) *)
                List.find_map time_of rest
              | _ -> None)
            (Option.value ~default:[]
               (Option.bind (member "rows" t) to_list)))
        (tables_of exp_name)
    in
    match found with
    | Some v -> v
    | None ->
      fail "%s: %s has no time-valued row %S" file exp_name row_label
  in
  let e4_alphonse = metric_value "E4" "alphonse time (insert+rebalance each)"
  and e4_hand = metric_value "E4" "hand-coded baseline time" in
  if e4_hand <= 0.0 then fail "%s: E4 hand-coded baseline time is zero" file;
  let e4_factor = e4_alphonse /. e4_hand in
  if e4_factor > 250.0 then
    fail
      "%s: E4 alphonse/hand-coded factor %.0fx exceeds the 250x gate (the \
       arena representation held this near 100x)"
      file e4_factor;
  let e6_plain = metric_value "E6" "plain ref loop (1M ops)"
  and e6_tracked = metric_value "E6" "tracked Var loop (mutator)" in
  if e6_plain <= 0.0 then fail "%s: E6 plain ref loop time is zero" file;
  let e6_factor = e6_tracked /. e6_plain in
  if e6_factor > 20.0 then
    fail
      "%s: E6 tracked/plain factor %.1fx exceeds the 20x gate (the arena \
       representation held this under 10x)"
      file e6_factor;
  (* the index of column [name] in an [exp] table's [headers] *)
  let column exp headers name =
    let rec go i = function
      | [] -> fail "%s: %s table lacks a %S column" file exp name
      | h :: _ when h = name -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 headers
  in
  let int_of_cell exp s =
    match int_of_string_opt s with
    | Some n -> n
    | None -> fail "%s: %s cell %S is not an integer" file exp s
  in
  (* E14 carries §2's claim that a topological drain order minimises
     computation: on its eager diamonds no instance runs more than once
     per change, so the re-executions may not exceed the bound printed
     beside them (instances x rounds). *)
  let e14_rows = ref 0 in
  List.iter
    (fun t ->
      let headers =
        List.filter_map to_str
          (get "E14 headers" (Option.bind (member "headers" t) to_list))
      in
      let ri = column "E14" headers "re-executions"
      and bi = column "E14" headers "bound (instances x rounds)" in
      List.iter
        (fun row ->
          incr e14_rows;
          let cells = List.filter_map to_str (get "E14 row" (to_list row)) in
          let re = int_of_cell "E14" (List.nth cells ri)
          and bound = int_of_cell "E14" (List.nth cells bi) in
          if re > bound then
            fail
              "%s: E14 re-executions %d exceed the bound of one execution \
               per instance per round (%d): the drain order is not \
               topological"
              file re bound)
        (get "E14 rows" (Option.bind (member "rows" t) to_list)))
    (tables_of "E14");
  if !e14_rows = 0 then fail "%s: E14 present but has no rows" file;
  let speedup_of s =
    (* "3.68x" -> 3.68 *)
    let s = String.trim s in
    let s =
      if String.length s > 0 && s.[String.length s - 1] = 'x' then
        String.sub s 0 (String.length s - 1)
      else s
    in
    float_of_string_opt s
  in
  (* E20 carries the observability bargain: attaching a metrics registry
     and then disabling it must cost nothing — the disabled path is a
     single never-taken branch per instrumentation site. Gate every
     config=disabled row at <= 1.05x overhead versus the never-attached
     baseline, and make sure both configs actually appear (a bench edit
     that drops the enabled rows would hide a regression in the
     instrumented path's plausibility). *)
  let tables = tables_of "E20" in
  let disabled_rows = ref 0 and enabled_rows = ref 0 in
  List.iter
    (fun t ->
      let headers =
        List.filter_map to_str
          (get "E20 headers" (Option.bind (member "headers" t) to_list))
      in
      let idx = column "E20" headers in
      let ci = idx "config" and oi = idx "overhead" and mi = idx "mode" in
      let rows = get "E20 rows" (Option.bind (member "rows" t) to_list) in
      List.iter
        (fun row ->
          let cells = List.filter_map to_str (get "E20 row" (to_list row)) in
          let cell i = List.nth cells i in
          match cell ci with
          | "disabled" -> (
            incr disabled_rows;
            match speedup_of (cell oi) with
            | Some f when f <= 1.05 -> ()
            | Some f ->
              fail
                "%s: E20 disabled-metrics overhead %.2fx exceeds the 1.05x \
                 budget (%s, %s)"
                file f (cell mi) (cell ci)
            | None ->
              fail "%s: E20 overhead cell %S is not a number" file (cell oi))
          | "enabled" -> incr enabled_rows
          | _ -> ())
        rows)
    tables;
  if !disabled_rows = 0 then
    fail "%s: E20 present but has no config=disabled rows" file;
  if !enabled_rows = 0 then
    fail "%s: E20 present but has no config=enabled rows" file;
  (* E21 carries the daemon's overload contract: at the nominal load a
     thousand tenants are served without shedding, and at 2x offered
     load the daemon degrades by shedding (fast 503s) while still
     accepting work — a 2x row with shed = 0 means the bench stopped
     creating overload, and ok = 0 means the daemon stalled instead of
     degrading. *)
  let tables = tables_of "E21" in
  let saw_1x = ref false and saw_2x = ref false in
  List.iter
    (fun t ->
      let headers =
        List.filter_map to_str
          (get "E21 headers" (Option.bind (member "headers" t) to_list))
      in
      let idx = column "E21" headers in
      let li = idx "load"
      and ni = idx "tenants"
      and oi = idx "ok"
      and si = idx "shed" in
      let rows = get "E21 rows" (Option.bind (member "rows" t) to_list) in
      List.iter
        (fun row ->
          let cells = List.filter_map to_str (get "E21 row" (to_list row)) in
          let cell i = List.nth cells i in
          let int_cell i = int_of_cell "E21" (cell i) in
          if int_cell ni < 1000 then
            fail "%s: E21 ran %s tenant(s); the claim needs >= 1000" file
              (cell ni);
          match cell li with
          | "1x" ->
            saw_1x := true;
            if int_cell si <> 0 then
              fail "%s: E21 sheds %s request(s) at nominal load" file (cell si)
          | "2x" ->
            saw_2x := true;
            if int_cell si = 0 then
              fail
                "%s: E21 shed nothing at 2x overload (the bench is not \
                 overloading the daemon)"
                file;
            if int_cell oi = 0 then
              fail "%s: E21 accepted nothing at 2x overload (stall, not \
                    shedding)"
                file
          | _ -> ())
        rows)
    tables;
  if not !saw_1x then fail "%s: E21 has no load=1x row" file;
  if not !saw_2x then fail "%s: E21 has no load=2x row" file;
  Printf.printf "%s OK: %d experiment(s)\n" file (List.length exps)
