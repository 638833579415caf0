(* Documentation integrity checker, run from `dune runtest` (test/docs.t)
   and CI. Over README.md and docs/*.md it verifies that

   - every relative markdown link resolves to a real file or directory;
   - every inline-code reference that looks like an OCaml module path
     (`Engine.transact`, `Alphonse.Inspect.parallel_profile`, `Trees.Itree`)
     resolves against lib/: the module file must exist and each
     trailing ident must occur in its interface or implementation;
   - with --help-text FILE, every `--flag` the docs mention appears in
     the given help corpus (the cram test feeds it `alphonsec *
     --help=plain` output), so documented flags cannot drift from the
     CLI;
   - with --bench FILE, every quoted figure annotated with a
     `<!-- bench:EXP:row=LABEL:col=HEADER -->` marker is cross-checked
     against that cell of the bench results JSON (schema
     alphonse-bench/2: a row is addressed by its first cell, and each
     numeric cell records its value and unit): the number
     immediately preceding the marker must have the cell's dimension
     and lie within a [0.5x, 2.0x]
     ratio band of the measured value (wall clocks are noisy; an
     order-of-magnitude drift is a stale doc, a few percent is a
     shared CI machine). A marker whose experiment, row, or column no
     longer exists is an error. When FILE does not exist the bench
     checks are silently skipped — results are regenerated per run,
     not committed, and a docs-only change must not require a bench
     run.

   Unknown leading modules (stdlib, opam libraries) are skipped, not
   failed: the point is to catch references into *this* repo that rot
   when code moves. Exit status 1 and a per-finding line on stderr when
   anything is broken; a single "docs OK" on stdout otherwise. *)

let root = ref "."
let help_text : string option ref = ref None
let bench_file : string option ref = ref None
let verbose = ref false

let () =
  let rec parse = function
    | [] -> ()
    | "--root" :: d :: rest -> root := d; parse rest
    | "--help-text" :: f :: rest -> help_text := Some f; parse rest
    | "--bench" :: f :: rest -> bench_file := Some f; parse rest
    | "--verbose" :: rest -> verbose := true; parse rest
    | a :: _ ->
      Printf.eprintf "check_docs: unknown argument %s\n" a;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

let errors = ref 0

let err fmt =
  Printf.ksprintf
    (fun s ->
      incr errors;
      prerr_endline s)
    fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let ( / ) = Filename.concat

(* ------------------------------------------------------------------ *)
(* The doc set                                                         *)
(* ------------------------------------------------------------------ *)

let doc_files =
  let docs_dir = !root / "docs" in
  let in_docs =
    if Sys.file_exists docs_dir && Sys.is_directory docs_dir then
      Sys.readdir docs_dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".md")
      |> List.sort compare
      |> List.map (fun f -> "docs" / f)
    else []
  in
  let candidates = "README.md" :: in_docs in
  List.filter (fun f -> Sys.file_exists (!root / f)) candidates

let () =
  if doc_files = [] then (
    Printf.eprintf "check_docs: no README.md or docs/*.md under %s\n" !root;
    exit 2)

(* ------------------------------------------------------------------ *)
(* Module index over lib/                                              *)
(* ------------------------------------------------------------------ *)

(* namespace (capitalized lib directory, e.g. Alphonse, Trees) ->
   directory path *)
let namespaces : (string, string) Hashtbl.t = Hashtbl.create 16

(* module name (capitalized basename, e.g. Engine) -> source files *)
let modules : (string, string list) Hashtbl.t = Hashtbl.create 64

let () =
  let lib = !root / "lib" in
  if Sys.file_exists lib && Sys.is_directory lib then
    Array.iter
      (fun d ->
        let dir = lib / d in
        if Sys.is_directory dir then begin
          Hashtbl.replace namespaces (String.capitalize_ascii d) dir;
          Array.iter
            (fun f ->
              if
                Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
              then begin
                let m =
                  String.capitalize_ascii (Filename.remove_extension f)
                in
                let prev =
                  Option.value ~default:[] (Hashtbl.find_opt modules m)
                in
                Hashtbl.replace modules m ((dir / f) :: prev)
              end)
            (Sys.readdir dir)
        end)
      (Sys.readdir lib)

let content_cache : (string, string) Hashtbl.t = Hashtbl.create 64

let contents_of path =
  match Hashtbl.find_opt content_cache path with
  | Some s -> s
  | None ->
    let s = try read_file path with Sys_error _ -> "" in
    Hashtbl.replace content_cache path s;
    s

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* every source file registered for module [m] (e.g. both engine.mli
   and engine.ml), concatenated *)
let module_text m =
  match Hashtbl.find_opt modules m with
  | None -> None
  | Some files -> Some (String.concat "\n" (List.map contents_of files))

let dir_text dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli")
  |> List.map (fun f -> contents_of (dir / f))
  |> String.concat "\n"

(* ------------------------------------------------------------------ *)
(* Markdown scanning                                                   *)
(* ------------------------------------------------------------------ *)

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

(* a code span is a module path when it splits on '.' into >= 2
   identifier components, the first capitalized *)
let module_path_of span =
  let comps = String.split_on_char '.' span in
  let ident s =
    s <> "" && String.for_all is_ident_char s
  in
  match comps with
  | first :: _ :: _
    when List.for_all ident comps
         && first.[0] >= 'A'
         && first.[0] <= 'Z' ->
    Some comps
  | _ -> None

let lines_of s = String.split_on_char '\n' s

(* inline code spans of one line: the odd-numbered fields of a split on
   backticks (ignoring the empty spans a `` fence edge produces) *)
let spans_of_line line =
  let fields = String.split_on_char '`' line in
  let rec go i = function
    | [] -> []
    | f :: rest -> if i land 1 = 1 && f <> "" then f :: go (i + 1) rest
                   else go (i + 1) rest
  in
  go 0 fields

(* [text](target) links of one line *)
let links_of_line line =
  let n = String.length line in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    if line.[!i] = '[' then begin
      match String.index_from_opt line !i ']' with
      | Some j when j + 1 < n && line.[j + 1] = '(' -> (
        match String.index_from_opt line (j + 1) ')' with
        | Some k ->
          out := String.sub line (j + 2) (k - j - 2) :: !out;
          i := k + 1
        | None -> i := n)
      | _ -> incr i
    end
    else incr i
  done;
  List.rev !out

(* --flag tokens anywhere in the text (including fenced blocks: usage
   examples live there). "---" table rules don't match: the char after
   "--" must be a letter. *)
let flags_of_text s =
  let n = String.length s in
  let out = ref [] in
  let i = ref 0 in
  while !i + 2 < n do
    if
      s.[!i] = '-'
      && s.[!i + 1] = '-'
      && s.[!i + 2] >= 'a'
      && s.[!i + 2] <= 'z'
      && (!i = 0 || s.[!i - 1] <> '-')
    then begin
      let j = ref (!i + 2) in
      while
        !j < n
        && ((s.[!j] >= 'a' && s.[!j] <= 'z')
           || (s.[!j] >= '0' && s.[!j] <= '9')
           || s.[!j] = '-')
      do
        incr j
      done;
      out := String.sub s !i (!j - !i) :: !out;
      i := !j
    end
    else incr i
  done;
  List.sort_uniq compare !out

(* ------------------------------------------------------------------ *)
(* Bench figure markers                                                *)
(* ------------------------------------------------------------------ *)

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  if m = 0 then None else go from

(* a figure is a number with an optional unit suffix; commas and a '~'
   prefix are presentation ("573,120", "~22x") *)
type dim = Seconds | Factor | Percent | Count

let parse_figure s =
  let s = String.trim s in
  let s =
    if s <> "" && s.[0] = '~' then String.sub s 1 (String.length s - 1) else s
  in
  let n = String.length s in
  let buf = Buffer.create 16 in
  let i = ref 0 in
  let seen_digit = ref false in
  while
    !i < n
    &&
    match s.[!i] with
    | '0' .. '9' ->
      seen_digit := true;
      true
    | '.' | ',' -> true
    | _ -> false
  do
    if s.[!i] <> ',' then Buffer.add_char buf s.[!i];
    incr i
  done;
  if not !seen_digit then None
  else
    match float_of_string_opt (Buffer.contents buf) with
    | None -> None
    | Some v ->
      (* unit: the letter/percent run right after the number *)
      let j = ref !i in
      while
        !j < n
        &&
        match s.[!j] with
        | 'a' .. 'z' | '%' -> true
        | '\xc2' -> true (* first byte of UTF-8 µ *)
        | '\xb5' -> true
        | _ -> false
      do
        incr j
      done;
      let unit = String.sub s !i (!j - !i) in
      (match unit with
      | "" -> Some (v, Count)
      | "x" -> Some (v, Factor)
      | "%" -> Some (v, Percent)
      | "s" -> Some (v, Seconds)
      | "ms" -> Some (v *. 1e-3, Seconds)
      | "us" | "\xc2\xb5s" -> Some (v *. 1e-6, Seconds)
      | "ns" -> Some (v *. 1e-9, Seconds)
      | _ -> None)

let dim_name = function
  | Seconds -> "a time"
  | Factor -> "a speedup factor"
  | Percent -> "a percentage"
  | Count -> "a count"

(* the figure the marker certifies: the last number on the line before
   the marker comment *)
let figure_before line upto =
  let stop = ref (min upto (String.length line)) in
  while !stop > 0 && line.[!stop - 1] = ' ' do
    decr stop
  done;
  let start = ref !stop in
  let token_char c =
    match c with
    | '0' .. '9' | '.' | ',' | '~' | 'a' .. 'z' | '%' | '\xc2' | '\xb5' ->
      true
    | _ -> false
  in
  while !start > 0 && token_char line.[!start - 1] do
    decr start
  done;
  if !start >= !stop then None
  else parse_figure (String.sub line !start (!stop - !start))

(* (docfile, line, exp, row label, column header) *)
let bench_markers : (string * string * string * string * string) list ref =
  ref []

let collect_markers docfile line =
  let rec go from =
    match find_sub line "<!-- bench:" from with
    | None -> ()
    | Some i -> (
      match find_sub line " -->" (i + 11) with
      | None -> err "%s: unterminated bench marker" docfile
      | Some close ->
        let body = String.sub line (i + 11) (close - i - 11) in
        (match (find_sub body ":row=" 0, find_sub body ":col=" 0) with
        | Some r, Some c when r < c ->
          let exp = String.sub body 0 r in
          let row = String.sub body (r + 5) (c - r - 5) in
          let col = String.sub body (c + 5) (String.length body - c - 5) in
          bench_markers :=
            (docfile, String.sub line 0 i, exp, row, col) :: !bench_markers
        | _ ->
          err "%s: malformed bench marker `%s` (want EXP:row=LABEL:col=HEADER)"
            docfile body);
        go (close + 4))
  in
  go 0

let checked_figures = ref 0

let check_bench_markers () =
  let markers = List.rev !bench_markers in
  match !bench_file with
  | None -> ()
  | Some file when not (Sys.file_exists file) ->
    (* bench results are regenerated per run, never committed: a
       docs-only change must not demand a bench run first *)
    ()
  | Some file -> (
    let open Alphonse.Json in
    match of_string_opt (read_file file) with
    | None -> err "%s: not valid JSON" file
    | Some j when Option.bind (member "schema" j) to_str <> Some "alphonse-bench/2"
      ->
      err "%s: not an alphonse-bench/2 results file" file
    | Some j ->
      let list k v = Option.value ~default:[] (Option.bind (member k v) to_list) in
      (* a row is addressed by its first cell: a label or a count *)
      let key cell =
        match member "value" cell with
        | Some (Str s) -> Some s
        | Some (Num f) -> Some (Printf.sprintf "%.0f" f)
        | _ -> None
      in
      let cell_of exp row col =
        match
          List.find_opt
            (fun e -> Option.bind (member "name" e) to_str = Some exp)
            (list "experiments" j)
        with
        | None -> Error (Printf.sprintf "no experiment %S in %s" exp file)
        | Some e -> (
          let found =
            List.find_map
              (fun t ->
                let headers = List.filter_map to_str (list "headers" t) in
                Option.bind (List.find_index (( = ) col) headers) (fun ci ->
                    List.find_map
                      (fun r ->
                        match to_list r with
                        | Some (first :: _ as cells) when key first = Some row ->
                          List.nth_opt cells ci
                        | _ -> None)
                      (list "rows" t)))
              (list "tables" e)
          in
          match found with
          | Some cell -> Ok cell
          | None ->
            Error
              (Printf.sprintf "experiment %s has no row %S with column %S" exp
                 row col))
      in
      (* a numeric cell's value and dimension, from its recorded unit *)
      let measured cell =
        match
          ( Option.bind (member "unit" cell) to_str,
            Option.bind (member "value" cell) to_float )
        with
        | Some "s", Some v -> Some (v, Seconds, "s")
        | Some "ratio", Some v -> Some (v, Factor, "x")
        | Some "count", Some v -> Some (v, Count, "")
        | Some "words", Some v -> Some (v, Count, "")
        | _ -> None
      in
      List.iter
        (fun (docfile, prefix, exp, row, col) ->
          match cell_of exp row col with
          | Error msg -> err "%s: bench marker: %s" docfile msg
          | Ok cell -> (
            incr checked_figures;
            match (measured cell, figure_before prefix max_int) with
            | None, _ ->
              err "%s: bench cell %s/%S/%S is not a number: %s" docfile exp
                row col (to_string cell)
            | _, None ->
              err "%s: no figure precedes the bench marker for %s/%S/%S"
                docfile exp row col
            | Some (bv, bd, unit), Some (dv, dd) ->
              if bd <> dd then
                err
                  "%s: bench figure for %s/%S/%S is %s but the doc quotes %s"
                  docfile exp row col (dim_name bd) (dim_name dd)
              else
                let ratio = if bv = 0.0 then infinity else dv /. bv in
                if ratio < 0.5 || ratio > 2.0 then
                  err
                    "%s: stale bench figure for %s/%S/%S: doc quotes a value \
                     %.4gx the measured %g%s"
                    docfile exp row col ratio bv unit))
        markers)

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

let checked_links = ref 0
let checked_refs = ref 0

let check_link docfile target =
  let target = String.trim target in
  let external_ l =
    List.exists
      (fun p ->
        String.length target >= String.length p
        && String.sub target 0 (String.length p) = p)
      l
  in
  if target = "" || target.[0] = '#' then ()
  else if external_ [ "http://"; "https://"; "mailto:" ] then ()
  else begin
    let path =
      match String.index_opt target '#' with
      | Some i -> String.sub target 0 i
      | None -> target
    in
    incr checked_links;
    let resolved = !root / Filename.dirname docfile / path in
    if not (Sys.file_exists resolved) then
      err "%s: broken link: %s" docfile target
  end

(* Resolve Module.ident / Namespace.Module.ident against lib/. Unknown
   heads are stdlib or third-party: skipped. *)
let check_code_ref docfile comps =
  let span = String.concat "." comps in
  let idents_in text idents =
    match List.find_opt (fun id -> not (contains text id)) idents with
    | Some missing ->
      err "%s: code reference `%s`: `%s` not found in the sources of its \
           module"
        docfile span missing
    | None -> ()
  in
  match comps with
  | ns :: rest when Hashtbl.mem namespaces ns -> (
    let dir = Hashtbl.find namespaces ns in
    incr checked_refs;
    match rest with
    | [] -> ()
    | m :: idents -> (
      let base = String.uncapitalize_ascii m in
      let file_for ext = dir / (base ^ ext) in
      if Sys.file_exists (file_for ".mli") || Sys.file_exists (file_for ".ml")
      then
        let text =
          String.concat "\n"
            (List.filter_map
               (fun ext ->
                 let f = file_for ext in
                 if Sys.file_exists f then Some (contents_of f) else None)
               [ ".mli"; ".ml" ])
        in
        idents_in text idents
      else if contains (dir_text dir) ("module " ^ m) then ()
      else
        err "%s: code reference `%s`: no module %s in %s" docfile span m dir))
  | m :: idents when Hashtbl.mem modules m -> (
    incr checked_refs;
    match module_text m with
    | Some text -> idents_in text idents
    | None -> ())
  | _ -> (* stdlib / external *) ()

let doc_flags = ref []

let check_doc docfile =
  let text = contents_of (!root / docfile) in
  doc_flags := flags_of_text text @ !doc_flags;
  let fenced = ref false in
  List.iter
    (fun line ->
      collect_markers docfile line;
      let trimmed = String.trim line in
      if String.length trimmed >= 3 && String.sub trimmed 0 3 = "```" then
        fenced := not !fenced
      else if not !fenced then begin
        List.iter (check_link docfile) (links_of_line line);
        List.iter
          (fun span ->
            match module_path_of span with
            | Some comps -> check_code_ref docfile comps
            | None -> ())
          (spans_of_line line)
      end)
    (lines_of text)

let () = List.iter check_doc doc_files

(* every flag the docs mention must appear in the CLI help corpus *)
let () =
  match !help_text with
  | None -> ()
  | Some file ->
    if not (Sys.file_exists file) then (
      Printf.eprintf "check_docs: no such help corpus: %s\n" file;
      exit 2);
    let help = read_file file in
    List.iter
      (fun flag ->
        if not (contains help flag) then
          err "documented flag %s does not appear in `alphonsec --help` output"
            flag)
      (List.sort_uniq compare !doc_flags)

let () = check_bench_markers ()

let () =
  if !errors > 0 then exit 1;
  if !verbose then
    Printf.printf
      "docs OK: %d file(s), %d link(s), %d code ref(s), %d flag(s), %d bench \
       figure(s)\n"
      (List.length doc_files) !checked_links !checked_refs
      (List.length (List.sort_uniq compare !doc_flags))
      !checked_figures
  else print_endline "docs OK"
