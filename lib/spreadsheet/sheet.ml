(** The spreadsheet of paper §7.2: an array of cells whose values are
    maintained methods over expression trees, with a [CellExp]-style
    reference operation that reads other cells' maintained values.

    Cells are sparse (a hash table keyed by coordinates); each cell's
    content is a tracked {!Alphonse.Var} and the cell value is an
    incremental procedure instance keyed by the coordinate. Editing a cell
    re-executes exactly the instances that (transitively) referenced it;
    circular references surface as [Error Cycle] values rather than
    divergence.

    Evaluation strategy and cycles: under the default [Demand] strategy a
    dirty cluster re-executes by nested calls, so a circular reference is
    caught re-entrantly. Under [Eager] evaluation the propagator
    re-executes dirty cells one at a time against cached neighbor
    values; the engine finds a cycle there by the read that runs against
    its drain order. Either way the read raises [Engine.Cycle], which
    the cell turns into [Error Cycle], matching {!exhaustive_value}. *)

module Engine = Alphonse.Engine
module Var = Alphonse.Var
module Func = Alphonse.Func
module F = Formula

type cell_error =
  | Cycle
  | Parse of string
  | Div_by_zero
  | Bad_arg  (** e.g. SQRT of a negative number, AVG of an empty range *)
  | Fault of string
      (** an engine-level failure (a poisoned cell instance) surfaced as
          a value — the cell shows [#ERR!] instead of corrupting the
          engine or the calling UI *)

type value =
  | Empty
  | Num of float
  | Error of cell_error

let pp_error ppf = function
  | Cycle -> Fmt.string ppf "#CYCLE!"
  | Parse e -> Fmt.pf ppf "#PARSE:%s!" e
  | Div_by_zero -> Fmt.string ppf "#DIV/0!"
  | Bad_arg -> Fmt.string ppf "#ARG!"
  | Fault _ -> Fmt.string ppf "#ERR!"

let pp_value ppf = function
  | Empty -> ()
  | Num x ->
    if Float.is_integer x && Float.abs x < 1e15 then
      Fmt.pf ppf "%d" (int_of_float x)
    else Fmt.pf ppf "%g" x
  | Error e -> pp_error ppf e

type content =
  | Blank
  | Const of float
  | Formula of F.expr * string  (** parsed expression and source text *)
  | Invalid of string * string  (** unparsable input and its error *)

type cell = { content : content Var.t }

type t = {
  eng : Engine.t;
  cells : (int * int, cell) Hashtbl.t;
  mutable value_fn : (int, value) Func.t option;
      (** keyed by {!key}, so a read in a range builds no tuple; always
          [Some] after {!create}, the option only ties the recursive
          knot between the function and the sheet record *)
  mutable journal : (Alphonse.Json.t -> unit) option;
      (** durability hook: every edit is announced here (write-ahead)
          before the tracked write applies — see {!persist} *)
}

let engine t = t.eng

let the_fn t =
  match t.value_fn with Some f -> f | None -> assert false

(* ------------------------------------------------------------------ *)
(* Expression evaluation, parameterized by the cell reader — shared by
   the incremental path (reader = maintained cell values) and the
   exhaustive oracle (reader = recursive recomputation).               *)
(* ------------------------------------------------------------------ *)

let eval_with (read_cell : int -> int -> value) expr =
  let rec eval expr =
    let num v k =
      match v with
      | Empty -> k 0. (* blank cells act as 0 in arithmetic *)
      | Num x -> k x
      | Error _ as e -> e
    in
    match expr with
    | F.Num x -> Num x
    | F.Cell (c, r) -> read_cell c r
    | F.Neg e -> num (eval e) (fun x -> Num (-.x))
    | F.Fn1 (f, e) ->
      num (eval e) (fun x ->
          match f with
          | F.Abs -> Num (Float.abs x)
          | F.Round -> Num (Float.round x)
          | F.Sqrt -> if x < 0. then Error Bad_arg else Num (sqrt x))
    | F.Binop (op, a, b) ->
      num (eval a) (fun x ->
          num (eval b) (fun y ->
              let bool v = Num (if v then 1. else 0.) in
              match op with
              | F.Add -> Num (x +. y)
              | F.Sub -> Num (x -. y)
              | F.Mul -> Num (x *. y)
              | F.Div -> if y = 0. then Error Div_by_zero else Num (x /. y)
              | F.Pow -> Num (x ** y)
              | F.Lt -> bool (x < y)
              | F.Le -> bool (x <= y)
              | F.Gt -> bool (x > y)
              | F.Ge -> bool (x >= y)
              | F.Eq -> bool (x = y)
              | F.Ne -> bool (x <> y)))
    | F.If (c, th, el) -> (
      match eval c with
      | Error _ as e -> e
      | Empty -> eval el
      | Num x -> if x <> 0. then eval th else eval el)
    | F.Agg (agg, { c0; r0; c1; r1 }) -> (
      (* one pass into float accumulators: the count, sum, least and
         greatest of the numbers, and the first error in read order *)
      let err = ref None in
      let n = ref 0 and sum = ref 0. in
      let lo = ref infinity and hi = ref neg_infinity in
      for c = c0 to c1 do
        for r = r0 to r1 do
          match read_cell c r with
          | Empty -> ()
          | Num x ->
            incr n;
            sum := !sum +. x;
            lo := Float.min !lo x;
            hi := Float.max !hi x
          | Error _ as e -> (
            match !err with None -> err := Some e | Some _ -> ())
        done
      done;
      match !err with
      | Some e -> e
      | None -> (
        match agg with
        | F.Count -> Num (float_of_int !n)
        | F.Sum -> Num !sum
        | F.Avg -> if !n = 0 then Error Bad_arg else Num (!sum /. float_of_int !n)
        | F.Min -> if !n = 0 then Error Bad_arg else Num !lo
        | F.Max -> if !n = 0 then Error Bad_arg else Num !hi))
  in
  eval expr

(* A cell springs into existence on first touch — reference or write — so
   that a formula referencing a blank cell is invalidated when that cell
   later gets content. *)
let cell_at t (c, r) =
  match Hashtbl.find_opt t.cells (c, r) with
  | Some cell -> cell
  | None ->
    let cell =
      {
        content =
          Var.create t.eng
            ~name:(Fmt.str "cell:%s" (F.name_of_cell (c, r)))
            Blank;
      }
    in
    Hashtbl.add t.cells (c, r) cell;
    cell

(* A cell read is a call keyed by its coordinate packed in one int,
   column above row, so the argument table hashes and compares an
   immediate. *)
let[@inline] key c r =
  if (c lor r) lsr 31 <> 0 then
    Fmt.invalid_arg "Sheet: cell (%d, %d) out of range" c r;
  (c lsl 31) lor r

let coord_of_key k = (k lsr 31, k land F.max_coord)

let create ?strategy ?partitioning () =
  let eng = Engine.create ?default_strategy:strategy ?partitioning () in
  let t = { eng; cells = Hashtbl.create 64; value_fn = None; journal = None } in
  (* the CellExp operation: read another cell's maintained value,
     converting a detected dependency cycle into an error value *)
  let read_cell c r =
    match Func.call (the_fn t) (key c r) with
    | v -> v
    | exception Engine.Cycle _ -> Error Cycle
    | exception Engine.Poisoned _ -> Error (Fault "poisoned")
  in
  t.value_fn <-
    Some
      (Func.create eng ~name:"cell-value" ~hash_arg:Alphonse.Htbl.hash_int
         ~equal_arg:Int.equal
         ~pp_key:(fun k -> F.name_of_cell (coord_of_key k))
         (fun _self k ->
           match Var.get (cell_at t (coord_of_key k)).content with
           | Blank -> Empty
           | Const x -> Num x
           | Formula (e, _) -> eval_with read_cell e
           | Invalid (_, msg) -> Error (Parse msg)));
  t

(* ------------------------------------------------------------------ *)
(* Editing                                                             *)
(* ------------------------------------------------------------------ *)

(* The raw-input form of a content — what a user would have typed to
   produce it. [%.17g] guarantees constants round-trip bit-exactly
   through [parse_input], so journaled/snapshotted cells reload to the
   same floats. *)
let raw_of_content = function
  | Blank -> ""
  | Const x ->
    if Float.is_integer x && Float.abs x < 1e15 then
      Printf.sprintf "%.0f" x
    else Printf.sprintf "%.17g" x
  | Formula (_, src) -> "=" ^ src
  | Invalid (raw, _) -> raw

let parse_input input =
  if input = "" then Blank
  else if String.length input > 0 && input.[0] = '=' then
    let src = String.sub input 1 (String.length input - 1) in
    match F.parse src with
    | Ok e -> Formula (e, src)
    | Error msg -> Invalid (input, msg)
  else
    match float_of_string_opt (String.trim input) with
    | Some x -> Const x
    | None -> Invalid (input, "not a number or formula")

(* Every edit funnels through here: journal the raw input (write-ahead),
   then perform the tracked write. *)
let put t coord ~raw content =
  (match t.journal with
  | None -> ()
  | Some j ->
    j
      (Alphonse.Json.Obj
         [
           ("op", Alphonse.Json.Str "cell");
           ("at", Alphonse.Json.Str (F.name_of_cell coord));
           ("v", Alphonse.Json.Str raw);
         ]));
  Var.set (cell_at t coord).content content

let set_journal t j = t.journal <- j

(** Set a cell from raw user input: [""] clears, ["=…"] is a formula,
    anything numeric is a constant. Non-numeric non-formula input is
    reported as a parse error value (this sheet has no text type). *)
let set_raw t coord input = put t coord ~raw:input (parse_input input)

let set t name input =
  match F.parse name with
  | Ok (F.Cell (c, r)) -> set_raw t (c, r) input
  | _ -> Fmt.invalid_arg "Sheet.set: bad cell name %s" name

let set_const t coord x =
  let content = Const x in
  put t coord ~raw:(raw_of_content content) content

let set_formula t coord expr =
  let content = Formula (expr, F.to_string expr) in
  put t coord ~raw:(raw_of_content content) content

let clear t coord = put t coord ~raw:"" Blank

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let value t (c, r) =
  match Func.call (the_fn t) (key c r) with
  | v -> v
  | exception Engine.Cycle _ -> Error Cycle
  | exception Engine.Poisoned _ -> Error (Fault "poisoned")

(* A poisoned cell instance keeps reporting [#ERR!] until the UI asks
   for a fresh attempt; this is that ask (e.g. bound to F9). *)
let clear_fault t (c, r) =
  match Func.node (the_fn t) (key c r) with
  | Some n when Engine.poisoned t.eng n -> Engine.clear_poison t.eng n
  | _ -> ()

let value_at t name =
  match F.parse name with
  | Ok (F.Cell (c, r)) -> value t (c, r)
  | _ -> Fmt.invalid_arg "Sheet.value_at: bad cell name %s" name

let content t coord = Var.get (cell_at t coord).content

(** Evaluate every materialized cell; returns how many were visited. Used
    by demos and the E3 benches to force a full recalculation. *)
let recalc_all t =
  let n = ref 0 in
  Hashtbl.iter
    (fun coord _ ->
      incr n;
      ignore (value t coord))
    t.cells;
  !n

(** Coordinates of all materialized cells. *)
let coords t = Hashtbl.fold (fun k _ acc -> k :: acc) t.cells []

(** Render the bounding box of materialized cells as an aligned text
    grid with spreadsheet-style headers; values are brought current
    first. Cells holding formulas render their values (use {!content}
    for sources). *)
let render t =
  match coords t with
  | [] -> "(empty sheet)\n"
  | cs ->
    let cmax = List.fold_left (fun m (c, _) -> max m c) 0 cs in
    let rmax = List.fold_left (fun m (_, r) -> max m r) 0 cs in
    let cell_text c r =
      match Hashtbl.find_opt t.cells (c, r) with
      | None -> ""
      | Some _ -> Fmt.str "%a" pp_value (value t (c, r))
    in
    let header c = F.name_of_cell (c, 0) |> fun s ->
      String.sub s 0 (String.length s - 1)
    in
    let widths =
      Array.init (cmax + 1) (fun c ->
          let w = ref (String.length (header c)) in
          for r = 0 to rmax do
            w := max !w (String.length (cell_text c r))
          done;
          !w)
    in
    let buf = Buffer.create 256 in
    let pad s w = s ^ String.make (w - String.length s) ' ' in
    let rwidth = String.length (string_of_int (rmax + 1)) in
    Buffer.add_string buf (pad "" rwidth);
    for c = 0 to cmax do
      Buffer.add_string buf (" | " ^ pad (header c) widths.(c))
    done;
    Buffer.add_char buf '\n';
    for r = 0 to rmax do
      Buffer.add_string buf (pad (string_of_int (r + 1)) rwidth);
      for c = 0 to cmax do
        Buffer.add_string buf (" | " ^ pad (cell_text c r) widths.(c))
      done;
      Buffer.add_char buf '\n'
    done;
    Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Exhaustive oracle                                                   *)
(* ------------------------------------------------------------------ *)

(** From-scratch evaluation with no caching: recomputes the cell's formula
    tree recursively, detecting cycles with a visited set. The
    conventional execution of the sheet program (§9.2's baseline). *)
let exhaustive_value t coord =
  let rec cell_value seen coord =
    if List.mem coord seen then Error Cycle
    else
      match Hashtbl.find_opt t.cells coord with
      | None -> Empty
      | Some cell -> (
        match Var.get cell.content with
        | Blank -> Empty
        | Const x -> Num x
        | Invalid (_, msg) -> Error (Parse msg)
        | Formula (e, _) ->
          let seen = coord :: seen in
          eval_with (fun c r -> cell_value seen (c, r)) e)
  in
  cell_value [] coord

(* ------------------------------------------------------------------ *)
(* Durability                                                          *)
(* ------------------------------------------------------------------ *)

module Json = Alphonse.Json

let coord_of_name name =
  match F.parse name with
  | Ok (F.Cell (c, r)) -> (c, r)
  | _ -> Fmt.invalid_arg "Sheet.persist: bad cell name %s" name

(* [p_load]/[p_apply] bypass {!put}: loading and replaying must never
   re-journal (the engine-side write intents during replay are captured
   separately by [Durable.recover] for verification). *)
let restore_cell t name raw =
  Var.set (cell_at t (coord_of_name name)).content (parse_input raw)

let persist t =
  let save () =
    let cells =
      Hashtbl.fold
        (fun coord cell acc ->
          match Var.get cell.content with
          | Blank -> acc (* blanks re-materialize on demand *)
          | content -> (coord, raw_of_content content) :: acc)
        t.cells []
      |> List.sort compare
    in
    Json.Obj
      [
        ("schema", Json.Str "alphonse-sheet/1");
        ( "cells",
          Json.Arr
            (List.map
               (fun (coord, raw) ->
                 Json.Arr [ Json.Str (F.name_of_cell coord); Json.Str raw ])
               cells) );
      ]
  in
  let load j =
    match Option.bind (Json.member "cells" j) Json.to_list with
    | None -> invalid_arg "Sheet.persist: snapshot has no cell table"
    | Some cells ->
      List.iter
        (function
          | Json.Arr [ Json.Str name; Json.Str raw ] -> restore_cell t name raw
          | _ -> invalid_arg "Sheet.persist: bad cell entry")
        cells;
      (* warm the restored sheet: dependency nodes materialize on the
         first tracked access (Algorithm 3), and both [Engine.import]
         (matching exported state by stable name) and replay
         verification (capturing write intents) need them live *)
      ignore (recalc_all t)
  in
  let apply j =
    match
      ( Option.bind (Json.member "op" j) Json.to_str,
        Option.bind (Json.member "at" j) Json.to_str,
        Option.bind (Json.member "v" j) Json.to_str )
    with
    | Some "cell", Some name, Some raw -> restore_cell t name raw
    | _ ->
      Fmt.invalid_arg "Sheet.persist: unrecognized journal op %s"
        (Json.to_string j)
  in
  { Alphonse.Durable.p_save = save; p_load = load; p_apply = apply }

(* ------------------------------------------------------------------ *)
(* Daemon workload                                                     *)
(* ------------------------------------------------------------------ *)

let json_of_value = function
  | Empty -> Json.Null
  | Num x -> Json.Num x
  | Error e -> Json.Str (Fmt.str "%a" pp_error e)

(* One request op against a live sheet. Malformed input is the
   client's fault, not a tenant crash: raise [Tenant.Bad_op] so the
   supervisor answers 400 and keeps the session. *)
let apply_op t op =
  let field k = Option.bind (Json.member k op) Json.to_str in
  let bad msg = raise (Alphonse.Tenant.Bad_op msg) in
  match field "op" with
  | Some "set" -> (
    match field "cell" with
    | None -> bad "set: missing cell"
    | Some cell ->
      let v =
        match field "v" with
        | Some v -> v
        | None -> (
          (* numeric payloads are welcome too *)
          match Option.bind (Json.member "v" op) Json.to_float with
          | Some x -> Fmt.str "%.12g" x
          | None -> bad "set: missing v")
      in
      (match F.parse cell with
      | Ok (F.Cell _) -> ()
      | _ -> bad ("set: bad cell name " ^ cell));
      set t cell v;
      Json.Obj [ ("ok", Json.Bool true) ])
  | Some "get" -> (
    match field "cell" with
    | None -> bad "get: missing cell"
    | Some cell ->
      let coord =
        match F.parse cell with
        | Ok (F.Cell (c, r)) -> (c, r)
        | _ -> bad ("get: bad cell name " ^ cell)
      in
      Json.Obj
        [
          ("cell", Json.Str (F.name_of_cell coord));
          ("value", json_of_value (value t coord));
        ])
  | Some "render" -> Json.Obj [ ("render", Json.Str (render t)) ]
  | Some "recalc" ->
    Json.Obj [ ("visited", Json.Num (float_of_int (recalc_all t))) ]
  | Some other -> bad ("unknown op " ^ other)
  | None -> bad "op missing"

let workload ?strategy ?partitioning () : Alphonse.Tenant.workload =
  {
    Alphonse.Tenant.w_make =
      (fun () ->
        let t = create ?strategy ?partitioning () in
        {
          Alphonse.Tenant.s_engine = engine t;
          s_apply = (fun op -> apply_op t op);
          s_persist = persist t;
          s_set_journal = set_journal t;
        });
  }
