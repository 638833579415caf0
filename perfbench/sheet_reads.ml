(* sheet-reads: a [rows] x 8 grid. Column A holds constants, each of
   columns B..H adds 1 to its left neighbour, and one SUM in J1 covers
   column H. An op edits one A cell, reads the SUM (the read that
   propagates the edit) and then reads [reads] random formula cells,
   which are answered from cache. Every read is checked against the
   model (cell (c, r) = A_r + c); every [exhaustive_every]-th op also
   checks them against [Sheet.exhaustive_value]. *)

module Sheet = Spreadsheet.Sheet
module Formula = Spreadsheet.Formula
module Trace = Measure.Trace

let cols = 8
let reads = 8
let exhaustive_every = 32
let sum_cell = (9, 0)

type st = {
  sheet : Sheet.t;
  rows : int;
  a : int array;  (** the model: column A's constants *)
  names : string array;  (** "A1" .. "A<rows>" *)
  (* the next op's inputs *)
  mutable row : int;
  mutable text : string;
  targets : (int * int) array;
  (* the last op's outputs *)
  mutable sum : Sheet.value;
  got : Sheet.value array;
  mutable nops : int;
}

let layers =
  [| "sheet.set"; "sheet.propagating_read"; "sheet.cached_read"; "formula.parse" |]

let l_set = 0
let l_prop = 1
let l_cached = 2
let l_parse = 3

let setup ~rows rng =
  let sheet = Sheet.create () in
  let a = Array.init rows (fun _ -> Random.State.int rng 1000) in
  for r = 0 to rows - 1 do
    Sheet.set_raw sheet (0, r) (string_of_int a.(r));
    for c = 1 to cols - 1 do
      Sheet.set_raw sheet (c, r)
        (Printf.sprintf "=%s+1" (Formula.name_of_cell (c - 1, r)))
    done
  done;
  Sheet.set_raw sheet sum_cell
    (Printf.sprintf "=SUM(%s:%s)"
       (Formula.name_of_cell (cols - 1, 0))
       (Formula.name_of_cell (cols - 1, rows - 1)));
  ignore (Sheet.value sheet sum_cell);
  {
    sheet;
    rows;
    a;
    names = Array.init rows (fun r -> Formula.name_of_cell (0, r));
    row = 0;
    text = "";
    targets = Array.make reads (1, 0);
    sum = Sheet.Empty;
    got = Array.make reads Sheet.Empty;
    nops = 0;
  }

let prepare st rng =
  st.row <- Random.State.int rng st.rows;
  let v = Random.State.int rng 1000 in
  st.a.(st.row) <- v;
  st.text <- string_of_int v;
  for i = 0 to reads - 1 do
    st.targets.(i) <-
      (1 + Random.State.int rng (cols - 1), Random.State.int rng st.rows)
  done

let op st tr =
  let t0 = Trace.start tr in
  Sheet.set st.sheet st.names.(st.row) st.text;
  Trace.stop tr l_set t0;
  let t0 = Trace.start tr in
  st.sum <- Sheet.value st.sheet sum_cell;
  Trace.stop tr l_prop t0;
  for i = 0 to reads - 1 do
    let t0 = Trace.start tr in
    st.got.(i) <- Sheet.value st.sheet st.targets.(i);
    Trace.stop tr l_cached t0
  done

let model_sum st =
  float_of_int (Array.fold_left ( + ) 0 st.a + (st.rows * (cols - 1)))

let check st =
  st.nops <- st.nops + 1;
  let ok = ref (st.sum = Sheet.Num (model_sum st)) in
  Array.iteri
    (fun i (c, r) ->
      if st.got.(i) <> Sheet.Num (float_of_int (st.a.(r) + c)) then ok := false)
    st.targets;
  if st.nops mod exhaustive_every = 0 then begin
    if Sheet.exhaustive_value st.sheet sum_cell <> st.sum then ok := false;
    Array.iteri
      (fun i at -> if Sheet.exhaustive_value st.sheet at <> st.got.(i) then ok := false)
      st.targets
  end;
  !ok

(* [Sheet.set] parses the cell name with the formula parser; time that
   parse on the same text, outside the op span. *)
let aside st tr =
  let t0 = Trace.start tr in
  ignore (Sys.opaque_identity (Formula.parse st.names.(st.row)));
  Trace.stop tr l_parse t0

let final st =
  Sheet.exhaustive_value st.sheet sum_cell = Sheet.Num (model_sum st)
  && Sheet.value st.sheet sum_cell = Sheet.Num (model_sum st)

let workload ~rows ~round_ops : st Inproc.t =
  {
    Inproc.layers;
    setup = setup ~rows;
    engine = (fun st -> Sheet.engine st.sheet);
    prepare;
    op;
    check;
    final;
    aside;
    round_ops;
    live_growth = true;
  }
