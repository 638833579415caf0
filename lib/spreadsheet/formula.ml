(** Spreadsheet formula language: AST, hand-written lexer and
    recursive-descent parser, and pretty-printer.

    The paper's §7.2 spreadsheet builds cell functions as expression trees
    (its [CellExp] production selects another cell); this module is the
    front end that produces those trees from the familiar ["=A1+2*B3"]
    notation, extended with ranges, aggregates, comparisons, and IF —
    enough surface to express realistic sheets in the E3 benches.

    Grammar (precedence climbing):
    {v
    expr   := add (CMP add)?          CMP ∈ { < <= > >= = <> }
    add    := mul ((+|-) mul)*
    mul    := unary (( * | / ) unary)*
    unary  := - unary | pow
    pow    := atom (^ unary)?         right associative
    atom   := NUMBER | CELL | FUNC '(' args ')' | '(' expr ')'
    args   := range | expr (',' expr)*
    range  := CELL ':' CELL
    v} *)

type range = { c0 : int; r0 : int; c1 : int; r1 : int }

type aggregate = Sum | Avg | Min | Max | Count

type binop = Add | Sub | Mul | Div | Pow | Lt | Le | Gt | Ge | Eq | Ne

type fn1 = Abs | Sqrt | Round

type expr =
  | Num of float
  | Cell of int * int  (** column, row — both 0-based *)
  | Agg of aggregate * range
  | Binop of binop * expr * expr
  | Neg of expr
  | Fn1 of fn1 * expr
  | If of expr * expr * expr

(* ------------------------------------------------------------------ *)
(* Cell-name notation                                                  *)
(* ------------------------------------------------------------------ *)

(** ["A1"] is column 0, row 0; ["AB12"] is column 27, row 11. *)
let name_of_cell (c, r) =
  let rec letters c acc =
    let acc = String.make 1 (Char.chr (Char.code 'A' + (c mod 26))) ^ acc in
    if c < 26 then acc else letters ((c / 26) - 1) acc
  in
  letters c "" ^ string_of_int (r + 1)

let max_coord = (1 lsl 31) - 1

let pp_range ppf { c0; r0; c1; r1 } =
  Fmt.pf ppf "%s:%s" (name_of_cell (c0, r0)) (name_of_cell (c1, r1))

let agg_name = function
  | Sum -> "SUM"
  | Avg -> "AVG"
  | Min -> "MIN"
  | Max -> "MAX"
  | Count -> "COUNT"

let fn1_name = function Abs -> "ABS" | Sqrt -> "SQRT" | Round -> "ROUND"

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Pow -> "^"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "="
  | Ne -> "<>"

let rec pp ppf = function
  | Num x ->
    if Float.is_integer x && Float.abs x < 1e15 then
      Fmt.pf ppf "%d" (int_of_float x)
    else Fmt.pf ppf "%g" x
  | Cell (c, r) -> Fmt.string ppf (name_of_cell (c, r))
  | Agg (a, rg) -> Fmt.pf ppf "%s(%a)" (agg_name a) pp_range rg
  | Binop (op, a, b) -> Fmt.pf ppf "(%a%s%a)" pp a (binop_name op) pp b
  | Neg e -> Fmt.pf ppf "(-%a)" pp e
  | Fn1 (f, e) -> Fmt.pf ppf "%s(%a)" (fn1_name f) pp e
  | If (c, t, e) -> Fmt.pf ppf "IF(%a,%a,%a)" pp c pp t pp e

let to_string e = Fmt.str "%a" pp e

(** All cell coordinates an expression mentions (ranges expanded) — the
    static dependency read-set, used by tests to cross-check the dynamic
    analysis. *)
let references expr =
  let rec go acc = function
    | Num _ -> acc
    | Cell (c, r) -> (c, r) :: acc
    | Agg (_, { c0; r0; c1; r1 }) ->
      let acc = ref acc in
      for c = c0 to c1 do
        for r = r0 to r1 do
          acc := (c, r) :: !acc
        done
      done;
      !acc
    | Binop (_, a, b) -> go (go acc a) b
    | Neg e | Fn1 (_, e) -> go acc e
    | If (a, b, c) -> go (go (go acc a) b) c
  in
  List.sort_uniq compare (go [] expr)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | TNum of float
  | TCell of int * int
  | TIdent of string
  | TLparen
  | TRparen
  | TComma
  | TColon
  | TOp of binop
  | TMinus
  | TPlus
  | TEnd

exception Parse_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let emit t = toks := t :: !toks in
  let i = ref 0 in
  let peek () = if !i < n then Some src.[!i] else None in
  let is_digit c = c >= '0' && c <= '9' in
  let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if is_digit c || c = '.' then begin
      let start = !i in
      while
        !i < n
        && (is_digit src.[!i] || src.[!i] = '.' || src.[!i] = 'e'
           || src.[!i] = 'E'
           || ((src.[!i] = '+' || src.[!i] = '-')
              && !i > start
              && (src.[!i - 1] = 'e' || src.[!i - 1] = 'E')))
      do
        incr i
      done;
      let s = String.sub src start (!i - start) in
      match float_of_string_opt s with
      | Some x -> emit (TNum x)
      | None -> fail "bad number %S" s
    end
    else if is_alpha c then begin
      let start = !i in
      while !i < n && (is_alpha src.[!i] || is_digit src.[!i]) do
        incr i
      done;
      let word = String.sub src start (!i - start) in
      (* cell reference: uppercase letters followed by digits *)
      let letters = ref 0 in
      while
        !letters < String.length word
        && word.[!letters] >= 'A'
        && word.[!letters] <= 'Z'
      do
        incr letters
      done;
      let rest = String.sub word !letters (String.length word - !letters) in
      if
        !letters > 0
        && String.length rest > 0
        && String.for_all is_digit rest
      then begin
        let col =
          let v = ref 0 in
          for k = 0 to !letters - 1 do
            v := (!v * 26) + (Char.code word.[k] - Char.code 'A' + 1);
            if !v > max_coord + 1 then fail "column out of range in %S" word
          done;
          !v - 1
        in
        let row =
          match int_of_string_opt rest with
          | Some r when r <= max_coord + 1 -> r - 1
          | Some _ | None -> fail "row out of range in %S" word
        in
        if row < 0 then fail "bad row in %S" word;
        emit (TCell (col, row))
      end
      else emit (TIdent (String.uppercase_ascii word))
    end
    else begin
      incr i;
      match c with
      | '(' -> emit TLparen
      | ')' -> emit TRparen
      | ',' -> emit TComma
      | ':' -> emit TColon
      | '+' -> emit TPlus
      | '-' -> emit TMinus
      | '*' -> emit (TOp Mul)
      | '/' -> emit (TOp Div)
      | '^' -> emit (TOp Pow)
      | '=' -> emit (TOp Eq)
      | '<' ->
        if peek () = Some '=' then (incr i; emit (TOp Le))
        else if peek () = Some '>' then (incr i; emit (TOp Ne))
        else emit (TOp Lt)
      | '>' ->
        if peek () = Some '=' then (incr i; emit (TOp Ge)) else emit (TOp Gt)
      | c -> fail "unexpected character %C" c
    end
  done;
  List.rev (TEnd :: !toks)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

type stream = { mutable toks : token list }

let peek_tok s = match s.toks with [] -> TEnd | t :: _ -> t

let advance s = match s.toks with [] -> () | _ :: rest -> s.toks <- rest

let expect s t what =
  if peek_tok s = t then advance s else fail "expected %s" what

let rec parse_expr s =
  let lhs = parse_add s in
  match peek_tok s with
  | TOp ((Lt | Le | Gt | Ge | Eq | Ne) as op) ->
    advance s;
    Binop (op, lhs, parse_add s)
  | _ -> lhs

and parse_add s =
  let rec go lhs =
    match peek_tok s with
    | TPlus ->
      advance s;
      go (Binop (Add, lhs, parse_mul s))
    | TMinus ->
      advance s;
      go (Binop (Sub, lhs, parse_mul s))
    | _ -> lhs
  in
  go (parse_mul s)

and parse_mul s =
  let rec go lhs =
    match peek_tok s with
    | TOp ((Mul | Div) as op) ->
      advance s;
      go (Binop (op, lhs, parse_unary s))
    | _ -> lhs
  in
  go (parse_unary s)

and parse_unary s =
  match peek_tok s with
  | TMinus ->
    advance s;
    Neg (parse_unary s)
  | TPlus ->
    advance s;
    parse_unary s
  | _ -> parse_pow s

and parse_pow s =
  let base = parse_atom s in
  match peek_tok s with
  | TOp Pow ->
    advance s;
    Binop (Pow, base, parse_unary s)
  | _ -> base

and parse_atom s =
  match peek_tok s with
  | TNum x ->
    advance s;
    Num x
  | TCell (c, r) ->
    advance s;
    Cell (c, r)
  | TLparen ->
    advance s;
    let e = parse_expr s in
    expect s TRparen ")";
    e
  | TIdent name ->
    advance s;
    expect s TLparen (Fmt.str "( after %s" name);
    let result =
      match name with
      | "SUM" | "AVG" | "MIN" | "MAX" | "COUNT" ->
        let agg =
          match name with
          | "SUM" -> Sum
          | "AVG" -> Avg
          | "MIN" -> Min
          | "MAX" -> Max
          | _ -> Count
        in
        Agg (agg, parse_range s)
      | "ABS" | "SQRT" | "ROUND" ->
        let f =
          match name with "ABS" -> Abs | "SQRT" -> Sqrt | _ -> Round
        in
        Fn1 (f, parse_expr s)
      | "IF" ->
        let c = parse_expr s in
        expect s TComma ", in IF";
        let t = parse_expr s in
        expect s TComma ", in IF";
        let e = parse_expr s in
        If (c, t, e)
      | _ -> fail "unknown function %s" name
    in
    expect s TRparen ")";
    result
  | TEnd -> fail "unexpected end of formula"
  | _ -> fail "unexpected token"

and parse_range s =
  match peek_tok s with
  | TCell (c0, r0) -> (
    advance s;
    match peek_tok s with
    | TColon -> (
      advance s;
      match peek_tok s with
      | TCell (c1, r1) ->
        advance s;
        { c0 = min c0 c1; r0 = min r0 r1; c1 = max c0 c1; r1 = max r0 r1 }
      | _ -> fail "expected cell after :")
    | _ -> { c0; r0; c1 = c0; r1 = r0 })
  | _ -> fail "expected range"

(** Parse a formula body (the text after [=]). *)
let parse src =
  match tokenize src with
  | exception Parse_error e -> Error e
  | toks -> (
    let s = { toks } in
    match parse_expr s with
    | exception Parse_error e -> Error e
    | e -> if peek_tok s = TEnd then Ok e else Error "trailing input")
