(** Spreadsheet formula language: AST, hand-written lexer and
    recursive-descent parser, and a pretty-printer that is a fixpoint of
    print∘parse.

    The paper's §7.2 spreadsheet builds cell functions as expression trees
    (its [CellExp] production selects another cell); this module is the
    front end producing those trees from ["=A1+2*B3"] notation, extended
    with ranges, aggregates, comparisons and IF. *)

type range = { c0 : int; r0 : int; c1 : int; r1 : int }
(** Inclusive rectangle, 0-based, normalized so [c0 <= c1] and
    [r0 <= r1]. *)

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

(** {1 Cell-name notation} *)

val name_of_cell : int * int -> string
(** [(0,0)] is ["A1"]; [(27,11)] is ["AB12"]. *)

val max_coord : int
(** Columns and rows run from 0 to [max_coord] ([2^31 - 1]); {!parse}
    rejects a reference beyond. *)

(** {1 Printing} *)

val pp : Format.formatter -> expr -> unit
val pp_range : Format.formatter -> range -> unit
val to_string : expr -> string

(** {1 Analysis} *)

val references : expr -> (int * int) list
(** All cell coordinates the expression mentions, ranges expanded and
    deduplicated — the static read-set, used by tests to cross-check the
    dynamic dependency analysis. *)

(** {1 Parsing} *)

exception Parse_error of string
(** Raised internally; {!parse} converts it to a [result]. *)

val parse : string -> (expr, string) result
(** Parse a formula body (the text after [=]). Case-insensitive function
    names; ranges are normalized; row numbers are 1-based in the
    notation. *)
