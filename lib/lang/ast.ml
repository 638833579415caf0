(** Abstract syntax of Alphonse-L, the Modula-3-flavored imperative object
    language of paper §3 (its "base language L" plus the three pragmas).

    The language has record/object types with single inheritance, data and
    pointer fields, procedure-valued methods with overrides, dynamic
    allocation ([NEW]), and well-behaved pointers (no pointer arithmetic,
    §3.1). The pragmas [(*MAINTAINED*)] and [(*CACHED*)] mark the Alphonse
    procedures; [(*UNCHECKED*)] marks expressions whose dependencies the
    programmer vouches for (§6.4).

    Mutable [note] fields carry the results of type checking and of the
    static instrumentation analysis (§6.1) — the "transformed program" is
    this same tree with its notes filled in, which {!Pretty} can render
    with explicit [access]/[modify]/[call] operations (Algorithm 2). *)

type pos = { line : int; col : int }

let no_pos = { line = 0; col = 0 }

let pp_pos ppf { line; col } = Fmt.pf ppf "%d:%d" line col

(* ------------------------------------------------------------------ *)
(* Pragmas (§3.3)                                                      *)
(* ------------------------------------------------------------------ *)

type strategy = S_default | S_demand | S_eager

type cache_policy = P_unbounded | P_lru of int | P_fifo of int

type pragma =
  | Maintained of strategy
  | Cached of strategy * cache_policy

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type ty =
  | Tint
  | Tbool
  | Ttext
  | Tobj of string  (** nominal object type *)
  | Tarray of int * int * ty
      (** [ARRAY [lo..hi] OF t] — a fixed table, implicitly allocated
          where declared (the paper's §7.2 spreadsheet uses
          [ARRAY [1..100],[1..100] OF Cell]; nest for two dimensions) *)

let rec pp_ty ppf = function
  | Tint -> Fmt.string ppf "INTEGER"
  | Tbool -> Fmt.string ppf "BOOLEAN"
  | Ttext -> Fmt.string ppf "TEXT"
  | Tobj n -> Fmt.string ppf n
  | Tarray (lo, hi, t) -> Fmt.pf ppf "ARRAY [%d..%d] OF %a" lo hi pp_ty t

and ty_name t = Fmt.str "%a" pp_ty t

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

type binop =
  | Add | Sub | Mul | Div | Mod  (* integers *)
  | Cat  (* text concatenation, & *)
  | Eq | Ne | Lt | Le | Gt | Ge  (* comparisons *)
  | And | Or  (* booleans, short-circuit *)

type unop = Neg | Not

(** Filled by the type checker and the §6.1 analysis. [tracked] means the
    operation must go through the Alphonse runtime (access/modify/call);
    the analysis clears it when the target is statically known to be
    untracked (e.g. a scalar local, or a call that can never reach an
    incremental procedure). *)
type note = {
  mutable ty : ty option;  (** result type; [None] for proper calls *)
  mutable is_global : bool;  (** for [Var]: global, not local/param *)
  mutable tracked : bool;
}

let fresh_note () = { ty = None; is_global = false; tracked = true }

type expr = { desc : expr_desc; pos : pos; note : note }

and expr_desc =
  | Int of int
  | Bool of bool
  | Text of string
  | Nil
  | Var of string
  | Field of expr * string  (** pointer dereference + field access *)
  | Index of expr * expr  (** array subscript, bounds-checked *)
  | Call of callee * expr list
  | New of string
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Unchecked of expr  (** (*UNCHECKED*) e — §6.4 *)

and callee =
  | Cproc of string
  | Cmethod of expr * string  (** o.m(...) — dynamic dispatch *)

let mk_expr ?(pos = no_pos) desc = { desc; pos; note = fresh_note () }

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

type stmt = { sdesc : stmt_desc; spos : pos }

and stmt_desc =
  | Assign of expr * expr  (** designator := expr *)
  | Call_stmt of expr  (** a Call expression in statement position *)
  | If of (expr * stmt list) list * stmt list
      (** IF/ELSIF branches and the ELSE block (possibly empty) *)
  | While of expr * stmt list
  | Repeat of stmt list * expr  (** REPEAT body UNTIL cond *)
  | For of string * expr * expr * stmt list  (** FOR i := e1 TO e2 DO *)
  | Return of expr option

let mk_stmt ?(pos = no_pos) sdesc = { sdesc; spos = pos }

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

type field_decl = { fname : string; fty : ty; fpos : pos }

type method_decl = {
  mname : string;
  mparams : (string * ty) list;  (** excluding the receiver *)
  mret : ty option;
  mimpl : string;  (** implementing procedure *)
  mpragma : pragma option;
  mpos : pos;
}

type override_decl = {
  oname : string;
  oimpl : string;
  opragma : pragma option;
  opos : pos;
}

type type_decl = {
  tname : string;
  super : string option;
  fields : field_decl list;
  methods : method_decl list;
  overrides : override_decl list;
  tpos : pos;
}

type local_decl = { lname : string; lty : ty; linit : expr option; lpos : pos }

type proc_decl = {
  pname : string;
  params : (string * ty) list;
  ret : ty option;
  locals : local_decl list;
  body : stmt list;
  ppragma : pragma option;  (** [(*CACHED …*)] *)
  ppos : pos;
}

type global_decl = { gname : string; gty : ty; ginit : expr option; gpos : pos }

type module_ = {
  modname : string;
  types : type_decl list;
  globals : global_decl list;
  procs : proc_decl list;
  main : stmt list;  (** the module body — the mutator *)
}

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let find_type m name = List.find_opt (fun t -> t.tname = name) m.types
let find_proc m name = List.find_opt (fun p -> p.pname = name) m.procs

(* ------------------------------------------------------------------ *)
(* The static side's one walk                                          *)
(* ------------------------------------------------------------------ *)

(** Pre-order walk of one expression's subtree. *)
let rec iter_expr f e =
  f e;
  match e.desc with
  | Int _ | Bool _ | Text _ | Nil | Var _ | New _ -> ()
  | Field (b, _) -> iter_expr f b
  | Index (b, i) ->
    iter_expr f b;
    iter_expr f i
  | Call (callee, args) ->
    (match callee with Cproc _ -> () | Cmethod (o, _) -> iter_expr f o);
    List.iter (iter_expr f) args
  | Binop (_, a, b) ->
    iter_expr f a;
    iter_expr f b
  | Unop (_, a) | Unchecked a -> iter_expr f a

type visit = target:bool -> expr -> unit

(* Hand [f] every top-level expression of [body], in program order. *)
let walk_stmts body (f : visit) =
  let each e = f ~target:false e in
  let rec stmt s =
    match s.sdesc with
    | Assign (d, e) ->
      f ~target:true d;
      each e
    | Call_stmt e -> each e
    | If (branches, els) ->
      List.iter
        (fun (c, body) ->
          each c;
          List.iter stmt body)
        branches;
      List.iter stmt els
    | While (c, body) ->
      each c;
      List.iter stmt body
    | Repeat (body, c) ->
      List.iter stmt body;
      each c
    | For (_, a, b, body) ->
      each a;
      each b;
      List.iter stmt body
    | Return (Some e) -> each e
    | Return None -> ()
  in
  List.iter stmt body

let iter_proc_body pd (f : visit) =
  List.iter (fun l -> Option.iter (f ~target:false) l.linit) pd.locals;
  walk_stmts pd.body f

let iter_main_body m (f : visit) =
  List.iter (fun g -> Option.iter (f ~target:false) g.ginit) m.globals;
  walk_stmts m.main f

let iter_exprs f m =
  let each ~target:_ e = iter_expr f e in
  List.iter (fun pd -> iter_proc_body pd each) m.procs;
  iter_main_body m each
