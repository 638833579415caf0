(** Abstract syntax of Alphonse-L, the Modula-3-flavored imperative object
    language of paper §3 (its "base language L" plus the three pragmas).

    The mutable [note] fields carry the results of type checking and of
    the §6.1 instrumentation analysis; the "transformed program" of §5 is
    this same tree with its notes filled in, renderable by {!Pretty} with
    explicit [access]/[modify]/[call] operations (Algorithm 2). *)

type pos = { line : int; col : int }

val no_pos : pos
val pp_pos : Format.formatter -> pos -> unit

(** {1 Pragmas (§3.3)} *)

type strategy = S_default | S_demand | S_eager

type cache_policy = P_unbounded | P_lru of int | P_fifo of int

type pragma =
  | Maintained of strategy
  | Cached of strategy * cache_policy

(** {1 Types} *)

type ty =
  | Tint
  | Tbool
  | Ttext
  | Tobj of string  (** nominal object type *)
  | Tarray of int * int * ty
      (** [ARRAY [lo..hi] OF t] — a fixed table, implicitly allocated
          where declared; nest for two dimensions (§7.2's cell array) *)

val pp_ty : Format.formatter -> ty -> unit
val ty_name : ty -> string

(** {1 Expressions} *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Cat  (** text concatenation, [&] *)
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or  (** short-circuit *)

type unop = Neg | Not

(** Filled by the type checker and the §6.1 analysis. [tracked] means the
    operation must go through the Alphonse runtime; the analysis clears
    it when the target is statically known untracked. *)
type note = {
  mutable ty : ty option;  (** result type; [None] for proper calls *)
  mutable is_global : bool;  (** for [Var]: global, not local/param *)
  mutable tracked : bool;
}

val fresh_note : unit -> note

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
  | Unchecked of expr  (** [(*UNCHECKED*) e] — §6.4 *)

and callee =
  | Cproc of string
  | Cmethod of expr * string  (** [o.m(...)] — dynamic dispatch *)

val mk_expr : ?pos:pos -> expr_desc -> expr

(** {1 Statements} *)

type stmt = { sdesc : stmt_desc; spos : pos }

and stmt_desc =
  | Assign of expr * expr  (** designator [:=] expression *)
  | Call_stmt of expr  (** a [Call] expression in statement position *)
  | If of (expr * stmt list) list * stmt list
      (** IF/ELSIF branches and the (possibly empty) ELSE block *)
  | While of expr * stmt list
  | Repeat of stmt list * expr  (** [REPEAT body UNTIL cond] *)
  | For of string * expr * expr * stmt list
      (** [FOR i := e1 TO e2 DO body END] *)
  | Return of expr option

val mk_stmt : ?pos:pos -> stmt_desc -> stmt

(** {1 Declarations} *)

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
  ret : ty option;  (** [None] for proper procedures *)
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

(** {1 Helpers} *)

val find_type : module_ -> string -> type_decl option
val find_proc : module_ -> string -> proc_decl option

(** {1 Walks}

    The static analyses ([Analyze], [Transform.Analysis]) walk the tree
    only through these. They keep no scope: whether a name is a global
    is the type checker's [is_global] note. *)

val iter_expr : (expr -> unit) -> expr -> unit
(** Pre-order walk of one expression's subtree. *)

type visit = target:bool -> expr -> unit
(** Called on each top-level expression of a body; [target] is true for
    an assignment's designator. *)

val iter_proc_body : proc_decl -> visit -> unit
(** The local initializers, then the statements, in program order. *)

val iter_main_body : module_ -> visit -> unit
(** The global initializers, then the module body (which has no
    locals but its FOR indices). *)

val iter_exprs : (expr -> unit) -> module_ -> unit
(** Applies a function to every expression of the module (procedure
    bodies, then initializers and the main body), parents before
    subexpressions. *)
