(** Conventional (non-incremental) interpreter for Alphonse-L — the
    execution the paper attributes to "a traditional compiler" (§3.6,
    §9.2). Pragmas are ignored: maintained and cached procedures execute
    exhaustively on every call. Output and termination behavior are the
    observables Theorem 5.1 requires the Alphonse execution to
    reproduce. *)

exception Runtime_error of string * Ast.pos

val error : Ast.pos -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raises {!Runtime_error} at a position with a formatted message. *)

(** {1 Value coercions}

    Each returns the payload of a value of the expected kind and raises
    {!Runtime_error} at the position otherwise. The incremental
    interpreter uses the same ones, so both report the same errors. *)

val obj_of : Ast.pos -> Value.value -> Value.obj
(** Also rejects [NIL] ("NIL dereference"). *)

val int_of : Ast.pos -> Value.value -> int
val bool_of : Ast.pos -> Value.value -> bool
val text_of : Ast.pos -> Value.value -> string
val arr_of : Ast.pos -> Value.value -> Value.arr

val elem_slot : Ast.pos -> Value.arr -> int -> Value.value ref
(** The slot of an array element, bounds-checked. *)

exception Return_value of Value.value option
(** Internal control flow for [RETURN]; escapes only on a malformed
    top-level [RETURN]. *)

type state
(** Mutable execution state: globals, heap allocator, output buffer,
    step counter, optional fuel. *)

type frame = (string, Value.value ref) Hashtbl.t
(** Procedure-local bindings (parameters, locals, FOR variables). *)

type outcome = {
  output : string;  (** everything [Print]ed *)
  error : string option;  (** a runtime error, if execution aborted *)
  steps : int;  (** statements + expressions evaluated *)
}

val run : ?fuel:int -> Typecheck.env -> outcome
(** Execute the module body. [fuel] bounds interpreter steps (runaway
    programs abort with an error outcome instead of hanging). *)

(** {1 Internal entry points (tests, benches)} *)

val init_state : ?fuel:int -> Typecheck.env -> state
(** Allocate globals (including implicit array storage) and run their
    initializers. *)

val eval : state -> frame -> Ast.expr -> Value.value
val exec_stmts : state -> frame -> Ast.stmt list -> unit
val call_proc : state -> Ast.proc_decl -> Value.value list -> Value.value option
