(** Attribute grammars as Alphonse data types — paper §7.1.

    Each production instance is a heap object carrying a parent pointer,
    tracked child pointers, and terminal fields; attributes are maintained
    methods on these objects. Synthesized attributes are methods of no
    argument; inherited attributes follow the paper's encoding — a single
    method whose body dispatches on the {e context} (which production the
    parent is, and which child slot this node occupies).

    The framework is untyped in the attribute domain: a grammar fixes one
    OCaml type ['v] of attribute/terminal values and the instance modules
    ({!Let_lang}, {!Binary}) define their own variants. Equations are
    ordinary OCaml functions that read children, terminals, and other
    attributes through tracked operations, so Alphonse discovers the
    attribute dependency graph dynamically — no static circularity
    analysis, no grammar-class restriction (this is the "subsumes grammar
    based languages" claim of §10).

    Tree edits ({!set_child}, {!set_terminal}, {!splice}) are plain
    mutator writes; re-attribution after an edit touches only the
    attribute instances on affected paths. *)

module Engine = Alphonse.Engine
module Var = Alphonse.Var
module Func = Alphonse.Func

type 'v node = {
  id : int;
  prod : string;  (** production name, the dispatch tag for equations *)
  parent : 'v parent Var.t;
  children : 'v node list Var.t;
  terminals : (string * 'v Var.t) list;
}

and 'v parent =
  | P_none
  | P of 'v node

let node_equal a b = a.id = b.id
let node_hash n = n.id

let parent_equal a b =
  match (a, b) with
  | P_none, P_none -> true
  | P a, P b -> node_equal a b
  | P_none, P _ | P _, P_none -> false

let children_equal a b =
  List.length a = List.length b && List.for_all2 node_equal a b

type 'v grammar = { eng : Engine.t; mutable next_id : int }

let create eng = { eng; next_id = 0 }

let engine g = g.eng

let node g ~prod ?(terminals = []) children =
  let id = g.next_id in
  g.next_id <- id + 1;
  let n =
    {
      id;
      prod;
      parent =
        Var.create g.eng ~name:(Fmt.str "%s%d.parent" prod id)
          ~equal:parent_equal P_none;
      children =
        Var.create g.eng
          ~name:(Fmt.str "%s%d.children" prod id)
          ~equal:children_equal children;
      terminals =
        List.map
          (fun (k, v) ->
            ( k,
              Var.create g.eng
                ~name:(Fmt.str "%s%d.%s" prod id k)
                v ))
          terminals;
    }
  in
  List.iter (fun c -> Var.set c.parent (P n)) children;
  n

let prod n = n.prod
let children n = Var.get n.children

let child n i =
  match List.nth_opt (Var.get n.children) i with
  | Some c -> c
  | None -> invalid_arg (Fmt.str "Attrgram.child: %s#%d has no child %d" n.prod n.id i)

let parent n =
  match Var.get n.parent with P_none -> None | P p -> Some p

let terminal n k =
  match List.assoc_opt k n.terminals with
  | Some v -> Var.get v
  | None ->
    invalid_arg (Fmt.str "Attrgram.terminal: %s#%d has no terminal %s" n.prod n.id k)

let set_terminal n k v =
  match List.assoc_opt k n.terminals with
  | Some cell -> Var.set cell v
  | None ->
    invalid_arg
      (Fmt.str "Attrgram.set_terminal: %s#%d has no terminal %s" n.prod n.id k)

(** The child slot this node occupies under its parent, if attached. The
    inherited-attribute dispatch of the paper's [LetEnv] ("IF c = o.expl
    THEN …") is [index_in_parent] here. *)
let index_in_parent n =
  match parent n with
  | None -> None
  | Some p ->
    let rec find i = function
      | [] -> None
      | c :: rest -> if node_equal c n then Some i else find (i + 1) rest
    in
    find 0 (Var.get p.children)

(** Replace child [i] of [n] with [fresh], detaching the old child and
    re-pointing parents. *)
let set_child n i fresh =
  let cs = Var.get n.children in
  if i < 0 || i >= List.length cs then
    invalid_arg (Fmt.str "Attrgram.set_child: %s#%d has no child %d" n.prod n.id i);
  let old = List.nth cs i in
  if not (node_equal old fresh) then begin
    Var.set old.parent P_none;
    Var.set fresh.parent (P n);
    Var.set n.children (List.mapi (fun j c -> if j = i then fresh else c) cs)
  end

(** Insert [fresh] as a new child of [n] at position [i]. *)
let insert_child n i fresh =
  let cs = Var.get n.children in
  if i < 0 || i > List.length cs then
    invalid_arg (Fmt.str "Attrgram.insert_child: bad position %d" i);
  Var.set fresh.parent (P n);
  let rec ins k = function
    | rest when k = i -> fresh :: rest
    | [] -> invalid_arg "Attrgram.insert_child"
    | c :: rest -> c :: ins (k + 1) rest
  in
  Var.set n.children (ins 0 cs)

(** Remove child [i] of [n], detaching it. *)
let remove_child n i =
  let cs = Var.get n.children in
  if i < 0 || i >= List.length cs then
    invalid_arg (Fmt.str "Attrgram.remove_child: bad position %d" i);
  let old = List.nth cs i in
  Var.set old.parent P_none;
  Var.set n.children (List.filteri (fun j _ -> j <> i) cs)

(* ------------------------------------------------------------------ *)
(* Attributes                                                          *)
(* ------------------------------------------------------------------ *)

type 'v attr = ('v node, 'v) Func.t

(** Declare an attribute. The equation body receives the node; it reads
    structure through {!children}/{!parent}/{!terminal} and other
    attributes through {!eval}, so every dependency is tracked. Whether
    the attribute is synthesized or inherited is purely a matter of which
    direction the body looks. *)
let attribute ?strategy g ~name body : 'v attr =
  Func.create g.eng ~name ?strategy ~hash_arg:node_hash ~equal_arg:node_equal
    (fun _self n -> body n)

let eval (a : 'v attr) n = Func.call a n

(* ------------------------------------------------------------------ *)
(* Traversals (for tests and demos)                                    *)
(* ------------------------------------------------------------------ *)

let rec iter f n =
  f n;
  List.iter (iter f) (Var.get n.children)

let size n =
  let k = ref 0 in
  iter (fun _ -> incr k) n;
  !k

let pp ppf n =
  let rec go ppf n =
    let terms =
      List.map (fun (k, _) -> k) n.terminals |> String.concat ","
    in
    Fmt.pf ppf "@[<hv 2>(%s#%d%s%a)@]" n.prod n.id
      (if terms = "" then "" else "{" ^ terms ^ "}")
      (fun ppf cs -> List.iter (fun c -> Fmt.pf ppf "@ %a" go c) cs)
      (Var.get n.children)
  in
  go ppf n
