(** Binary trees with tracked child pointers and a maintained [height]
    method — the paper's Algorithm 1.

    Nodes are heap objects with identity; the child pointers are tracked
    {!Alphonse.Var}s so that pointer surgery by the mutator propagates to
    the incremental [height] instances hanging off each subtree. A single
    shared [Nil] plays the role of the paper's [TreeNil] object. *)

module Engine = Alphonse.Engine
module Var = Alphonse.Var
module Func = Alphonse.Func

type tree =
  | Nil
  | Node of node

and node = {
  id : int;  (** identity for hashing and equality *)
  key : int;  (** payload; doubles as the search key for {!Avl} *)
  left : tree Var.t;
  right : tree Var.t;
}

let tree_equal a b =
  a == b
  ||
  match (a, b) with
  | Nil, Nil -> true
  | Node x, Node y -> x.id = y.id
  | Nil, Node _ | Node _, Nil -> false

let tree_hash = function Nil -> 0 | Node n -> n.id + 1

(** A forest context: an engine, a node allocator, and the maintained
    [height] method shared by every tree built in it. *)
type t = {
  eng : Engine.t;
  height_fn : (tree, int) Func.t;
  mutable next_id : int;
}

let create ?strategy eng =
  let height_fn =
    Func.create eng ~name:"height" ?strategy ~hash_arg:tree_hash
      ~equal_arg:tree_equal (fun height t ->
        match t with
        | Nil -> 0
        | Node n ->
          1
          + max
              (Func.call height (Var.get n.left))
              (Func.call height (Var.get n.right)))
  in
  { eng; height_fn; next_id = 0 }

let engine t = t.eng

let node t ?(left = Nil) ?(right = Nil) key =
  let id = t.next_id in
  t.next_id <- id + 1;
  Node
    {
      id;
      key;
      (* plain concatenation: node allocation is on E4's hot loop and a
         format-string parse per child name shows up in profiles *)
      left =
        Var.create t.eng ~equal:tree_equal
          ~name:("n" ^ string_of_int id ^ ".left") left;
      right =
        Var.create t.eng ~equal:tree_equal
          ~name:("n" ^ string_of_int id ^ ".right") right;
    }

let height t tree = Func.call t.height_fn tree

let height_func t = t.height_fn

(** The exhaustive specification the pragma-free program would run: a full
    recursive pass, no caching. The conventional-execution baseline of
    §9.2 and the E1/E6 benches. *)
let rec height_exhaustive = function
  | Nil -> 0
  | Node n ->
    1
    + max
        (height_exhaustive (Var.get n.left))
        (height_exhaustive (Var.get n.right))

let rec size = function
  | Nil -> 0
  | Node n -> 1 + size (Var.get n.left) + size (Var.get n.right)

(** In-order key list. *)
let keys tree =
  let rec go acc = function
    | Nil -> acc
    | Node n -> go (n.key :: go acc (Var.get n.right)) (Var.get n.left)
  in
  go [] tree

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)
(* ------------------------------------------------------------------ *)

(** Perfectly balanced tree over keys [lo..hi]. *)
let rec perfect t lo hi =
  if lo > hi then Nil
  else
    let mid = (lo + hi) / 2 in
    node t ~left:(perfect t lo (mid - 1)) ~right:(perfect t (mid + 1) hi) mid

(** Degenerate right spine with keys [0..n-1] — worst-case height. *)
let spine t n =
  let rec go k = if k >= n then Nil else node t ~right:(go (k + 1)) k in
  go 0

(** Random binary search tree by repeated leaf insertion (no balancing). *)
let random t ~rand n =
  let rec insert tree k =
    match tree with
    | Nil -> node t k
    | Node m ->
      (if k < m.key then Var.set m.left (insert (Var.get m.left) k)
       else Var.set m.right (insert (Var.get m.right) k));
      tree
  in
  let keys = Array.init n (fun i -> i) in
  (* Fisher–Yates shuffle for an expected O(log n) height *)
  for i = n - 1 downto 1 do
    let j = Random.State.int rand (i + 1) in
    let tmp = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- tmp
  done;
  Array.fold_left insert Nil keys

(** All interior nodes of a tree, in preorder — handy for picking random
    mutation points. *)
let nodes tree =
  let rec go acc = function
    | Nil -> acc
    | Node n -> go (go (n :: acc) (Var.get n.left)) (Var.get n.right)
  in
  List.rev (go [] tree)
