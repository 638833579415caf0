(* avl-churn: a Trees.Avl of [size] keys under delete + insert +
   rebalance + mem. The oracle is a reference set of the present keys:
   every [mem] answer is checked against it, and at the end the tree's
   key list must equal it and the tree must be balanced and ordered. *)

module Avl = Trees.Avl
module Trace = Measure.Trace

type st = {
  tree : Avl.avl;
  (* the reference set: present keys in an array (for uniform picks)
     plus each key's index in it *)
  keys : int array;
  index : (int, int) Hashtbl.t;
  (* the next op's inputs and the last op's output *)
  mutable victim : int;
  mutable fresh : int;
  mutable probe : int;
  mutable found : bool;
}

let layers = [| "avl.delete"; "avl.insert"; "avl.rebalance"; "avl.mem" |]
let l_delete = 0
let l_insert = 1
let l_rebalance = 2
let l_mem = 3
let key_space = 1_000_000_000

let rec fresh_key st rng =
  let k = Random.State.int rng key_space in
  if Hashtbl.mem st.index k then fresh_key st rng else k

let setup ~size rng =
  let eng = Alphonse.Engine.create () in
  let st =
    {
      tree = Avl.create eng;
      keys = Array.make size 0;
      index = Hashtbl.create (2 * size);
      victim = 0;
      fresh = 0;
      probe = 0;
      found = false;
    }
  in
  for i = 0 to size - 1 do
    let k = fresh_key st rng in
    st.keys.(i) <- k;
    Hashtbl.replace st.index k i
  done;
  (* the draw order is already a shuffle of the key set *)
  Array.iter (Avl.insert st.tree) st.keys;
  Avl.rebalance st.tree;
  st

(* The victim's slot takes the fresh key, so the reference set is
   updated before the op runs; [check] reads only [probe]/[found]. *)
let prepare st rng =
  let i = Random.State.int rng (Array.length st.keys) in
  st.victim <- st.keys.(i);
  Hashtbl.remove st.index st.victim;
  st.fresh <- fresh_key st rng;
  st.keys.(i) <- st.fresh;
  Hashtbl.replace st.index st.fresh i;
  st.probe <-
    (if Random.State.bool rng then
       st.keys.(Random.State.int rng (Array.length st.keys))
     else Random.State.int rng key_space)

let op st tr =
  let t0 = Trace.start tr in
  Avl.delete st.tree st.victim;
  Trace.stop tr l_delete t0;
  let t0 = Trace.start tr in
  Avl.insert st.tree st.fresh;
  Trace.stop tr l_insert t0;
  let t0 = Trace.start tr in
  Avl.rebalance st.tree;
  Trace.stop tr l_rebalance t0;
  let t0 = Trace.start tr in
  st.found <- Avl.mem st.tree st.probe;
  Trace.stop tr l_mem t0

let check st = st.found = Hashtbl.mem st.index st.probe

let final st =
  let expected = List.sort compare (Array.to_list st.keys) in
  let root = Avl.root st.tree in
  Avl.to_list st.tree = expected && Avl.is_balanced root && Avl.is_ordered root

let workload ~size ~round_ops : st Inproc.t =
  {
    Inproc.layers;
    setup = setup ~size;
    engine = (fun st -> Avl.engine st.tree);
    prepare;
    op;
    check;
    final;
    aside = (fun _ _ -> ());
    round_ops;
    live_growth = true;
  }
