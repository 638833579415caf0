(* eager-fronts: an Eager engine over a binary tree of Func instances,
   [leaves] Var leaves wide, whose bodies add their two children. An op
   sets [sets] random leaves, stabilizes and reads the root. The oracle
   is the sum of the leaf values, kept directly. *)

module Engine = Alphonse.Engine
module Var = Alphonse.Var
module Func = Alphonse.Func
module Trace = Measure.Trace

let sets = 64

type st = {
  eng : Engine.t;
  cells : int Var.t array;
  node : (int, int) Func.t;  (** heap numbering: root 1, leaves from [leaves] *)
  model : int array;
  mutable model_sum : int;
  (* the next op's inputs and the last op's output *)
  at : int array;
  v : int array;
  mutable root : int;
}

let layers = [| "var.set"; "engine.stabilize"; "func.call" |]
let l_set = 0
let l_stabilize = 1
let l_call = 2

let setup ~leaves rng =
  let eng = Engine.create ~default_strategy:Engine.Eager () in
  let model = Array.init leaves (fun _ -> Random.State.int rng 1000) in
  let cells = Array.map (fun v -> Var.create eng v) model in
  let node =
    Func.create eng ~name:"node" (fun node k ->
        if k >= leaves then Var.get cells.(k - leaves)
        else Func.call node (2 * k) + Func.call node ((2 * k) + 1))
  in
  let root = Func.call node 1 in
  {
    eng;
    cells;
    node;
    model;
    model_sum = Array.fold_left ( + ) 0 model;
    at = Array.make sets 0;
    v = Array.make sets 0;
    root;
  }

let prepare st rng =
  for i = 0 to sets - 1 do
    let at = Random.State.int rng (Array.length st.cells) in
    let v = Random.State.int rng 1000 in
    st.at.(i) <- at;
    st.v.(i) <- v;
    st.model_sum <- st.model_sum - st.model.(at) + v;
    st.model.(at) <- v
  done

let op st tr =
  for i = 0 to sets - 1 do
    let t0 = Trace.start tr in
    Var.set st.cells.(st.at.(i)) st.v.(i);
    Trace.stop tr l_set t0
  done;
  let t0 = Trace.start tr in
  Engine.stabilize st.eng;
  Trace.stop tr l_stabilize t0;
  let t0 = Trace.start tr in
  st.root <- Func.call st.node 1;
  Trace.stop tr l_call t0

let check st = st.root = st.model_sum

let workload ~leaves ~round_ops : st Inproc.t =
  {
    Inproc.layers;
    setup = setup ~leaves;
    engine = (fun st -> st.eng);
    prepare;
    op;
    check;
    final = (fun st -> Func.call st.node 1 = Array.fold_left ( + ) 0 st.model);
    aside = (fun _ _ -> ());
    round_ops;
    live_growth = false;
  }
