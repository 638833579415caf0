(* Tests for the dependency-graph substrate: order-maintenance list,
   flat heap, union-find, and the graph itself. *)

module Ol = Depgraph.Order_list
module Uf = Depgraph.Union_find
module G = Depgraph.Graph

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Order-maintenance list                                              *)
(* ------------------------------------------------------------------ *)

let test_order_basic () =
  let t = Ol.create () in
  let b = Ol.base t in
  let x = Ol.insert_after b in
  let y = Ol.insert_after x in
  let z = Ol.insert_after b in
  (* order is now b, z, x, y *)
  checkb "b < z" true (Ol.lt b z);
  checkb "z < x" true (Ol.lt z x);
  checkb "x < y" true (Ol.lt x y);
  checkb "y > b" true (Ol.lt b y);
  checki "length" 4 (Ol.length t);
  Ol.validate t

let test_order_insert_before () =
  let t = Ol.create () in
  let b = Ol.base t in
  let x = Ol.insert_after b in
  let w = Ol.insert_before x in
  checkb "b < w" true (Ol.lt b w);
  checkb "w < x" true (Ol.lt w x);
  Alcotest.check_raises "insert_before base"
    (Invalid_argument "Order_list.insert_before: base item") (fun () ->
      ignore (Ol.insert_before b));
  Ol.validate t

let test_order_delete () =
  let t = Ol.create () in
  let b = Ol.base t in
  let x = Ol.insert_after b in
  let y = Ol.insert_after x in
  Ol.delete x;
  checkb "b < y" true (Ol.lt b y);
  checki "length" 2 (Ol.length t);
  (* [lt]/[tag] are deliberately unchecked (settle-path fast path); the
     checked comparison is [compare] *)
  Alcotest.check_raises "compare deleted"
    (Invalid_argument "Order_list.compare: deleted order item") (fun () ->
      ignore (Ol.compare x y));
  Ol.validate t

(* Append-heavy and front-heavy insertion both must terminate and preserve
   order through relabeling. *)
let test_order_stress_front () =
  let t = Ol.create () in
  let b = Ol.base t in
  let items = Array.make 5000 b in
  (* Always insert directly after base: the new element lands before all
     previously inserted ones, continually squeezing the front gap. *)
  for i = 0 to 4999 do
    items.(i) <- Ol.insert_after b
  done;
  Ol.validate t;
  (* items.(i) was inserted later, so it sits closer to base *)
  for i = 1 to 4999 do
    checkb "later insert sorts earlier" true (Ol.lt items.(i) items.(i - 1))
  done;
  checkb "relabeling happened" true (Ol.relabel_count t > 0)

let test_order_random_matches_reference () =
  let rand = Random.State.make [| 42 |] in
  let t = Ol.create () in
  (* reference: a list of item ids in order; items array *)
  let items = ref [ Ol.base t ] in
  for _ = 1 to 2000 do
    let n = List.length !items in
    let i = Random.State.int rand n in
    let anchor = List.nth !items i in
    let fresh = Ol.insert_after anchor in
    (* splice into reference after position i *)
    let rec splice k = function
      | [] -> [ fresh ]
      | x :: rest -> if k = 0 then x :: fresh :: rest else x :: splice (k - 1) rest
    in
    items := splice i !items
  done;
  Ol.validate t;
  let arr = Array.of_list !items in
  for k = 0 to Array.length arr - 2 do
    checkb "reference order agrees" true (Ol.lt arr.(k) arr.(k + 1))
  done

(* ------------------------------------------------------------------ *)
(* Union-find                                                          *)
(* ------------------------------------------------------------------ *)

let test_uf_basic () =
  let a = Uf.make 1 and b = Uf.make 2 and c = Uf.make 4 in
  checkb "distinct" false (Uf.same a b);
  let ( + ) = Stdlib.( + ) in
  ignore (Uf.union ~merge:( + ) a b);
  checkb "unioned" true (Uf.same a b);
  checki "merged payload" 3 (Uf.payload a);
  checki "payload via either" 3 (Uf.payload b);
  ignore (Uf.union ~merge:( + ) b c);
  checki "payload all" 7 (Uf.payload c);
  checkb "transitive" true (Uf.same a c);
  (* idempotent union *)
  ignore (Uf.union ~merge:( + ) a c);
  checki "no double merge" 7 (Uf.payload a)

let prop_uf_partition_refinement =
  (* random unions on 40 elements agree with a naive partition oracle *)
  QCheck.Test.make ~name:"union-find agrees with naive partition"
    QCheck.(list (pair (int_bound 39) (int_bound 39)))
    (fun pairs ->
      let elts = Array.init 40 (fun i -> Uf.make i) in
      let naive = Array.init 40 (fun i -> i) in
      let rec naive_find i = if naive.(i) = i then i else naive_find naive.(i) in
      List.iter
        (fun (i, j) ->
          ignore (Uf.union ~merge:min elts.(i) elts.(j));
          let ri = naive_find i and rj = naive_find j in
          if ri <> rj then naive.(ri) <- rj)
        pairs;
      let ok = ref true in
      for i = 0 to 39 do
        for j = 0 to 39 do
          let same_uf = Uf.same elts.(i) elts.(j) in
          let same_naive = naive_find i = naive_find j in
          if same_uf <> same_naive then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Dependency graph                                                    *)
(* ------------------------------------------------------------------ *)

let test_graph_edges () =
  let g = G.create () in
  let a = G.add_node g ~order_after:None "a" in
  let b = G.add_node g ~order_after:None "b" in
  let c = G.add_node g ~order_after:None "c" in
  G.add_edge ~stamp:1 ~src:a ~dst:c;
  G.add_edge ~stamp:1 ~src:b ~dst:c;
  G.add_edge ~stamp:2 ~src:a ~dst:b;
  checki "succ a" 2 (G.succ_count a);
  checki "pred c" 2 (G.pred_count c);
  let seen = ref [] in
  G.iter_succ (fun n -> seen := G.payload n :: !seen) a;
  check
    Alcotest.(slist string compare)
    "a's successors" [ "b"; "c" ] !seen;
  G.clear_preds g c;
  checki "pred c cleared" 0 (G.pred_count c);
  checki "succ a after clear" 1 (G.succ_count a);
  checki "succ b after clear" 0 (G.succ_count b);
  G.validate g

let test_graph_edge_dedup () =
  let g = G.create () in
  let a = G.add_node g ~order_after:None "a" in
  let b = G.add_node g ~order_after:None "b" in
  G.add_edge ~stamp:7 ~src:a ~dst:b;
  G.add_edge ~stamp:7 ~src:a ~dst:b;
  G.add_edge ~stamp:7 ~src:a ~dst:b;
  checki "deduplicated" 1 (G.succ_count a);
  (* a different execution stamp records a fresh edge *)
  G.add_edge ~stamp:8 ~src:a ~dst:b;
  checki "new stamp, new edge" 2 (G.succ_count a)

let test_graph_order () =
  let g = G.create () in
  let a = G.add_node g ~order_after:None "a" in
  let b = G.add_node g ~order_after:None "b" in
  let c = G.add_node_before g ~order_before:b "c" in
  checkb "a before c" true (G.order_lt a c);
  checkb "c before b" true (G.order_lt c b);
  G.reorder_before b a;
  checkb "b moved before a" true (G.order_lt b a)

let test_graph_remove_node () =
  let g = G.create () in
  let a = G.add_node g ~order_after:None "a" in
  let b = G.add_node g ~order_after:None "b" in
  let c = G.add_node g ~order_after:None "c" in
  G.add_edge ~stamp:1 ~src:a ~dst:b;
  G.add_edge ~stamp:2 ~src:b ~dst:c;
  G.remove_node g b;
  checki "a succ" 0 (G.succ_count a);
  checki "c pred" 0 (G.pred_count c);
  Alcotest.check_raises "use after remove"
    (Invalid_argument "Graph.iter_succ: removed dependency graph node")
    (fun () -> G.iter_succ ignore b);
  let s = G.stats g in
  checki "live nodes" 2 s.live_nodes;
  checki "live edges" 0 s.live_edges;
  checki "total nodes" 3 s.total_nodes;
  checki "removed edges" 2 s.removed_edges

let test_graph_stats () =
  let g = G.create () in
  let a = G.add_node g ~order_after:None "a" in
  let b = G.add_node g ~order_after:None "b" in
  G.add_edge ~stamp:1 ~src:a ~dst:b;
  let s = G.stats g in
  checki "live nodes" 2 s.live_nodes;
  checki "live edges" 1 s.live_edges;
  checki "total edges" 1 s.total_edges

(* Swap-remove must preserve the identity of the surviving edges: when
   clearing c's predecessors vacates a's middle successor entry, the last
   entry (a→d) moves into the hole and its twin backpointer — held in d's
   pred arrays — must be repointed. A stale twin would corrupt the next
   detach through d. *)
let test_arena_swap_remove_identity () =
  let g = G.create () in
  let a = G.add_node g ~order_after:None "a" in
  let b = G.add_node g ~order_after:None "b" in
  let c = G.add_node g ~order_after:None "c" in
  let d = G.add_node g ~order_after:None "d" in
  G.add_edge ~stamp:1 ~src:a ~dst:b;
  G.add_edge ~stamp:2 ~src:a ~dst:c;
  G.add_edge ~stamp:3 ~src:a ~dst:d;
  (* vacates a's entry #1; the a→d entry swaps down into it *)
  G.clear_preds g c;
  let succ = ref [] in
  G.iter_succ (fun n -> succ := G.payload n :: !succ) a;
  check
    Alcotest.(slist string compare)
    "a→c removed, a→b and a→d survive" [ "b"; "d" ] !succ;
  (* detaching through the moved edge's twin exercises the repointing:
     d's pred entry must name a's *new* succ position *)
  G.clear_preds g d;
  let succ = ref [] in
  G.iter_succ (fun n -> succ := G.payload n :: !succ) a;
  check Alcotest.(slist string compare) "only a→b remains" [ "b" ] !succ;
  checki "b's preds intact" 1 (G.pred_count b);
  G.validate g

(* One slot recycled past the generation-word limit: the word wraps
   (mod [gen_limit]) back to a previously-issued value, and liveness
   must still be exact — it comes from the handle's dead flag, never
   from generation equality. *)
let test_arena_generation_rollover () =
  let g = G.create () in
  let first = G.add_node g ~order_after:None 0 in
  let slot0 = G.slot first in
  checki "first generation" 0 (G.generation first);
  G.remove_node g first;
  let last = ref first in
  (* [gen_limit - 1] further recyclings leave the slot's word at
     [gen_limit mod gen_limit = 0] for the next allocation *)
  for i = 1 to G.gen_limit - 1 do
    let n = G.add_node g ~order_after:None i in
    checki "slot is recycled" slot0 (G.slot n);
    checki "generation word wraps" (i mod G.gen_limit) (G.generation n);
    last := n;
    G.remove_node g n
  done;
  (* after the wrap, a fresh node carries the same generation word the
     original handle was allocated under … *)
  let alias = G.add_node g ~order_after:None (-1) in
  checki "wrapped back to the first word"
    (G.generation first) (G.generation alias);
  (* … yet both dead handles are still exactly dead *)
  Alcotest.check_raises "pre-wrap handle stays dead"
    (Invalid_argument "Graph.iter_succ: removed dependency graph node")
    (fun () -> G.iter_succ ignore first);
  Alcotest.check_raises "post-wrap handle stays dead"
    (Invalid_argument "Graph.iter_succ: removed dependency graph node")
    (fun () -> G.iter_succ ignore !last);
  let s = G.stats g in
  checki "one live node" 1 s.live_nodes;
  checki "all allocations counted" (G.gen_limit + 1) s.total_nodes;
  G.validate g

(* An arena id resolves to its node while the node lives, to nothing
   once it is removed — also after a new node takes the slot — and, the
   documented limit, to the slot's node again once the generation word
   has wrapped back to the same value. *)
let test_arena_ids () =
  let g = G.create () in
  let a = G.add_node g ~order_after:None "a" in
  let b = G.add_node g ~order_after:None "b" in
  let resolves n id =
    match G.of_arena_id g id with Some m -> m == n | None -> false
  in
  checkb "a resolves" true (resolves a (G.arena_id a));
  checkb "b resolves" true (resolves b (G.arena_id b));
  checkb "ids differ" true (G.arena_id a <> G.arena_id b);
  let id_a = G.arena_id a and slot_a = G.slot a in
  G.remove_node g a;
  checkb "removed: nothing" true (G.of_arena_id g id_a = None);
  let c = G.add_node g ~order_after:None "c" in
  checki "c takes a's slot" slot_a (G.slot c);
  checkb "recycled slot: still nothing" true (G.of_arena_id g id_a = None);
  checkb "c resolves" true (resolves c (G.arena_id c));
  checkb "out of range: nothing" true (G.of_arena_id g (1 lsl 40) = None);
  let last = ref c in
  for _ = 1 to G.gen_limit - 1 do
    G.remove_node g !last;
    last := G.add_node g ~order_after:None "d"
  done;
  checkb "wrapped: the slot's node" true (resolves !last id_a)

(* The re-read cursor: a read of the pred at the cursor writes no edge,
   a repeat is caught by the stamp, the first read that differs is the
   caller's to record, and truncating at the cursor drops exactly the
   preds not re-read. *)
let test_arena_reread_cursor () =
  let g = G.create () in
  let a = G.add_node g ~order_after:None "a" in
  let b = G.add_node g ~order_after:None "b" in
  let c = G.add_node g ~order_after:None "c" in
  let d = G.add_node g ~order_after:None "d" in
  List.iter (fun src -> G.add_edge ~stamp:1 ~src ~dst:d) [ a; b; c ];
  let total = (G.stats g).total_edges in
  let read src at =
    match G.reread ~stamp:2 ~src ~dst:d at with
    | `Repeat -> "repeat"
    | `Reread -> "reread"
    | `New -> "new"
  in
  let check_read what want src at = check Alcotest.string what want (read src at) in
  check_read "a at the cursor" "reread" a 0;
  check_read "a again" "repeat" a 1;
  check_read "c is not at the cursor" "new" c 1;
  check_read "no re-reading" "new" b (-1);
  checki "b's pred index" 1 (G.succ_pred_index b 0);
  check Alcotest.string "pred at the cursor" "b" (G.payload (G.pred_at d 1));
  checki "no edge written" total (G.stats g).total_edges;
  G.truncate_preds g d 1;
  checki "prefix kept" 1 (G.pred_count d);
  checki "b detached" 0 (G.succ_count b);
  checki "c detached" 0 (G.succ_count c);
  G.add_edge ~stamp:2 ~src:c ~dst:d;
  check
    Alcotest.(list string)
    "read order" [ "a"; "c" ]
    [ G.payload (G.pred_at d 0); G.payload (G.pred_at d 1) ];
  G.validate g

(* [order_epoch] versions [order_key]: across any operation that leaves
   the epoch unchanged, every live node keeps its key. Front-heavy
   insertion forces relabels; reorder_before and Pearce–Kelly reorders
   move keys directly. *)
let test_graph_order_epoch () =
  let g = G.create () in
  let nodes = ref [| G.add_node g ~order_after:None 0 |] in
  let rng = Random.State.make [| 7 |] in
  let pick () = !nodes.(Random.State.int rng (Array.length !nodes)) in
  let stamp = ref 0 and moves = ref 0 in
  for i = 1 to 3000 do
    let epoch = G.order_epoch g and keys = Array.map G.order_key !nodes in
    (match i mod 4 with
    | 0 | 1 ->
      let anchor = if i mod 4 = 0 then !nodes.(0) else pick () in
      nodes := Array.append !nodes [| G.add_node_before g ~order_before:anchor i |]
    | 2 ->
      let u = pick () and v = pick () in
      if u != v then G.reorder_before u v
    | _ -> (
      let src = pick () and dst = pick () in
      if src != dst then
        match G.restore_topological_order g ~src ~dst with
        | `Cycle -> ()
        | `Already_ordered | `Reordered _ ->
          incr stamp;
          G.add_edge ~stamp:!stamp ~src ~dst));
    if G.order_epoch g <> epoch then incr moves
    else
      Array.iteri
        (fun j k ->
          if G.order_key !nodes.(j) <> k then
            Alcotest.failf "step %d: key of node %d moved under epoch %d" i j
              epoch)
        keys
  done;
  checkb "relabels happened" true ((G.stats g).G.order_relabels > 0);
  checkb "the epoch moved" true (!moves > 0);
  G.validate g

(* ------------------------------------------------------------------ *)
(* Flat heap (the settle queues)                                       *)
(* ------------------------------------------------------------------ *)

module Fh = Depgraph.Flat_heap

(* The heap stores int ids and reads their keys through [key], the way
   the engine's heaps resolve arena ids to order-list tags. Here an id
   is an index into a key table. *)
let keyed keys = Fh.create ~key:(fun id -> keys.(id))

(* Pop everything, smallest first, the way the engine's drain does. *)
let drain h =
  let rec go acc =
    if Fh.is_empty h then List.rev acc
    else begin
      let x = Fh.min_elt h in
      Fh.drop_min h;
      go (x :: acc)
    end
  in
  go []

let test_flat_heap_sorts () =
  let keys = [| 5; 1; 4; 1; 3; 9; 2 |] in
  let h = keyed keys in
  Array.iteri (fun id _ -> Fh.insert h id) keys;
  checkb "not empty" false (Fh.is_empty h);
  let out = drain h in
  check Alcotest.(list int) "drains by key" [ 1; 1; 2; 3; 4; 5; 9 ]
    (List.map (fun id -> keys.(id)) out);
  check Alcotest.(list int) "every id once" [ 0; 1; 2; 3; 4; 5; 6 ]
    (List.sort compare out);
  checkb "empty after drain" true (Fh.is_empty h)

let test_flat_heap_meld () =
  let keys = [| 7; 3; 5; 1; 6 |] in
  let key id = keys.(id) in
  let h1 = Fh.create ~key and h2 = Fh.create ~key in
  List.iter (Fh.insert h1) [ 0; 1 ];
  List.iter (Fh.insert h2) [ 2; 3; 4 ];
  Fh.meld h1 h2;
  checkb "absorbed heap is empty" true (Fh.is_empty h2);
  check Alcotest.(list int) "meld = union" [ 3; 1; 2; 4; 0 ] (drain h1)

let test_flat_heap_peek_clear () =
  let keys = [| 30; 10; 20 |] in
  let h = keyed keys in
  check Alcotest.bool "min_elt of empty raises" true
    (match Fh.min_elt h with _ -> false | exception Invalid_argument _ -> true);
  Fh.insert h 0;
  Fh.insert h 1;
  checki "min_elt" 1 (Fh.min_elt h);
  checki "min_elt does not pop" 2 (Fh.length h);
  Fh.drop_min h;
  checki "drop_min removes the minimum" 0 (Fh.min_elt h);
  Fh.insert h 2;
  Fh.clear h;
  checkb "cleared" true (Fh.is_empty h);
  Fh.insert h 2;
  check Alcotest.(list int) "usable after clear" [ 2 ] (drain h)

(* A retired id — its key now negative, as the engine answers for a
   removed node — is not held to its stored key, and a rekey floats it
   to the top, where the owner drops it. *)
let test_flat_heap_retired () =
  let keys = [| 10; 20; 30 |] in
  let h = keyed keys in
  List.iter (Fh.insert h) [ 0; 1; 2 ];
  keys.(2) <- -1;
  Fh.validate ~current:true h;
  checki "stored key still orders it" 0 (Fh.min_elt h);
  Fh.rekey h;
  Fh.validate ~current:true h;
  check Alcotest.(list int) "retired id first after rekey" [ 2; 0; 1 ] (drain h)

(* In the two tests below, keys are read from a mutable table, the way
   the engine's heaps read order-list tags: moving a key is a new epoch
   for every heap. *)

(* One heap filled before the keys move (stale), one after (current).
   Melding the stale heap into the current one inserts its ids under
   their current keys, so the drain is sorted without a rekey; the
   other way round the stale keys stay until [rekey]. *)
let test_flat_heap_meld_epochs () =
  let keys = [| 10; 20; 30; 40; 50; 60 |] in
  let key i = keys.(i) in
  let fill elems =
    let h = Fh.create ~key in
    List.iter (Fh.insert h) elems;
    h
  in
  let by_new_keys () =
    keys.(0) <- 65;
    keys.(1) <- 5;
    keys.(2) <- 35
  in
  let stale = fill [ 0; 1; 2 ] in
  by_new_keys ();
  let current = fill [ 3; 4; 5 ] in
  Fh.meld current stale;
  checkb "absorbed heap is empty" true (Fh.is_empty stale);
  Fh.validate ~current:true current;
  check Alcotest.(list int) "stale src: meld re-keys it" [ 1; 2; 3; 4; 5; 0 ]
    (drain current);
  keys.(0) <- 10;
  keys.(1) <- 20;
  keys.(2) <- 30;
  let stale = fill [ 0; 1; 2 ] in
  by_new_keys ();
  let current = fill [ 3; 4; 5 ] in
  Fh.meld stale current;
  checkb "stale keys are kept" true
    (match Fh.validate ~current:true stale with
    | () -> false
    | exception Failure _ -> true);
  Fh.rekey stale;
  Fh.validate ~current:true stale;
  check Alcotest.(list int) "stale dst: sorted after rekey" [ 1; 2; 3; 4; 5; 0 ]
    (drain stale)

(* A heap holding [ids], keyed by [key]. *)
let heap_of key ids =
  let h = Fh.create ~key in
  List.iter (Fh.insert h) ids;
  h

let prop_flat_heap_sorts_random =
  QCheck.Test.make ~name:"flat heap drains sorted" QCheck.(list small_int)
    (fun ks ->
      let keys = Array.of_list ks in
      let key id = keys.(id) in
      let out = drain (heap_of key (List.init (Array.length keys) Fun.id)) in
      List.map (fun id -> keys.(id)) out = List.sort compare ks)

let prop_flat_heap_meld_random =
  QCheck.Test.make ~name:"flat heap meld equals concatenation"
    QCheck.(pair (list small_int) (list small_int))
    (fun (xs, ys) ->
      let keys = Array.of_list (xs @ ys) in
      let key id = keys.(id) and nx = List.length xs in
      let a = heap_of key (List.init nx Fun.id)
      and b = heap_of key (List.init (List.length ys) (fun i -> nx + i)) in
      Fh.meld a b;
      Fh.is_empty b
      && List.map (fun id -> keys.(id)) (drain a) = List.sort compare (xs @ ys))

(* Interleaved inserts and drop_mins against a sorted-list model: after
   every step the key of the heap's minimum and its length match the
   model's. *)
let prop_flat_heap_interleaved =
  QCheck.Test.make ~name:"flat heap matches sorted-list model"
    QCheck.(list (option small_int))
    (fun ops ->
      let keys = Array.of_list (List.filter_map Fun.id ops) in
      let h = keyed keys in
      let next = ref 0 in
      let model = ref [] in
      List.for_all
        (fun op ->
          (match op with
          | Some x ->
              Fh.insert h !next;
              incr next;
              model := List.merge compare [ x ] !model
          | None -> (
              Fh.drop_min h;
              match !model with [] -> () | _ :: rest -> model := rest));
          Fh.length h = List.length !model
          &&
          match !model with
          | [] -> Fh.is_empty h
          | m :: _ -> keys.(Fh.min_elt h) = m)
        ops)

(* Every operation against a sorted list of (key, id) pairs: inserts,
   drop_min, key moves followed by a rekey, and melds of a second heap.
   After each step the minimum's key, the length and the stored heap
   order agree with the oracle; at the end the drain holds exactly the
   oracle's ids, in key order. *)
type heap_op = Ins of int | Drop | Move of int * int | Meld of int list

let heap_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun k -> Ins k) small_nat);
        (3, return Drop);
        (1, map2 (fun i k -> Move (i, k)) small_nat small_nat);
        (1, map (fun ks -> Meld ks) (list_size (int_bound 5) small_nat));
      ])

let pp_heap_op = function
  | Ins k -> Printf.sprintf "Ins %d" k
  | Drop -> "Drop"
  | Move (i, k) -> Printf.sprintf "Move (%d, %d)" i k
  | Meld ks ->
      Printf.sprintf "Meld [%s]" (String.concat "; " (List.map string_of_int ks))

let prop_flat_heap_ops =
  QCheck.Test.make ~name:"flat heap ops match sorted-list oracle"
    (QCheck.make ~print:(QCheck.Print.list pp_heap_op)
       (QCheck.Gen.list_size (QCheck.Gen.int_bound 200) heap_op_gen))
    (fun ops ->
      let keys = Array.make 1024 0 and next = ref 0 in
      let fresh k =
        let id = !next in
        incr next;
        keys.(id) <- k;
        id
      in
      let key id = keys.(id) in
      let h = Fh.create ~key in
      let oracle = ref [] in
      let add id = oracle := List.merge compare [ (keys.(id), id) ] !oracle in
      List.for_all
        (fun op ->
          (match op with
          | Ins k ->
              let id = fresh k in
              Fh.insert h id;
              add id
          | Drop -> (
              match !oracle with
              | [] -> Fh.drop_min h
              | _ ->
                  let id = Fh.min_elt h in
                  Fh.drop_min h;
                  oracle := List.filter (fun (_, i) -> i <> id) !oracle)
          | Move (i, k) ->
              if !next > 0 then begin
                keys.(i mod !next) <- k;
                Fh.rekey h;
                oracle :=
                  List.sort compare
                    (List.map (fun (_, id) -> (keys.(id), id)) !oracle)
              end
          | Meld ks ->
              let src = Fh.create ~key in
              List.iter
                (fun k ->
                  let id = fresh k in
                  Fh.insert src id;
                  add id)
                ks;
              Fh.meld h src);
          Fh.validate ~current:true h;
          Fh.length h = List.length !oracle
          &&
          match !oracle with
          | [] -> Fh.is_empty h
          | (k, _) :: _ -> keys.(Fh.min_elt h) = k)
        ops
      &&
      let out = drain h in
      List.sort compare out = List.sort compare (List.map snd !oracle)
      && List.map key out = List.map fst !oracle)

(* Fill a heap under one set of keys, move arbitrary keys (a new epoch),
   rekey, then keep inserting: the drain comes out sorted by the new
   keys, holding exactly the inserted elements. *)
let prop_flat_heap_rekey =
  QCheck.Test.make ~name:"flat heap rekey sorts by new keys"
    QCheck.(triple (list small_int) (list small_int) (list small_int))
    (fun (before, moved, after) ->
      let nb = List.length before in
      let n = nb + List.length after in
      let keys = Array.of_list (before @ after) in
      let h = Fh.create ~key:(fun i -> keys.(i)) in
      for i = 0 to nb - 1 do
        Fh.insert h i
      done;
      List.iteri (fun j k -> if n > 0 then keys.((j * 7) mod n) <- k) moved;
      Fh.rekey h;
      let ok_rekeyed =
        match Fh.validate ~current:true h with
        | () -> true
        | exception Failure _ -> false
      in
      for i = nb to n - 1 do
        Fh.insert h i
      done;
      let out = drain h in
      let out_keys = List.map (fun i -> keys.(i)) out in
      ok_rekeyed
      && List.sort compare out = List.init n Fun.id
      && out_keys = List.sort compare out_keys)

(* Random add/clear sequence against a naive adjacency oracle. *)
let prop_graph_matches_oracle =
  QCheck.Test.make ~name:"graph agrees with naive adjacency oracle"
    QCheck.(list (pair (int_bound 9) (int_bound 9)))
    (fun ops ->
      let g = G.create () in
      let nodes = Array.init 10 (fun i -> G.add_node g ~order_after:None i) in
      let oracle = Array.make_matrix 10 10 false in
      let stamp = ref 0 in
      List.iteri
        (fun k (i, j) ->
          if k mod 7 = 3 then begin
            (* occasionally clear predecessors of j *)
            G.clear_preds g nodes.(j);
            for s = 0 to 9 do
              oracle.(s).(j) <- false
            done
          end
          else if i <> j then begin
            incr stamp;
            G.add_edge ~stamp:!stamp ~src:nodes.(i) ~dst:nodes.(j);
            oracle.(i).(j) <- true
          end)
        ops;
      let ok = ref true in
      for i = 0 to 9 do
        let succ = ref [] in
        G.iter_succ (fun n -> succ := G.payload n :: !succ) nodes.(i);
        let expected = ref [] in
        for j = 9 downto 0 do
          if oracle.(i).(j) then expected := j :: !expected
        done;
        (* the graph may hold parallel edges from distinct stamps; compare
           as sets *)
        let sort = List.sort_uniq compare in
        if sort !succ <> sort !expected then ok := false
      done;
      !ok)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "depgraph"
    [
      ( "order_list",
        [
          Alcotest.test_case "basic ordering" `Quick test_order_basic;
          Alcotest.test_case "insert_before" `Quick test_order_insert_before;
          Alcotest.test_case "delete" `Quick test_order_delete;
          Alcotest.test_case "front-insert stress" `Quick test_order_stress_front;
          Alcotest.test_case "random vs reference" `Quick
            test_order_random_matches_reference;
        ] );
      ( "union_find",
        Alcotest.test_case "basic" `Quick test_uf_basic
        :: qsuite [ prop_uf_partition_refinement ] );
      ( "flat_heap",
        Alcotest.test_case "sorts" `Quick test_flat_heap_sorts
        :: Alcotest.test_case "meld" `Quick test_flat_heap_meld
        :: Alcotest.test_case "peek/clear" `Quick test_flat_heap_peek_clear
        :: qsuite [ prop_flat_heap_sorts_random ]
        @ [ Alcotest.test_case "meld across epochs" `Quick
              test_flat_heap_meld_epochs;
            Alcotest.test_case "retired ids" `Quick test_flat_heap_retired ] );
      (* Alcotest sizes its label column by the longest suite name and
         truncates long test names to fit; keep the longest name at 12
         characters so the reported test names stay stable. *)
      ( "heap_oracles",
        qsuite
          [ prop_flat_heap_meld_random; prop_flat_heap_interleaved;
            prop_flat_heap_rekey; prop_flat_heap_ops ] );
      ( "graph",
        Alcotest.test_case "edges" `Quick test_graph_edges
        :: Alcotest.test_case "edge dedup" `Quick test_graph_edge_dedup
        :: Alcotest.test_case "order" `Quick test_graph_order
        :: Alcotest.test_case "remove node" `Quick test_graph_remove_node
        :: Alcotest.test_case "stats" `Quick test_graph_stats
        :: Alcotest.test_case "swap-remove edge identity" `Quick
             test_arena_swap_remove_identity
        :: Alcotest.test_case "generation-word rollover" `Quick
             test_arena_generation_rollover
        :: Alcotest.test_case "re-read cursor" `Quick
             test_arena_reread_cursor
        :: Alcotest.test_case "arena ids" `Quick test_arena_ids
        :: qsuite [ prop_graph_matches_oracle ]
        @ [ Alcotest.test_case "order epoch versions keys" `Quick
              test_graph_order_epoch ] );
    ]
