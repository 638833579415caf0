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

let test_uf_set_payload () =
  let a = Uf.make "x" and b = Uf.make "y" in
  ignore (Uf.union ~merge:(fun k _ -> k) a b);
  Uf.set_payload b "z";
  check Alcotest.string "set via non-root" "z" (Uf.payload a)

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

let int_heap () = Fh.create ~key:(fun (a : int) -> a)

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
  let h = int_heap () in
  List.iter (Fh.insert h) [ 5; 1; 4; 1; 3; 9; 2 ];
  checkb "not empty" false (Fh.is_empty h);
  check Alcotest.(list int) "drains sorted" [ 1; 1; 2; 3; 4; 5; 9 ] (drain h);
  checkb "empty after drain" true (Fh.is_empty h)

let test_flat_heap_meld () =
  let key (a : int) = a in
  let h1 = Fh.create ~key and h2 = Fh.create ~key in
  List.iter (Fh.insert h1) [ 7; 3 ];
  List.iter (Fh.insert h2) [ 5; 1; 6 ];
  Fh.meld h1 h2;
  checkb "absorbed heap is empty" true (Fh.is_empty h2);
  check Alcotest.(list int) "meld = union" [ 1; 3; 5; 6; 7 ] (drain h1)

let test_flat_heap_peek_clear () =
  let h = int_heap () in
  check Alcotest.bool "min_elt of empty raises" true
    (match Fh.min_elt h with _ -> false | exception Invalid_argument _ -> true);
  Fh.insert h 3;
  Fh.insert h 1;
  checki "min_elt" 1 (Fh.min_elt h);
  checki "min_elt does not pop" 2 (Fh.length h);
  Fh.drop_min h;
  checki "drop_min removes the minimum" 3 (Fh.min_elt h);
  Fh.insert h 2;
  Fh.clear h;
  checkb "cleared" true (Fh.is_empty h)

(* In the two tests below, keys are read from a mutable table, the way
   the engine's heaps read order-list tags: moving a key is a new epoch
   for every heap. *)

(* One heap filled before the keys move (stale), one after (current).
   Melding the stale heap into the current one inserts its elements
   under their current keys, so the drain is sorted without a rekey;
   the other way round the stale keys stay until [rekey]. *)
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

let prop_flat_heap_sorts_random =
  QCheck.Test.make ~name:"flat heap drains sorted" QCheck.(list small_int)
    (fun xs ->
      let h = int_heap () in
      List.iter (Fh.insert h) xs;
      drain h = List.sort compare xs)

let prop_flat_heap_meld_random =
  QCheck.Test.make ~name:"flat heap meld equals concatenation"
    QCheck.(pair (list small_int) (list small_int))
    (fun (xs, ys) ->
      let a = int_heap () and b = int_heap () in
      List.iter (Fh.insert a) xs;
      List.iter (Fh.insert b) ys;
      Fh.meld a b;
      Fh.is_empty b && drain a = List.sort compare (xs @ ys))

(* Interleaved inserts and drop_mins against a sorted-list model: after
   every step the heap's minimum and length match the model's. *)
let prop_flat_heap_interleaved =
  QCheck.Test.make ~name:"flat heap matches sorted-list model"
    QCheck.(list (option small_int))
    (fun ops ->
      let h = int_heap () in
      let model = ref [] in
      List.for_all
        (fun op ->
          (match op with
          | Some x ->
              Fh.insert h x;
              model := List.merge compare [ x ] !model
          | None -> (
              Fh.drop_min h;
              match !model with [] -> () | _ :: rest -> model := rest));
          Fh.length h = List.length !model
          &&
          match !model with
          | [] -> Fh.is_empty h
          | m :: _ -> Fh.min_elt h = m)
        ops)

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
        :: Alcotest.test_case "set_payload" `Quick test_uf_set_payload
        :: qsuite [ prop_uf_partition_refinement ] );
      ( "flat_heap",
        Alcotest.test_case "sorts" `Quick test_flat_heap_sorts
        :: Alcotest.test_case "meld" `Quick test_flat_heap_meld
        :: Alcotest.test_case "peek/clear" `Quick test_flat_heap_peek_clear
        :: qsuite [ prop_flat_heap_sorts_random ]
        @ [ Alcotest.test_case "meld across epochs" `Quick
              test_flat_heap_meld_epochs ] );
      (* Alcotest sizes its label column by the longest suite name and
         truncates long test names to fit; keep the longest name at 12
         characters so the reported test names stay stable. *)
      ( "heap_oracles",
        qsuite
          [ prop_flat_heap_meld_random; prop_flat_heap_interleaved;
            prop_flat_heap_rekey ] );
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
        :: qsuite [ prop_graph_matches_oracle ]
        @ [ Alcotest.test_case "order epoch versions keys" `Quick
              test_graph_order_epoch ] );
    ]
