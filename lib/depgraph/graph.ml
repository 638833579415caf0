(* Arena-allocated, int-indexed dependency graph.

   Nodes live in a slot arena: the graph owns flat growable arrays
   indexed by slot (the live handle, and the slot's generation word),
   and each handle carries its adjacency as flat int arrays. An edge
   u → v is a pair of twinned entries: position i of u's successor
   arrays holds (v's slot, j) and position j of v's predecessor arrays
   holds (u's slot, i). Removal is swap-remove — the last entry moves
   into the vacated position and its twin backpointer is repointed —
   preserving §9.2's O(1)-per-edge removal contract without the edge
   records and option links of a doubly-linked representation.

   Re-reading: a consumer's predecessor array lists its sources in the
   order its last execution first read them. A re-execution walks a
   cursor over that array: a read of the source at the cursor only
   stamps the source, so a re-execution whose reads repeat writes no
   edge. The engine keeps the cursor (one per running execution),
   truncates the array at it on the first read that differs and appends
   from there on, and at exit truncates the preds the execution never
   reached. This replaces the paper's RemovePredEdges-then-re-record
   (§4.3) with the same resulting edge set.

   Slots are recycled through a free list. Each recycling increments
   the slot's generation word (mod [gen_limit]); a handle remembers
   the generation it was allocated under, so [validate] can prove that
   no live handle aliases a recycled slot. Liveness itself is the
   handle's [dead] flag — exact, set once by [remove_node], and immune
   to generation-word wraparound. The one reader that trusts the
   generation word is [of_arena_id], which the settle heaps use to
   resolve the ints they store: an id taken before the slot was
   recycled resolves to nothing until the word wraps.

   Duplicate suppression: within a single execution of a consumer,
   repeated accesses to the same source create only one edge,
   deduplicated by an execution stamp on the source node. *)

(* Generation words wrap at 2^16: small enough that the wraparound
   path is testable (test_depgraph recycles one slot past the limit),
   and wide enough that [validate]'s alias cross-check stays
   overwhelmingly effective, and that a stale heap entry names the
   slot's current node only after 2^16 recyclings of that slot. *)
let gen_bits = 16
let gen_limit = 1 lsl gen_bits

type 'a node = {
  id : int; (* unique for the graph's lifetime, never recycled *)
  slot : int; (* arena index; recycled through the free list *)
  gen : int; (* the slot's generation word at allocation *)
  payload : 'a;
  owner : 'a t;
  mutable order : Order_list.item;
  mutable dead : bool;
  (* adjacency: parallel flat int arrays, entries [0 .. *_n - 1] live.
     succ entry i = (succ_node.(i) : dst slot,
                     succ_twin.(i) : index of the twin entry in dst's
                     pred arrays); symmetrically for pred entries. *)
  mutable succ_node : int array;
  mutable succ_twin : int array;
  mutable succ_n : int;
  mutable pred_node : int array;
  mutable pred_twin : int array;
  mutable pred_n : int;
  (* execution stamp of the consumer that most recently recorded an edge
     from this node; suppresses duplicate edges within one execution *)
  mutable last_stamp : int;
}

and 'a t = {
  order_list : Order_list.t;
  mutable epoch : int;
      (* bumped whenever a live node's [order_key] may have moved: an
         order-list relabel, [reorder_before], a Pearce–Kelly permute *)
  mutable next_id : int;
  (* the arena: slot-indexed flat arrays, grown by doubling *)
  mutable handles : 'a node option array; (* slot -> live handle *)
  mutable gens : int array; (* slot -> current generation word *)
  mutable slots : int; (* high-water mark of slots ever used *)
  mutable free : int list; (* recycled slots *)
  mutable live_nodes : int;
  mutable live_edges : int;
  mutable total_nodes : int;
  mutable total_edges : int;
  mutable removed_edges : int;
}

let create () =
  {
    order_list = Order_list.create ();
    epoch = 0;
    next_id = 0;
    handles = [||];
    gens = [||];
    slots = 0;
    free = [];
    live_nodes = 0;
    live_edges = 0;
    total_nodes = 0;
    total_edges = 0;
    removed_edges = 0;
  }

let check_alive who n =
  if n.dead then invalid_arg (who ^ ": removed dependency graph node")

(* Resolve a slot to its live handle. Adjacency entries never hold a
   freed slot (every incident edge is detached before the slot is
   recycled), so the lookup cannot miss. *)
let[@inline] handle t s =
  match t.handles.(s) with Some n -> n | None -> assert false

let grow_arena t =
  let cap = Array.length t.gens in
  let cap' = if cap = 0 then 64 else 2 * cap in
  let handles = Array.make cap' None in
  Array.blit t.handles 0 handles 0 cap;
  t.handles <- handles;
  let gens = Array.make cap' 0 in
  Array.blit t.gens 0 gens 0 cap;
  t.gens <- gens

let alloc_slot t =
  match t.free with
  | s :: rest ->
    t.free <- rest;
    s
  | [] ->
    let s = t.slots in
    if s = Array.length t.gens then grow_arena t;
    t.slots <- s + 1;
    s

let empty_ints : int array = [||]

let mk_node t order payload =
  let slot = alloc_slot t in
  let id = t.next_id in
  t.next_id <- id + 1;
  t.live_nodes <- t.live_nodes + 1;
  t.total_nodes <- t.total_nodes + 1;
  let n =
    {
      id;
      slot;
      gen = t.gens.(slot);
      payload;
      owner = t;
      order;
      dead = false;
      succ_node = empty_ints;
      succ_twin = empty_ints;
      succ_n = 0;
      pred_node = empty_ints;
      pred_twin = empty_ints;
      pred_n = 0;
      last_stamp = -1;
    }
  in
  t.handles.(slot) <- Some n;
  n

(* An order insertion that relabeled moved other items' tags: a new
   epoch. *)
let order_insert t insert anchor =
  let relabels = Order_list.relabel_count t.order_list in
  let item = insert anchor in
  if Order_list.relabel_count t.order_list <> relabels then
    t.epoch <- t.epoch + 1;
  item

let add_node t ~order_after payload =
  let anchor =
    match order_after with
    | Some n ->
      check_alive "Graph.add_node" n;
      n.order
    | None -> Order_list.last t.order_list
  in
  mk_node t (order_insert t Order_list.insert_after anchor) payload

let add_node_before t ~order_before payload =
  check_alive "Graph.add_node_before" order_before;
  mk_node t (order_insert t Order_list.insert_before order_before.order) payload

let payload n = n.payload
let id n = n.id
let slot n = n.slot
let generation n = n.gen

(* A handle as one int, for the settle heaps: slot above the generation
   word. It resolves only while the slot holds the node allocated under
   that word; [Some n as h] hands back the arena's own option cell, so
   resolving allocates nothing. *)
let arena_id n = (n.slot lsl gen_bits) lor n.gen

let of_arena_id t x =
  let s = x lsr gen_bits in
  if s >= t.slots then None
  else
    match Array.unsafe_get t.handles s with
    | Some n as h when n.gen = x land (gen_limit - 1) -> h
    | Some _ | None -> None

let order_lt u v = Order_list.lt u.order v.order
let[@inline] order_key n = Order_list.tag n.order
let order_epoch t = t.epoch

let reorder_before u v =
  check_alive "Graph.reorder_before" u;
  check_alive "Graph.reorder_before" v;
  let fresh = Order_list.insert_before v.order in
  Order_list.delete u.order;
  u.order <- fresh;
  u.owner.epoch <- u.owner.epoch + 1

(* ---- adjacency primitives ---------------------------------------- *)

let ensure_succ n =
  if n.succ_n = Array.length n.succ_node then begin
    let cap = if n.succ_n = 0 then 4 else 2 * n.succ_n in
    let nn = Array.make cap 0 and nt = Array.make cap 0 in
    Array.blit n.succ_node 0 nn 0 n.succ_n;
    Array.blit n.succ_twin 0 nt 0 n.succ_n;
    n.succ_node <- nn;
    n.succ_twin <- nt
  end

let ensure_pred n =
  if n.pred_n = Array.length n.pred_node then begin
    let cap = if n.pred_n = 0 then 4 else 2 * n.pred_n in
    let nn = Array.make cap 0 and nt = Array.make cap 0 in
    Array.blit n.pred_node 0 nn 0 n.pred_n;
    Array.blit n.pred_twin 0 nt 0 n.pred_n;
    n.pred_node <- nn;
    n.pred_twin <- nt
  end

(* Swap-remove successor entry [k] of [u]: the last entry moves into
   [k], and its twin backpointer — held in the moved edge's destination
   pred arrays — is repointed at the new position. O(1). Must not be
   used while iterating [u]'s successors. *)
let remove_succ_entry t u k =
  let last = u.succ_n - 1 in
  if k <> last then begin
    let ms = u.succ_node.(last) and mt = u.succ_twin.(last) in
    u.succ_node.(k) <- ms;
    u.succ_twin.(k) <- mt;
    (handle t ms).pred_twin.(mt) <- k
  end;
  u.succ_n <- last

(* Symmetric: swap-remove predecessor entry [k] of [u], repointing the
   moved edge's source succ-twin. *)
let remove_pred_entry t u k =
  let last = u.pred_n - 1 in
  if k <> last then begin
    let ms = u.pred_node.(last) and mt = u.pred_twin.(last) in
    u.pred_node.(k) <- ms;
    u.pred_twin.(k) <- mt;
    (handle t ms).succ_twin.(mt) <- k
  end;
  u.pred_n <- last

let add_edge ~stamp ~src ~dst =
  check_alive "Graph.add_edge" src;
  check_alive "Graph.add_edge" dst;
  if src.last_stamp <> stamp then begin
    src.last_stamp <- stamp;
    let t = src.owner in
    ensure_succ src;
    ensure_pred dst;
    (* the succ entry's twin is the pred position about to be filled,
       and vice versa *)
    let si = src.succ_n and pi = dst.pred_n in
    src.succ_node.(si) <- dst.slot;
    src.succ_twin.(si) <- pi;
    src.succ_n <- si + 1;
    dst.pred_node.(pi) <- src.slot;
    dst.pred_twin.(pi) <- si;
    dst.pred_n <- pi + 1;
    t.live_edges <- t.live_edges + 1;
    t.total_edges <- t.total_edges + 1
  end

(* Detach preds [k, pred_n) of [n]. A source may hold two edges to [n]
   (the stamp dedups only until a nested execution re-stamps it): a
   swap-remove on its successor arrays then repoints the other edge's
   twin in [n]'s pred arrays, which this loop reads afresh. *)
let truncate_preds t n k =
  check_alive "Graph.truncate_preds" n;
  let m = n.pred_n - k in
  if m > 0 then begin
    for i = k to n.pred_n - 1 do
      remove_succ_entry t (handle t n.pred_node.(i)) n.pred_twin.(i)
    done;
    n.pred_n <- k;
    t.live_edges <- t.live_edges - m;
    t.removed_edges <- t.removed_edges + m
  end

(* RemovePredEdges. *)
let clear_preds t n = truncate_preds t n 0

(* The read of [src] by the execution [stamp] of [dst], whose cursor
   is [at]: a repeat within the execution, the source at the cursor
   (stamped), or a read that needs a new edge. *)
let reread ~stamp ~src ~dst at =
  check_alive "Graph.reread" src;
  if src.last_stamp = stamp then `Repeat
  else if at >= 0 && at < dst.pred_n && Array.unsafe_get dst.pred_node at = src.slot
  then begin
    src.last_stamp <- stamp;
    `Reread
  end
  else `New

let pred_at n i =
  check_alive "Graph.pred_at" n;
  if i < 0 || i >= n.pred_n then invalid_arg "Graph.pred_at: index out of range";
  handle n.owner n.pred_node.(i)

let clear_succs t n =
  let k = n.succ_n in
  if k > 0 then begin
    for i = 0 to k - 1 do
      remove_pred_entry t (handle t n.succ_node.(i)) n.succ_twin.(i)
    done;
    n.succ_n <- 0;
    t.live_edges <- t.live_edges - k;
    t.removed_edges <- t.removed_edges + k
  end

let remove_node t n =
  check_alive "Graph.remove_node" n;
  clear_preds t n;
  clear_succs t n;
  Order_list.delete n.order;
  n.dead <- true;
  (* recycle the slot under a fresh generation word *)
  t.handles.(n.slot) <- None;
  t.gens.(n.slot) <- (t.gens.(n.slot) + 1) mod gen_limit;
  t.free <- n.slot :: t.free;
  t.live_nodes <- t.live_nodes - 1

let iter_succ f n =
  check_alive "Graph.iter_succ" n;
  let t = n.owner in
  for i = 0 to n.succ_n - 1 do
    f (handle t n.succ_node.(i))
  done

let iter_nodes f t =
  for s = t.slots - 1 downto 0 do
    match t.handles.(s) with Some n -> f n | None -> ()
  done

let iter_pred f n =
  check_alive "Graph.iter_pred" n;
  let t = n.owner in
  for i = 0 to n.pred_n - 1 do
    f (handle t n.pred_node.(i))
  done

let succ_at n i =
  check_alive "Graph.succ_at" n;
  if i < 0 || i >= n.succ_n then invalid_arg "Graph.succ_at: index out of range";
  handle n.owner n.succ_node.(i)

let succ_pred_index n i =
  check_alive "Graph.succ_pred_index" n;
  if i < 0 || i >= n.succ_n then
    invalid_arg "Graph.succ_pred_index: index out of range";
  n.succ_twin.(i)

let succ_count n = n.succ_n
let pred_count n = n.pred_n

(* Restore topological order after discovering the edge src → dst with
   order(dst) < order(src) — the Pearce–Kelly algorithm ("A dynamic
   topological sort algorithm for directed acyclic graphs", JEA 2006),
   the kind of machinery the paper's §2 cites for maintaining evaluation
   order "in the presence of graph changes". Provided every prior edge
   respected the order (the engine calls this on each violation, so the
   invariant is maintained from an empty graph), the affected region is
   the forward cone of [dst] below [src]'s priority plus the backward
   cone of [src] above [dst]'s priority; permuting the region's existing
   priority slots — backward cone first — restores the invariant. A
   cycle through the new edge is detected when the forward walk reaches
   [src]; the order is then left untouched (the evaluator is correct
   under any order; order only reduces redundant re-execution). *)
let restore_topological_order t ~src ~dst =
  if not (order_lt dst src) then `Already_ordered
  else begin
    let exception Cycle_found in
    let fwd_tbl : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let fwd = ref [] in
    let rec walk_f n =
      if n.id = src.id then raise Cycle_found;
      if not (Hashtbl.mem fwd_tbl n.id) then begin
        Hashtbl.replace fwd_tbl n.id ();
        fwd := n :: !fwd;
        iter_succ
          (fun m -> if m.id = src.id || order_lt m src then walk_f m)
          n
      end
    in
    match walk_f dst with
    | exception Cycle_found -> `Cycle
    | () ->
      let bwd_tbl : (int, unit) Hashtbl.t = Hashtbl.create 16 in
      let bwd = ref [] in
      let rec walk_b n =
        if
          (not (Hashtbl.mem bwd_tbl n.id)) && not (Hashtbl.mem fwd_tbl n.id)
        then begin
          Hashtbl.replace bwd_tbl n.id ();
          bwd := n :: !bwd;
          iter_pred (fun m -> if order_lt dst m then walk_b m) n
        end
      in
      walk_b src;
      let by_order a b = Order_list.compare a.order b.order in
      let region = List.sort by_order (!fwd @ !bwd) in
      let desired = List.sort by_order !bwd @ List.sort by_order !fwd in
      let slots = List.map (fun n -> n.order) region in
      List.iter2 (fun slot n -> n.order <- slot) slots desired;
      t.epoch <- t.epoch + 1;
      `Reordered (List.length region)
  end

type stats = {
  live_nodes : int;
  live_edges : int;
  total_nodes : int;
  total_edges : int;
  removed_edges : int;
  order_relabels : int;
}

let stats (t : _ t) =
  {
    live_nodes = t.live_nodes;
    live_edges = t.live_edges;
    total_nodes = t.total_nodes;
    total_edges = t.total_edges;
    removed_edges = t.removed_edges;
    order_relabels = Order_list.relabel_count t.order_list;
  }

let validate t =
  Order_list.validate t.order_list;
  if t.live_nodes < 0 || t.live_edges < 0 then
    failwith "Graph.validate: negative live counts";
  (* arena coherence: every live handle sits in its own slot under the
     slot's current generation word, with twin-symmetric adjacency *)
  let live = ref 0 and edges = ref 0 in
  for s = 0 to t.slots - 1 do
    match t.handles.(s) with
    | None -> ()
    | Some n ->
      incr live;
      if n.dead then failwith "Graph.validate: dead handle in arena";
      if n.slot <> s then failwith "Graph.validate: handle in a foreign slot";
      if n.gen <> t.gens.(s) then
        failwith "Graph.validate: live handle under a stale generation word";
      for i = 0 to n.succ_n - 1 do
        incr edges;
        let d = handle t n.succ_node.(i) in
        let tp = n.succ_twin.(i) in
        if
          tp >= d.pred_n
          || d.pred_node.(tp) <> n.slot
          || d.pred_twin.(tp) <> i
        then failwith "Graph.validate: broken succ/pred twin symmetry"
      done;
      for i = 0 to n.pred_n - 1 do
        let sr = handle t n.pred_node.(i) in
        let tp = n.pred_twin.(i) in
        if
          tp >= sr.succ_n
          || sr.succ_node.(tp) <> n.slot
          || sr.succ_twin.(tp) <> i
        then failwith "Graph.validate: broken pred/succ twin symmetry"
      done
  done;
  if !live <> t.live_nodes then
    failwith "Graph.validate: live-node count disagrees with the arena";
  if !edges <> t.live_edges then
    failwith "Graph.validate: live-edge count disagrees with the arena"
