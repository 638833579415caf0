(* Arena-allocated, int-indexed dependency graph.

   Nodes live in a slot arena: the graph owns one flat growable array
   that maps a slot to its live handle (a vacant slot holds an
   immediate, so the array needs no option cells), and each handle
   carries its adjacency as one flat int array per direction. An edge
   u → v is a pair of twinned entries of two ints each: entry i of u's
   successor array holds (v's slot, j) and entry j of v's predecessor
   array holds (u's slot, i). Removal is swap-remove — the last entry
   moves into the vacated position and its twin backpointer is
   repointed — preserving §9.2's O(1)-per-edge removal contract without
   the edge records and option links of a doubly-linked representation.
   An array starts with room for two entries and doubles.

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
   the slot's generation word (mod [gen_limit]). A handle holds its
   arena id — its slot above the generation word it was allocated
   under — and [remove_node] complements it, so liveness is the id's
   sign: exact, set once, and immune to generation-word wraparound. A
   free slot waits on the free list as the arena id its next node gets,
   so the arena keeps no generation array. The one reader that trusts
   the generation word is [of_arena_id], which the settle heaps use to
   resolve the ints they store: an id taken before the slot was
   recycled resolves to nothing until the word wraps.

   Duplicate suppression: within a single execution of a consumer,
   repeated accesses to the same source create only one edge,
   deduplicated by an execution stamp on the source node. *)

(* Generation words wrap at 2^16: small enough that the wraparound
   path is testable (test_depgraph recycles one slot past the limit),
   and wide enough that a stale heap entry names the slot's current
   node only after 2^16 recyclings of that slot. *)
let gen_bits = 16
let gen_limit = 1 lsl gen_bits

type 'a node = {
  id : int; (* unique for the graph's lifetime, never recycled *)
  mutable aid : int;
      (* the arena id: the slot (recycled through the free list) above
         the slot's generation word at allocation. [remove_node]
         complements it, so a removed node's id is negative. *)
  payload : 'a;
  owner : 'a t;
  mutable order : Order_list.item;
  (* adjacency: one flat int array per direction, two ints per entry,
     entries [0 .. *_n - 1] live. Succ entry i is
     (succ.(2i) : dst slot,
      succ.(2i+1) : index of the twin entry in dst's pred array);
     symmetrically for pred entries. *)
  mutable succ : int array;
  mutable succ_n : int;
  mutable pred : int array;
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
  (* the arena: a slot-indexed array, grown by doubling *)
  mutable handles : 'a node array; (* slot -> live handle, or [vacant] *)
  mutable slots : int; (* high-water mark of slots ever used *)
  mutable free : int list;
      (* recycled slots, each as the arena id its next node gets: the
         slot above its next generation word *)
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
    slots = 0;
    free = [];
    live_nodes = 0;
    live_edges = 0;
    total_nodes = 0;
    total_edges = 0;
    removed_edges = 0;
  }

let[@inline never] removed who = invalid_arg (who ^ ": removed dependency graph node")
let[@inline] dead n = n.aid < 0

(* The arena id of a live node, or the one a removed node had. *)
let[@inline] aid n = n.aid lxor (n.aid asr (Sys.int_size - 1))

(* The slot of a live node. *)
let[@inline] slot_of n = n.aid lsr gen_bits
let[@inline] check_alive who n = if dead n then removed who

(* A vacant arena slot holds this immediate in place of a node; it is
   compared with [==] and never dereferenced. So the arena holds its
   handles without option cells, and [of_arena_id] resolves one
   allocating nothing. *)
let[@inline] vacant () : 'a node = Obj.magic 0
let[@inline] is_vacant n = n == vacant ()

(* Resolve a slot to its live handle. Adjacency entries never hold a
   freed slot (every incident edge is detached before the slot is
   recycled), so the lookup cannot miss. *)
let[@inline] handle t s =
  let n = t.handles.(s) in
  assert (not (is_vacant n));
  n

let grow_arena t =
  let cap = Array.length t.handles in
  let cap' = if cap = 0 then 64 else 2 * cap in
  let handles = Array.make cap' (vacant ()) in
  Array.blit t.handles 0 handles 0 cap;
  t.handles <- handles

(* The arena id of a fresh node: a recycled slot under its next
   generation word, or a never-used slot under word 0. *)
let alloc_aid t =
  match t.free with
  | a :: rest ->
    t.free <- rest;
    a
  | [] ->
    let s = t.slots in
    if s = Array.length t.handles then grow_arena t;
    t.slots <- s + 1;
    s lsl gen_bits

let empty_ints : int array = [||]

let mk_node t order payload =
  let aid = alloc_aid t in
  let id = t.next_id in
  t.next_id <- id + 1;
  t.live_nodes <- t.live_nodes + 1;
  t.total_nodes <- t.total_nodes + 1;
  let n =
    {
      id;
      aid;
      payload;
      owner = t;
      order;
      succ = empty_ints;
      succ_n = 0;
      pred = empty_ints;
      pred_n = 0;
      last_stamp = -1;
    }
  in
  t.handles.(aid lsr gen_bits) <- n;
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

let[@inline] payload n = n.payload
let id n = n.id
let slot n = aid n lsr gen_bits
let generation n = aid n land (gen_limit - 1)

(* A handle as one int, for the settle heaps: slot above the generation
   word. It resolves only while the slot holds the node allocated under
   that word. *)
let[@inline] arena_id n = aid n

let[@inline] of_arena_id t x =
  let s = x lsr gen_bits in
  if s >= t.slots then raise_notrace Not_found
  else
    let n = Array.unsafe_get t.handles s in
    if is_vacant n || n.aid <> x then
      raise_notrace Not_found
    else n

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

(* Entry [i] of an adjacency array: the other endpoint's slot at [2i],
   the twin entry's index at [2i+1]. *)
let[@inline] other a i = Array.unsafe_get a (2 * i)
let[@inline] twin a i = Array.unsafe_get a ((2 * i) + 1)

let[@inline] set_entry a i s tw =
  Array.unsafe_set a (2 * i) s;
  Array.unsafe_set a ((2 * i) + 1) tw

(* An array with room for one more entry than [n] live ones: the first
   holds 2 entries, then capacity doubles. *)
let grown a n =
  if 2 * n < Array.length a then a
  else begin
    let a' = Array.make (if n = 0 then 4 else 4 * n) 0 in
    Array.blit a 0 a' 0 (2 * n);
    a'
  end

(* Swap-remove successor entry [k] of [u]: the last entry moves into
   [k], and its twin backpointer — held in the moved edge's destination
   pred array — is repointed at the new position. O(1). Must not be
   used while iterating [u]'s successors. *)
let remove_succ_entry t u k =
  let last = u.succ_n - 1 in
  if k <> last then begin
    let ms = other u.succ last and mt = twin u.succ last in
    set_entry u.succ k ms mt;
    Array.unsafe_set (handle t ms).pred ((2 * mt) + 1) k
  end;
  u.succ_n <- last

(* Symmetric: swap-remove predecessor entry [k] of [u], repointing the
   moved edge's source succ-twin. *)
let remove_pred_entry t u k =
  let last = u.pred_n - 1 in
  if k <> last then begin
    let ms = other u.pred last and mt = twin u.pred last in
    set_entry u.pred k ms mt;
    Array.unsafe_set (handle t ms).succ ((2 * mt) + 1) k
  end;
  u.pred_n <- last

let add_edge ~stamp ~src ~dst =
  check_alive "Graph.add_edge" src;
  check_alive "Graph.add_edge" dst;
  if src.last_stamp <> stamp then begin
    src.last_stamp <- stamp;
    let t = src.owner in
    let si = src.succ_n and pi = dst.pred_n in
    src.succ <- grown src.succ si;
    dst.pred <- grown dst.pred pi;
    (* the succ entry's twin is the pred position about to be filled,
       and vice versa *)
    set_entry src.succ si (slot_of dst) pi;
    src.succ_n <- si + 1;
    set_entry dst.pred pi (slot_of src) si;
    dst.pred_n <- pi + 1;
    t.live_edges <- t.live_edges + 1;
    t.total_edges <- t.total_edges + 1
  end

(* Detach preds [k, pred_n) of [n]. A source may hold two edges to [n]
   (the stamp dedups only until a nested execution re-stamps it): a
   swap-remove on its successor array then repoints the other edge's
   twin in [n]'s pred array, which this loop reads afresh. *)
let truncate_preds t n k =
  check_alive "Graph.truncate_preds" n;
  let m = n.pred_n - k in
  if m > 0 then begin
    for i = k to n.pred_n - 1 do
      remove_succ_entry t (handle t (other n.pred i)) (twin n.pred i)
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
let[@inline] reread ~stamp ~src ~dst at =
  check_alive "Graph.reread" src;
  if src.last_stamp = stamp then `Repeat
  else if at >= 0 && at < dst.pred_n && other dst.pred at = slot_of src
  then begin
    src.last_stamp <- stamp;
    `Reread
  end
  else `New

let pred_at n i =
  check_alive "Graph.pred_at" n;
  if i < 0 || i >= n.pred_n then invalid_arg "Graph.pred_at: index out of range";
  handle n.owner (other n.pred i)

let clear_succs t n =
  let k = n.succ_n in
  if k > 0 then begin
    for i = 0 to k - 1 do
      remove_pred_entry t (handle t (other n.succ i)) (twin n.succ i)
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
  let a = n.aid in
  n.aid <- lnot a;
  (* recycle the slot under a fresh generation word *)
  t.handles.(a lsr gen_bits) <- vacant ();
  t.free <- (a land lnot (gen_limit - 1)) lor ((a + 1) land (gen_limit - 1))
            :: t.free;
  t.live_nodes <- t.live_nodes - 1

let iter_succ f n =
  check_alive "Graph.iter_succ" n;
  let t = n.owner in
  for i = 0 to n.succ_n - 1 do
    f (handle t (other n.succ i))
  done

let iter_nodes f t =
  for s = t.slots - 1 downto 0 do
    let n = t.handles.(s) in
    if not (is_vacant n) then f n
  done

let iter_pred f n =
  check_alive "Graph.iter_pred" n;
  let t = n.owner in
  for i = 0 to n.pred_n - 1 do
    f (handle t (other n.pred i))
  done

(* The forwarding loop's accessors, inlined into it. A removed node has
   no successors ([remove_node] clears them), so the range check also
   rejects one. *)
let[@inline never] succ_out_of_range who = invalid_arg (who ^ ": index out of range")

let[@inline] succ_at n i =
  if i < 0 || i >= n.succ_n then succ_out_of_range "Graph.succ_at";
  handle n.owner (other n.succ i)

let[@inline] succ_pred_index n i =
  if i < 0 || i >= n.succ_n then succ_out_of_range "Graph.succ_pred_index";
  twin n.succ i

let[@inline] succ_count n = n.succ_n
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
  (* arena coherence: every live handle sits in its own slot, every
     other slot below the high-water mark is on the free list once, and
     adjacency is twin-symmetric *)
  let live = ref 0 and edges = ref 0 in
  let free = Array.make t.slots false in
  List.iter
    (fun a ->
      let s = a lsr gen_bits in
      if s >= t.slots || not (is_vacant t.handles.(s)) then
        failwith "Graph.validate: a free slot holds a handle";
      if free.(s) then failwith "Graph.validate: a slot freed twice";
      free.(s) <- true)
    t.free;
  for s = 0 to t.slots - 1 do
    let n = t.handles.(s) in
    if is_vacant n then begin
      if not free.(s) then failwith "Graph.validate: a vacant slot not free"
    end
    else begin
      incr live;
      if dead n then failwith "Graph.validate: dead handle in arena";
      if slot_of n <> s then failwith "Graph.validate: handle in a foreign slot";
      for i = 0 to n.succ_n - 1 do
        incr edges;
        let d = handle t (other n.succ i) in
        let tp = twin n.succ i in
        if tp < 0 || tp >= d.pred_n || other d.pred tp <> s
           || twin d.pred tp <> i
        then failwith "Graph.validate: broken succ/pred twin symmetry"
      done;
      for i = 0 to n.pred_n - 1 do
        let sr = handle t (other n.pred i) in
        let tp = twin n.pred i in
        if tp < 0 || tp >= sr.succ_n || other sr.succ tp <> s
           || twin sr.succ tp <> i
        then failwith "Graph.validate: broken pred/succ twin symmetry"
      done
    end
  done;
  if !live <> t.live_nodes then
    failwith "Graph.validate: live-node count disagrees with the arena";
  if !edges <> t.live_edges then
    failwith "Graph.validate: live-edge count disagrees with the arena"
