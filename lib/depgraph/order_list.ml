(* Order-maintenance by list labeling.

   Items carry integer tags in [0, max_tag]; list order coincides with tag
   order. Insertion bisects the gap to the successor tag. When the gap is
   exhausted we relabel: starting from the insertion point we examine
   enclosing tag ranges of size 2^i (aligned on multiples of 2^i) and stop
   at the first whose occupancy is below a density threshold that decreases
   geometrically with i (overflow threshold T = 3/2); the occupants are then
   spread uniformly across the range. This gives amortized O(log n)
   insertion (Bender et al., "Two simplified algorithms for maintaining
   order in a list", ESA 2002).

   The list is circular through the base item: the last item's [next]
   is the base, and the base's [prev] is the last item, so an item is
   four fields with no option cells, and the list keeps no pointer to
   its last item. A deleted item links to itself, which no live item
   but a lone base does; that self-link is the liveness test. *)
type item = {
  mutable tag : int;
  mutable prev : item;
  mutable next : item;
  owner : t;
}

and t = {
  first : item; (* the base item *)
  mutable size : int;
  mutable relabels : int;
}

let max_tag = 1 lsl 60

let base t = t.first
let last t = t.first.prev

let create () =
  let rec t = { first = b; size = 1; relabels = 0 }
  and b = { tag = 0; prev = b; next = b; owner = t } in
  t

let deleted x = x.next == x && x != x.owner.first

let check_alive who x =
  if deleted x then invalid_arg (who ^ ": deleted order item")

let compare a b =
  check_alive "Order_list.compare" a;
  check_alive "Order_list.compare" b;
  if a.tag < b.tag then -1 else if a.tag > b.tag then 1 else 0

(* [lt] and [tag] are the settle path's priority reads — every heap
   key and every out-of-order probe lands here, so they are bare tag
   loads: no liveness check (deleted items are unreachable from the
   graph by construction; [compare] keeps the checked behaviour for
   external callers). *)
let[@inline] lt a b = a.tag < b.tag
let[@inline] tag a = a.tag

let length t = t.size

let relabel_count t = t.relabels

(* Minimum tag gap left between neighbours after a spread. Relabeling is
   triggered by repeated insertion at one point (the engine inserts every
   node a consumer's execution discovers just before the consumer), and
   each spread buys [log2 min_gap] bisections at that point before the
   gap is exhausted again — a larger value trades rarer relabel events
   for slightly wider ones. *)
let min_gap = 8

let relabel t x =
  (* Find the smallest enclosing range [start, start+2^i) with occupancy
     density below (2/3)^i, then spread its occupants evenly. The base item
     (tag 0) may be moved like any other; order is preserved. Occupants are
     never materialized as a list: each level walks pointers outward from
     [x] to find the range's leftmost occupant and count, and the final
     spread walks [next] from the leftmost — relabeling allocates
     nothing. *)
  let rec find i =
    let width = 1 lsl i in
    if width > max_tag then failwith "Order_list: tag space exhausted";
    let start = x.tag - (x.tag mod width) in
    let stop = start + width in
    (* the base item has no predecessor, and the walk forward stops
       where the list wraps around to it *)
    let rec back lm =
      if lm != t.first && lm.prev.tag >= start then back lm.prev else lm
    in
    let leftmost = back x in
    let rec count acc n =
      if n != t.first && n.tag < stop then count (acc + 1) n.next else acc
    in
    let n = count 1 leftmost.next in
    (* density threshold: overflow iff n >= width / T^i with T = 3/2,
       computed in integers as n * 3^i >= width * 2^i. *)
    let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
    let threshold_ok =
      (* guard against overflow for large i by capping the exponent used in
         the density test; beyond ~36 levels the test always passes for any
         realistic n. *)
      if i >= 36 then true
      else n * pow 3 i < width * pow 2 i
    in
    (* also require room for gaps of at least [min_gap] after spreading,
       so the caller's bisection finds free tags for a few more inserts *)
    if threshold_ok && (n + 1) * min_gap <= width then (start, width, leftmost, n)
    else find (i + 1)
  in
  let start, width, leftmost, n = find 1 in
  let gap = width / (n + 1) in
  let rec assign k it =
    if k <= n then begin
      it.tag <- start + (k * gap);
      assign (k + 1) it.next
    end
  in
  assign 1 leftmost;
  t.relabels <- t.relabels + n

let insert_after x =
  check_alive "Order_list.insert_after" x;
  let t = x.owner in
  let gap_to_next () =
    if x.next == t.first then max_tag - x.tag else x.next.tag - x.tag
  in
  if gap_to_next () < 2 then relabel t x;
  let gap = gap_to_next () in
  assert (gap >= 2);
  let it = { tag = x.tag + (gap / 2); prev = x; next = x.next; owner = t } in
  x.next.prev <- it;
  x.next <- it;
  t.size <- t.size + 1;
  it

let insert_before x =
  check_alive "Order_list.insert_before" x;
  if x == x.owner.first then invalid_arg "Order_list.insert_before: base item";
  insert_after x.prev

let delete x =
  check_alive "Order_list.delete" x;
  if x == x.owner.first then invalid_arg "Order_list.delete: base item";
  x.prev.next <- x.next;
  x.next.prev <- x.prev;
  x.next <- x;
  x.prev <- x;
  x.owner.size <- x.owner.size - 1

let validate t =
  let rec go count it =
    if it.next.prev != it then failwith "Order_list.validate: broken back link";
    if it.next == t.first then count
    else begin
      if it.next.tag <= it.tag then
        failwith "Order_list.validate: tags not increasing";
      go (count + 1) it.next
    end
  in
  let n = go 1 t.first in
  if n <> t.size then failwith "Order_list.validate: size mismatch"
