(* Order-maintenance by list labeling.

   Items carry integer tags in [0, max_tag]; list order coincides with tag
   order. Insertion bisects the gap to the successor tag. When the gap is
   exhausted we relabel: starting from the insertion point we examine
   enclosing tag ranges of size 2^i (aligned on multiples of 2^i) and stop
   at the first whose occupancy is below a density threshold that decreases
   geometrically with i (overflow threshold T = 3/2); the occupants are then
   spread uniformly across the range. This gives amortized O(log n)
   insertion (Bender et al., "Two simplified algorithms for maintaining
   order in a list", ESA 2002). *)

type item = {
  mutable tag : int;
  mutable prev : item option;
  mutable next : item option;
  mutable alive : bool;
  owner : t;
}

and t = {
  mutable first : item option; (* base item; set once at creation *)
  mutable last_item : item option;
  mutable size : int;
  mutable relabels : int;
}

let max_tag = 1 lsl 60

let base t =
  match t.first with
  | Some b -> b
  | None -> assert false

let last t =
  match t.last_item with
  | Some b -> b
  | None -> assert false

let create () =
  let rec t = { first = None; last_item = None; size = 1; relabels = 0 }
  and b = { tag = 0; prev = None; next = None; alive = true; owner = t } in
  t.first <- Some b;
  t.last_item <- Some b;
  t

let check_alive who x =
  if not x.alive then invalid_arg (who ^ ": deleted order item")

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
    let rec back lm = function
      | Some p when p.tag >= start -> back p p.prev
      | _ -> lm
    in
    let leftmost = back x x.prev in
    let rec count acc = function
      | Some n when n.tag < stop -> count (acc + 1) n.next
      | _ -> acc
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
      match it.next with Some nx -> assign (k + 1) nx | None -> ()
    end
  in
  assign 1 leftmost;
  t.relabels <- t.relabels + n

let insert_after x =
  check_alive "Order_list.insert_after" x;
  let t = x.owner in
  let gap_to_next () =
    match x.next with Some n -> n.tag - x.tag | None -> max_tag - x.tag
  in
  if gap_to_next () < 2 then relabel t x;
  let gap = gap_to_next () in
  assert (gap >= 2);
  let it =
    { tag = x.tag + (gap / 2); prev = Some x; next = x.next; alive = true;
      owner = t }
  in
  (match x.next with Some n -> n.prev <- Some it | None -> t.last_item <- Some it);
  x.next <- Some it;
  t.size <- t.size + 1;
  it

let insert_before x =
  check_alive "Order_list.insert_before" x;
  match x.prev with
  | None -> invalid_arg "Order_list.insert_before: base item"
  | Some p -> insert_after p

let delete x =
  check_alive "Order_list.delete" x;
  (match x.prev with
  | None -> invalid_arg "Order_list.delete: base item"
  | Some _ -> ());
  (match x.prev with Some p -> p.next <- x.next | None -> ());
  (match x.next with Some n -> n.prev <- x.prev | None -> x.owner.last_item <- x.prev);
  x.alive <- false;
  x.owner.size <- x.owner.size - 1

let validate t =
  let rec go count = function
    | None -> count
    | Some it ->
      if not it.alive then failwith "Order_list.validate: dead item linked";
      (match it.next with
      | Some n ->
        if n.tag <= it.tag then failwith "Order_list.validate: tags not increasing";
        (match n.prev with
        | Some p when p == it -> ()
        | _ -> failwith "Order_list.validate: broken back link")
      | None -> ());
      go (count + 1) it.next
  in
  let n = go 0 t.first in
  if n <> t.size then failwith "Order_list.validate: size mismatch"
