(* Flat array binary heap with int keys.

   The engine's inconsistent-set queue: elements live in one growable
   array, so insert and drop_min shuffle array cells instead of
   allocating heap nodes. Each element's int key is computed once, at
   insert, and kept in a parallel int array, so the sift loops compare
   unboxed ints in place rather than calling a comparison closure that
   chases pointers on both sides. The price is that a key is a snapshot:
   when the ordering it was read from moves, the owner calls [rekey].

   The trade for meld is O(m log n) bulk insert instead of a meldable
   heap's O(1) pointer splice — which the engine only pays on the rare
   partition unions of §6.3 (and not at all with partitioning off, the
   default).

   The backing arrays are created lazily on first insert, using that
   element as the fill value; vacated cells above [n] may retain stale
   references until overwritten or [clear]ed, which is harmless for the
   engine (nodes are owned by the graph arena for the engine's
   lifetime). *)

type 'a t = {
  key : 'a -> int;
  mutable a : 'a array; (* cells [0 .. n-1] live *)
  mutable k : int array; (* k.(i) is a.(i)'s key; heap-ordered *)
  mutable n : int;
}

let create ~key = { key; a = [||]; k = [||]; n = 0 }
let is_empty h = h.n = 0
let length h = h.n

let ensure h x =
  if h.n = Array.length h.a then begin
    let cap = if h.n = 0 then 16 else 2 * h.n in
    let a = Array.make cap x and k = Array.make cap 0 in
    Array.blit h.a 0 a 0 h.n;
    Array.blit h.k 0 k 0 h.n;
    h.a <- a;
    h.k <- k
  end

(* Sift [x] (key [kx]) down from the hole at [i]: the smaller child
   moves up while it sorts strictly before [x]. *)
let sift_down h i x kx =
  let a = h.a and k = h.k and n = h.n in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c = if r < n && k.(l) > k.(r) then r else l in
      let kc = k.(c) in
      if kx <= kc then continue := false
      else begin
        a.(!i) <- a.(c);
        k.(!i) <- kc;
        i := c
      end
    end
  done;
  a.(!i) <- x;
  k.(!i) <- kx

let insert h x =
  ensure h x;
  let a = h.a and k = h.k and kx = h.key x in
  (* sift up from the new hole at [n] *)
  let i = ref h.n in
  h.n <- h.n + 1;
  let continue = ref (!i > 0) in
  while !continue do
    let p = (!i - 1) / 2 in
    let kp = k.(p) in
    if kp <= kx then continue := false
    else begin
      a.(!i) <- a.(p);
      k.(!i) <- kp;
      i := p;
      continue := !i > 0
    end
  done;
  a.(!i) <- x;
  k.(!i) <- kx

let min_elt h =
  if h.n = 0 then invalid_arg "Flat_heap.min_elt: empty heap";
  h.a.(0)

let drop_min h =
  if h.n > 0 then begin
    let last = h.n - 1 in
    h.n <- last;
    if last > 0 then sift_down h 0 h.a.(last) h.k.(last)
  end

(* Recompute every key, then restore heap order bottom-up (Floyd): O(n).
   A heap whose relative order the new keys preserve moves nothing. *)
let rekey h =
  let a = h.a and k = h.k in
  for i = 0 to h.n - 1 do
    k.(i) <- h.key a.(i)
  done;
  for i = (h.n / 2) - 1 downto 0 do
    sift_down h i a.(i) k.(i)
  done

let meld dst src =
  if dst.key != src.key then
    invalid_arg "Flat_heap.meld: heaps keyed by different functions";
  for i = 0 to src.n - 1 do
    insert dst src.a.(i)
  done;
  src.n <- 0;
  src.a <- [||];
  src.k <- [||]

let clear h =
  h.n <- 0;
  (* drop the arrays so stale cells don't pin elements *)
  h.a <- [||];
  h.k <- [||]

let to_list h = Array.to_list (Array.sub h.a 0 h.n)

let validate ?(current = false) h =
  for i = 1 to h.n - 1 do
    if h.k.((i - 1) / 2) > h.k.(i) then
      failwith "Flat_heap.validate: heap order broken"
  done;
  if current then
    for i = 0 to h.n - 1 do
      if h.k.(i) <> h.key h.a.(i) then
        failwith "Flat_heap.validate: stale key"
    done
