(* Flat array binary heap.

   The engine's inconsistent-set queue: elements live in one growable
   array, so insert and drop_min shuffle array cells instead of
   allocating heap nodes. The trade is meld — O(m log n) bulk insert
   instead of a meldable heap's O(1) pointer splice — which the engine
   only pays on the rare partition unions of §6.3 (and not at all with
   partitioning off, the default).

   The backing array is created lazily on first insert, using that
   element as the fill value; vacated cells above [n] may retain stale
   references until overwritten or [clear]ed, which is harmless for the
   engine (nodes are owned by the graph arena for the engine's
   lifetime). *)

type 'a t = {
  leq : 'a -> 'a -> bool;
  mutable a : 'a array; (* cells [0 .. n-1] live; heap-ordered *)
  mutable n : int;
}

let create ~leq = { leq; a = [||]; n = 0 }
let is_empty h = h.n = 0
let length h = h.n

let ensure h x =
  if h.n = Array.length h.a then begin
    let cap = if h.n = 0 then 16 else 2 * h.n in
    let a = Array.make cap x in
    Array.blit h.a 0 a 0 h.n;
    h.a <- a
  end

let insert h x =
  ensure h x;
  let a = h.a and leq = h.leq in
  (* sift up *)
  let i = ref h.n in
  h.n <- h.n + 1;
  a.(!i) <- x;
  let continue = ref (!i > 0) in
  while !continue do
    let p = (!i - 1) / 2 in
    if leq a.(p) a.(!i) then continue := false
    else begin
      let tmp = a.(p) in
      a.(p) <- a.(!i);
      a.(!i) <- tmp;
      i := p;
      continue := !i > 0
    end
  done

let sift_down h =
  let a = h.a and n = h.n and leq = h.leq in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c = if r < n && not (leq a.(l) a.(r)) then r else l in
      if leq a.(!i) a.(c) then continue := false
      else begin
        let tmp = a.(!i) in
        a.(!i) <- a.(c);
        a.(c) <- tmp;
        i := c
      end
    end
  done

let min_elt h =
  if h.n = 0 then invalid_arg "Flat_heap.min_elt: empty heap";
  h.a.(0)

let drop_min h =
  if h.n > 0 then begin
    let last = h.n - 1 in
    h.a.(0) <- h.a.(last);
    h.n <- last;
    if last > 0 then sift_down h
  end


let meld dst src =
  if dst.leq != src.leq then
    invalid_arg "Flat_heap.meld: heaps ordered by different functions";
  for i = 0 to src.n - 1 do
    insert dst src.a.(i)
  done;
  src.n <- 0;
  src.a <- [||]

let clear h =
  h.n <- 0;
  (* drop the array so stale cells don't pin elements *)
  h.a <- [||]

let to_list h = Array.to_list (Array.sub h.a 0 h.n)
