type 'a elt = {
  mutable parent : 'a elt option; (* None iff root *)
  mutable rank : int;
  mutable data : 'a option; (* Some at roots; None once absorbed *)
}

let make payload = { parent = None; rank = 0; data = Some payload }

let rec find_root e =
  match e.parent with
  | None -> e
  | Some p ->
    let r = find_root p in
    e.parent <- Some r;
    r

let find = find_root

let payload e =
  match (find_root e).data with
  | Some d -> d
  | None -> assert false

let same a b = find_root a == find_root b

let union ~merge a b =
  let ra = find_root a and rb = find_root b in
  if ra == rb then ra
  else begin
    let keep, absorb =
      if ra.rank > rb.rank then (ra, rb)
      else if rb.rank > ra.rank then (rb, ra)
      else begin
        ra.rank <- ra.rank + 1;
        (ra, rb)
      end
    in
    absorb.parent <- Some keep;
    (match (keep.data, absorb.data) with
    | Some k, Some ab -> keep.data <- Some (merge k ab)
    | _ -> assert false);
    absorb.data <- None;
    keep
  end
