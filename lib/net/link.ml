type t = {
  loss : float;
  reorder : float;
  jitter : int;
  st : Random.State.t;
  mutable sent : int;
  mutable dropped : int;
  mutable reordered : int;
}

let create ?(loss = 0.0) ?(reorder = 0.0) ?(jitter = 0) ~seed () =
  if not (loss >= 0.0 && loss < 1.0) then invalid_arg "Link: loss must be in [0,1)";
  if not (reorder >= 0.0 && reorder < 1.0) then invalid_arg "Link: reorder must be in [0,1)";
  if jitter < 0 then invalid_arg "Link: jitter must be non-negative";
  {
    loss;
    reorder;
    jitter;
    st = Random.State.make [| seed; 0x11171; 0 |];
    sent = 0;
    dropped = 0;
    reordered = 0;
  }

(* A pristine link (no loss, no reorder, no jitter) never consumes
   randomness, so adding traffic to a fault-free run perturbs nothing
   else — the cluster fuzz oracle's metamorphic arms rely on this. *)
let transit t ~now ~cost =
  t.sent <- t.sent + 1;
  if t.loss > 0.0 && Random.State.float t.st 1.0 < t.loss then begin
    t.dropped <- t.dropped + 1;
    None
  end
  else begin
    let delay = ref cost in
    if t.jitter > 0 then delay := !delay + Random.State.int t.st (t.jitter + 1);
    if t.reorder > 0.0 && Random.State.float t.st 1.0 < t.reorder then begin
      (* late enough that an immediately-following message overtakes it *)
      t.reordered <- t.reordered + 1;
      delay := !delay + cost + t.jitter
    end;
    Some (now + !delay)
  end

let sent t = t.sent

let dropped t = t.dropped

let reordered t = t.reordered
