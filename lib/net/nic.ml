type t = {
  depth : int;
  mutable rx : int;
  mutable fast : int;
  mutable overflow : int;
  mutable tx : int;
}

let create ~depth = { depth; rx = 0; fast = 0; overflow = 0; tx = 0 }

let admit t ~backlog ~lean =
  if t.depth > 0 && backlog >= t.depth then begin
    t.overflow <- t.overflow + 1;
    false
  end
  else begin
    t.rx <- t.rx + 1;
    if lean then t.fast <- t.fast + 1;
    true
  end

let sent t = t.tx <- t.tx + 1

let rx t = t.rx

let fast t = t.fast

let overflow t = t.overflow

let tx t = t.tx
