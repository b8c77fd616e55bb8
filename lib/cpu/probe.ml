type countdown = { period : int; mutable left : int; mutable occurrences : int }

let countdown ~period =
  if period <= 0 then invalid_arg "Probe.countdown: period must be positive";
  { period; left = period; occurrences = 0 }

(* An increment spanning k period boundaries fires k times; the
   remainder carries into the next period. *)
let count c n =
  c.occurrences <- c.occurrences + n;
  if n < c.left then begin
    c.left <- c.left - n;
    0
  end
  else begin
    let over = n - c.left in
    c.left <- c.period - (over mod c.period);
    1 + (over / c.period)
  end
[@@inline]

let period c = c.period

let occurrences c = c.occurrences

let reset c =
  c.left <- c.period;
  c.occurrences <- 0

type ring = {
  depth : int;
  from_pc : int array;
  to_pc : int array;
  cycle : int array;
  mutable filled : int;  (* valid entries, <= depth *)
  mutable head : int;  (* next slot to write *)
}

let ring ~depth =
  if depth <= 0 then invalid_arg "Probe.ring: depth must be positive";
  {
    depth;
    from_pc = Array.make depth 0;
    to_pc = Array.make depth 0;
    cycle = Array.make depth 0;
    filled = 0;
    head = 0;
  }

let push r ~from_pc ~to_pc ~cycle =
  let h = r.head in
  r.from_pc.(h) <- from_pc;
  r.to_pc.(h) <- to_pc;
  r.cycle.(h) <- cycle;
  r.head <- (if h + 1 = r.depth then 0 else h + 1);
  if r.filled < r.depth then r.filled <- r.filled + 1

let ring_length r = r.filled

(* The oldest entry sits at [head] once the ring has wrapped. *)
let copy_ring r ~from_pc ~to_pc ~cycle =
  let copy column dst =
    if r.filled = r.depth then begin
      Stallhide_util.Int_vec.append dst column r.head (r.depth - r.head);
      Stallhide_util.Int_vec.append dst column 0 r.head
    end
    else Stallhide_util.Int_vec.append dst column 0 r.filled
  in
  copy r.from_pc from_pc;
  copy r.to_pc to_pc;
  copy r.cycle cycle

let clear_ring r =
  r.filled <- 0;
  r.head <- 0

type event = Loads_all | L2_miss_loads | L3_miss_loads | Stall_cycles | Frontend_stalls

type sink = pc:int -> addr:int -> stall:int -> cycle:int -> unit

type sampler = { counter : countdown; sink : sink }

type lbr = { ring : ring; retires : countdown; snapshot : unit -> unit }

type t = {
  mutable loads : sampler array;
  mutable l2_misses : sampler array;
  mutable l3_misses : sampler array;
  mutable stalls : sampler array;  (* stall cycles of any cause *)
  mutable frontends : sampler array;  (* front-end stall cycles only *)
  mutable lbrs : lbr array;
  mutable execs : int array;
  mutable misses : int array;
  mutable load_stall : int array;
  mutable mark : int;  (* context instruction count retired so far *)
}

let create () =
  {
    loads = [||];
    l2_misses = [||];
    l3_misses = [||];
    stalls = [||];
    frontends = [||];
    lbrs = [||];
    execs = [||];
    misses = [||];
    load_stall = [||];
    mark = 0;
  }

let sample p event counter sink =
  let s = [| { counter; sink } |] in
  match event with
  | Loads_all -> p.loads <- Array.append p.loads s
  | L2_miss_loads -> p.l2_misses <- Array.append p.l2_misses s
  | L3_miss_loads -> p.l3_misses <- Array.append p.l3_misses s
  | Stall_cycles -> p.stalls <- Array.append p.stalls s
  | Frontend_stalls -> p.frontends <- Array.append p.frontends s

let record_branches p ring retires snapshot =
  p.lbrs <- Array.append p.lbrs [| { ring; retires; snapshot } |]

let tally p ~length =
  p.execs <- Array.make length 0;
  p.misses <- Array.make length 0;
  p.load_stall <- Array.make length 0

let load_execs p = p.execs

let load_misses p = p.misses

let load_stalls p = p.load_stall

let start p ~instructions ~length =
  let tallied = Array.length p.execs in
  if tallied > 0 && tallied < length then
    invalid_arg
      (Printf.sprintf "Probe.start: tally holds %d pcs, program has %d" tallied length);
  p.mark <- instructions

let fire ss n ~pc ~addr ~stall ~cycle =
  for i = 0 to Array.length ss - 1 do
    let s = Array.unsafe_get ss i in
    for _ = 1 to count s.counter n do
      s.sink ~pc ~addr ~stall ~cycle
    done
  done
[@@inline]

let load p ~pc ~addr ~level ~stall ~cycle =
  if Array.length p.execs > 0 then begin
    p.execs.(pc) <- p.execs.(pc) + 1;
    if level >= 2 then p.misses.(pc) <- p.misses.(pc) + 1;
    p.load_stall.(pc) <- p.load_stall.(pc) + stall
  end;
  fire p.loads 1 ~pc ~addr ~stall ~cycle;
  if level >= 2 then begin
    fire p.l2_misses 1 ~pc ~addr ~stall ~cycle;
    if level >= 3 then fire p.l3_misses 1 ~pc ~addr ~stall ~cycle
  end;
  if stall > 0 then fire p.stalls stall ~pc ~addr:0 ~stall ~cycle

let wait p ~pc ~stall ~cycle = if stall > 0 then fire p.stalls stall ~pc ~addr:0 ~stall ~cycle

let frontend p ~pc ~stall ~cycle =
  fire p.stalls stall ~pc ~addr:0 ~stall ~cycle;
  fire p.frontends stall ~pc ~addr:0 ~stall ~cycle

(* Take every snapshot due by the [retired]-th instruction. *)
let settle p ~retired =
  let n = retired - p.mark in
  p.mark <- retired;
  let lbrs = p.lbrs in
  for i = 0 to Array.length lbrs - 1 do
    let l = Array.unsafe_get lbrs i in
    for _ = 1 to count l.retires n do
      l.snapshot ()
    done
  done

let branch p ~instructions ~from_pc ~to_pc ~cycle =
  let lbrs = p.lbrs in
  if Array.length lbrs > 0 then begin
    (* the branch itself retires after its push *)
    settle p ~retired:(instructions - 1);
    for i = 0 to Array.length lbrs - 1 do
      push (Array.unsafe_get lbrs i).ring ~from_pc ~to_pc ~cycle
    done
  end

let finish p ~retired = if Array.length p.lbrs > 0 then settle p ~retired
