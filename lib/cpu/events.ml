open Stallhide_isa
open Stallhide_mem

type load_info = {
  ctx : int;
  pc : int;
  addr : int;
  level : Hierarchy.level;
  stall : int;
  queue : int;
  cycle : int;
}

type t = {
  on_retire : ctx:int -> pc:int -> instr:Instr.t -> cycle:int -> unit;
  on_load : load_info -> unit;
  on_branch : ctx:int -> pc:int -> target:int -> taken:bool -> cycle:int -> unit;
  on_stall : ctx:int -> pc:int -> cycles:int -> cycle:int -> unit;
  on_frontend_stall : ctx:int -> pc:int -> cycles:int -> cycle:int -> unit;
  on_opmark : ctx:int -> pc:int -> cycle:int -> unit;
  on_yield : ctx:int -> pc:int -> kind:Instr.yield_kind -> fired:bool -> cycle:int -> unit;
}

let nop =
  {
    on_retire = (fun ~ctx:_ ~pc:_ ~instr:_ ~cycle:_ -> ());
    on_load = (fun _ -> ());
    on_branch = (fun ~ctx:_ ~pc:_ ~target:_ ~taken:_ ~cycle:_ -> ());
    on_stall = (fun ~ctx:_ ~pc:_ ~cycles:_ ~cycle:_ -> ());
    on_frontend_stall = (fun ~ctx:_ ~pc:_ ~cycles:_ ~cycle:_ -> ());
    on_opmark = (fun ~ctx:_ ~pc:_ ~cycle:_ -> ());
    on_yield = (fun ~ctx:_ ~pc:_ ~kind:_ ~fired:_ ~cycle:_ -> ());
  }

(* Per field, only the elements that observe it are called: a field no
   element sets stays [nop]'s closure, which is what
   [Engine.fast_engaged] tests by physical equality, and a lone observer
   is called directly. Several observers are fired in order by a loop
   over an array, so firing allocates nothing. *)
let compose hs =
  let fire field many =
    match List.filter (fun f -> f != field nop) (List.map field hs) with
    | [] -> field nop
    | [ f ] -> f
    | fs -> many (Array.of_list fs)
  in
  {
    on_retire =
      fire
        (fun h -> h.on_retire)
        (fun fs ~ctx ~pc ~instr ~cycle ->
          for i = 0 to Array.length fs - 1 do
            fs.(i) ~ctx ~pc ~instr ~cycle
          done);
    on_load =
      fire
        (fun h -> h.on_load)
        (fun fs info ->
          for i = 0 to Array.length fs - 1 do
            fs.(i) info
          done);
    on_branch =
      fire
        (fun h -> h.on_branch)
        (fun fs ~ctx ~pc ~target ~taken ~cycle ->
          for i = 0 to Array.length fs - 1 do
            fs.(i) ~ctx ~pc ~target ~taken ~cycle
          done);
    on_stall =
      fire
        (fun h -> h.on_stall)
        (fun fs ~ctx ~pc ~cycles ~cycle ->
          for i = 0 to Array.length fs - 1 do
            fs.(i) ~ctx ~pc ~cycles ~cycle
          done);
    on_frontend_stall =
      fire
        (fun h -> h.on_frontend_stall)
        (fun fs ~ctx ~pc ~cycles ~cycle ->
          for i = 0 to Array.length fs - 1 do
            fs.(i) ~ctx ~pc ~cycles ~cycle
          done);
    on_opmark =
      fire
        (fun h -> h.on_opmark)
        (fun fs ~ctx ~pc ~cycle ->
          for i = 0 to Array.length fs - 1 do
            fs.(i) ~ctx ~pc ~cycle
          done);
    on_yield =
      fire
        (fun h -> h.on_yield)
        (fun fs ~ctx ~pc ~kind ~fired ~cycle ->
          for i = 0 to Array.length fs - 1 do
            fs.(i) ~ctx ~pc ~kind ~fired ~cycle
          done);
  }
