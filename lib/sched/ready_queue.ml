type 'a t = { mutable front : 'a list; mutable back : 'a list }

let create () = { front = []; back = [] }

let push t x = t.back <- x :: t.back

let normalize t =
  if t.front = [] then begin
    t.front <- List.rev t.back;
    t.back <- []
  end

let pop_opt t =
  normalize t;
  match t.front with
  | [] -> None
  | x :: rest ->
      t.front <- rest;
      Some x

let length t = List.length t.front + List.length t.back

let is_empty t = t.front = [] && t.back = []

let peek_all t = t.front @ List.rev t.back

let clear t =
  t.front <- [];
  t.back <- []
