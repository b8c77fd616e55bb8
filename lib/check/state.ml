open Stallhide_cpu
open Stallhide_mem

type ctx_state = { id : int; status : string; fault : string option; regs : int array }

type t = { ctxs : ctx_state list; mem : int array }

let capture ~mem ctxs =
  let ctxs =
    Array.to_list ctxs
    |> List.map (fun (c : Context.t) ->
           let status, fault =
             match c.Context.status with
             | Context.Ready -> ("ready", None)
             | Context.Done -> ("done", None)
             | Context.Faulted m -> ("faulted", Some m)
           in
           { id = c.Context.id; status; fault; regs = Context.regs_array c })
    |> List.sort (fun a b -> compare a.id b.id)
  in
  let words = Address_space.used_bytes mem / Address_space.word_bytes in
  { ctxs; mem = Array.init words (fun w -> Address_space.load mem (w * Address_space.word_bytes)) }

let diff a b =
  let rec ctx_diff = function
    | [], [] -> None
    | x :: xs, y :: ys ->
        if x.id <> y.id then Some (Printf.sprintf "context sets differ (%d vs %d)" x.id y.id)
        else if x.status <> y.status then
          Some
            (Printf.sprintf "ctx %d status: %s%s vs %s%s" x.id x.status
               (match x.fault with Some m -> " (" ^ m ^ ")" | None -> "")
               y.status
               (match y.fault with Some m -> " (" ^ m ^ ")" | None -> ""))
        else begin
          let r = ref None in
          for i = Array.length x.regs - 1 downto 0 do
            if x.regs.(i) <> y.regs.(i) then
              r := Some (Printf.sprintf "ctx %d r%d: %d vs %d" x.id i x.regs.(i) y.regs.(i))
          done;
          match !r with None -> ctx_diff (xs, ys) | d -> d
        end
    | _ -> Some "different context counts"
  in
  match ctx_diff (a.ctxs, b.ctxs) with
  | Some _ as d -> d
  | None ->
      if Array.length a.mem <> Array.length b.mem then
        Some
          (Printf.sprintf "memory sizes differ (%d vs %d words)" (Array.length a.mem)
             (Array.length b.mem))
      else begin
        let d = ref None in
        for w = Array.length a.mem - 1 downto 0 do
          if a.mem.(w) <> b.mem.(w) then
            d := Some (Printf.sprintf "mem[%d]: %d vs %d" (w * 8) a.mem.(w) b.mem.(w))
        done;
        !d
      end
