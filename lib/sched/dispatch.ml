type policy = D_fcfs | Jbsq

let policy_name = function D_fcfs -> "d-fcfs" | Jbsq -> "jbsq"

let policy_of_string s =
  match String.lowercase_ascii s with
  | "d-fcfs" | "dfcfs" | "fcfs" -> Some D_fcfs
  | "jbsq" -> Some Jbsq
  | _ -> None

let alternate = function D_fcfs -> Jbsq | Jbsq -> D_fcfs

let home ~shards key =
  if shards <= 0 then invalid_arg "Dispatch.home: shards must be positive";
  (* Fibonacci hashing: spread adjacent keys across shards. *)
  let h = key * 2654435761 land max_int in
  h mod shards

let choose policy ~home ~depths =
  let n = Array.length depths in
  if n = 0 then invalid_arg "Dispatch.choose: no cores";
  if home < 0 || home >= n then invalid_arg "Dispatch.choose: home out of range";
  match policy with
  | D_fcfs -> home
  | Jbsq ->
      let best = ref home in
      Array.iteri (fun i d -> if d < depths.(!best) then best := i) depths;
      !best
