let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.
  | xs ->
    let logs = List.map log xs in
    exp (mean logs)

let stddev = function
  | [] | [ _ ] -> 0.
  | xs ->
    let m = mean xs in
    let var = mean (List.map (fun x -> (x -. m) *. (x -. m)) xs) in
    sqrt var

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let percentile p = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let p = Float.max 0. (Float.min 1. p) in
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let quantile_bucket ~q counts =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then -1
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = q *. float_of_int total in
    let rec go i cum =
      if i >= Array.length counts then Array.length counts - 1
      else
        let cum = cum + counts.(i) in
        (* [cum > 0] keeps q = 0 off leading empty buckets. *)
        if cum > 0 && float_of_int cum >= target then i else go (i + 1) cum
    in
    go 0 0
  end

let percent_delta base v = if base = 0. then 0. else (v -. base) /. base *. 100.

let ratio a b = if b = 0. then 0. else a /. b
