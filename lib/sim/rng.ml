type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create ~seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }

let int t bound =
  assert (bound > 0);
  (* Rejection sampling over the top 62 bits keeps the distribution exact. *)
  let mask = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  if bound land (bound - 1) = 0 then mask land (bound - 1)
  else
    let rec go v =
      let r = v mod bound in
      if v - r + (bound - 1) < 0 then go (Int64.to_int (Int64.shift_right_logical (bits64 t) 2))
      else r
    in
    go mask

let int_in t ~lo ~hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 random bits mapped into [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L
let bernoulli t ~p = float t 1.0 < p

let exponential t ~mean =
  let u = float t 1.0 in
  (* Avoid log 0. *)
  let u = if u <= 0. then 1e-300 else u in
  -.mean *. log u

let uniform_time t ~lo ~hi = int_in t ~lo ~hi

let exponential_time t ~mean =
  Time.of_float_s (exponential t ~mean:(Time.to_float_s mean))

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
