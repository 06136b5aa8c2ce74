type t = Splitmix.t

let of_seed seed = Splitmix.create (Int64.of_int seed)
let of_splitmix sm = Splitmix.copy sm
let split = Splitmix.split
let bits64 = Splitmix.next

(* Rejection sampling over the non-negative 62-bit range to avoid
   modulo bias: a draw is rejected when it falls in the last, partial
   block of [bound] values below [max_int] — [v >= max_int - max_int mod
   bound], which is [v - v mod bound > max_int - bound]: one division
   per draw. *)
let rec draw t bound =
  let v = Splitmix.next_int t land max_int in
  let r = v mod bound in
  if v - r > max_int - bound then draw t bound else r

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  draw t bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in";
  lo + int t (hi - lo + 1)

let float t =
  let v = Splitmix.next_int t land max_int in
  float_of_int v /. (float_of_int max_int +. 1.)

let bool t = Int64.logand (Splitmix.next t) 1L = 1L

let bernoulli t p =
  if p <= 0. then false else if p >= 1. then true else float t < p

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k arr =
  let copy = Array.copy arr in
  shuffle t copy;
  Array.sub copy 0 (min k (Array.length copy))

let permutation t n =
  let arr = Array.init n (fun i -> i) in
  shuffle t arr;
  arr
