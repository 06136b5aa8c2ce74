module Rng = Repro_util.Rng
module Splitmix = Repro_util.Splitmix

let test_determinism () =
  let a = Rng.of_seed 42 and b = Rng.of_seed 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_split_independence () =
  let parent = Rng.of_seed 7 in
  let child = Rng.split parent in
  let xs = List.init 32 (fun _ -> Rng.bits64 parent) in
  let ys = List.init 32 (fun _ -> Rng.bits64 child) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_copy () =
  let sm = Splitmix.create 5L in
  ignore (Splitmix.next sm);
  let dup = Splitmix.copy sm in
  Alcotest.(check int64) "copy continues identically" (Splitmix.next sm)
    (Splitmix.next dup)

let qcheck_int_range =
  QCheck.Test.make ~name:"int within bound" ~count:1000
    QCheck.(pair (int_range 1 10_000) small_int)
    (fun (bound, seed) ->
      let rng = Rng.of_seed seed in
      let v = Rng.int rng bound in
      0 <= v && v < bound)

let qcheck_int_in =
  QCheck.Test.make ~name:"int_in within inclusive range" ~count:1000
    QCheck.(triple (int_range (-50) 50) (int_range 0 100) small_int)
    (fun (lo, span, seed) ->
      let rng = Rng.of_seed seed in
      let v = Rng.int_in rng lo (lo + span) in
      lo <= v && v <= lo + span)

let qcheck_bernoulli_extremes =
  QCheck.Test.make ~name:"bernoulli extremes" ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Rng.of_seed seed in
      (not (Rng.bernoulli rng 0.)) && Rng.bernoulli rng 1.)

let test_bernoulli_frequency () =
  let rng = Rng.of_seed 9 in
  let hits = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "frequency %.3f near 0.3" freq)
    true
    (abs_float (freq -. 0.3) < 0.02)

let test_shuffle_permutes () =
  let rng = Rng.of_seed 3 in
  let arr = Array.init 100 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 100 (fun i -> i)) sorted

let test_sample_without_replacement () =
  let rng = Rng.of_seed 4 in
  let arr = Array.init 50 (fun i -> i) in
  let s = Rng.sample_without_replacement rng 20 arr in
  Alcotest.(check int) "size" 20 (Array.length s);
  let uniq = List.sort_uniq Int.compare (Array.to_list s) in
  Alcotest.(check int) "distinct" 20 (List.length uniq);
  let over = Rng.sample_without_replacement rng 500 arr in
  Alcotest.(check int) "clamped to population" 50 (Array.length over)

let test_float_range () =
  let rng = Rng.of_seed 12 in
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    if f < 0. || f >= 1. then Alcotest.failf "float out of range: %f" f
  done

(* {2 random_ids pin}

   [Experiment.random_ids] against a self-contained copy of the
   implementation it replaced: a boxed-[int64] SplitMix64, the
   two-division rejection sampler, and a shuffle of a copy of the pool.
   The unboxed state, the one-division sampler and the in-place shuffle
   must draw the very same ids. *)

module Ref_rng = struct
  type t = { mutable state : int64 }

  let next t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z =
      Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L)
    in
    let z =
      Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL)
    in
    Int64.(logxor z (shift_right_logical z 31))

  let int t bound =
    let mask = max_int in
    let rec go () =
      let v = Int64.to_int (next t) land mask in
      let limit = mask - (mask mod bound) in
      if v >= limit then go () else v mod bound
    in
    go ()

  let random_ids ~seed ~namespace ~n =
    let t = { state = Int64.of_int seed } in
    let copy = Array.init namespace (fun i -> i + 1) in
    for i = Array.length copy - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = copy.(i) in
      copy.(i) <- copy.(j);
      copy.(j) <- tmp
    done;
    let ids = Array.sub copy 0 (min n namespace) in
    Array.sort Int.compare ids;
    ids
end

let test_random_ids_pinned () =
  List.iter
    (fun (seed, namespace, n) ->
      Alcotest.(check (array int))
        (Printf.sprintf "seed %d, namespace %d, n %d" seed namespace n)
        (Ref_rng.random_ids ~seed ~namespace ~n)
        (Repro_renaming.Experiment.random_ids ~seed ~namespace ~n))
    [
      (0, 1, 1);
      (1, 64, 64);
      (7, 1000, 1000);
      (3, 4096, 1);
      (42, 4096, 64);
      (0x1d5, 65536, 1024);
      (max_int, 300, 17);
    ]

let test_int_draws_pinned () =
  (* Bounds near powers of two and near [max_int] reject most often:
     both samplers must accept and reject the same draws. *)
  List.iter
    (fun bound ->
      let t = Ref_rng.{ state = 99L } and r = Rng.of_seed 99 in
      for _ = 1 to 200 do
        Alcotest.(check int)
          (Printf.sprintf "bound %d" bound)
          (Ref_rng.int t bound) (Rng.int r bound)
      done)
    [ 1; 2; 3; 1000; 1 lsl 40; (1 lsl 61) + 1; max_int / 3 * 2; max_int ]

let suite =
  ( "rng",
    [
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "split independence" `Quick test_split_independence;
      Alcotest.test_case "splitmix copy" `Quick test_copy;
      Alcotest.test_case "bernoulli frequency" `Quick test_bernoulli_frequency;
      Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
      Alcotest.test_case "sample without replacement" `Quick
        test_sample_without_replacement;
      Alcotest.test_case "float range" `Quick test_float_range;
      Alcotest.test_case "random_ids = reference implementation" `Quick
        test_random_ids_pinned;
      Alcotest.test_case "int draws = reference sampler" `Quick
        test_int_draws_pinned;
      QCheck_alcotest.to_alcotest qcheck_int_range;
      QCheck_alcotest.to_alcotest qcheck_int_in;
      QCheck_alcotest.to_alcotest qcheck_bernoulli_extremes;
    ] )
