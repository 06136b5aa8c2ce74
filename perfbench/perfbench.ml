(* The repository benchmark.

     perfbench --workload W --seed N --seconds S --trace 0|1

   A run is a closed loop with one client: executions of one workload
   run back to back over the seed block [N·k + i], i < k, each gated
   for correctness and checked for determinism. [--trace 0] reports the
   end-to-end metrics of untraced executions; [--trace 1] is a separate
   pass over the block's first seed that reports the per-layer metrics,
   timed from outside, around the calls into each layer. Every metric goes to
   stdout as one line with its unit and sample basis; the last line is
   the JSON summary. README.md in this directory says why each workload
   exists and which end-to-end metric each layer metric should move.

   [--host PORT INDEX] is internal: the socket workload execs this
   binary in that mode for its host processes, so no process ever forks
   after a domain has been spawned. *)

module CR = Repro_renaming.Crash_renaming
module BR = Repro_renaming.Byzantine_renaming
module BS = Repro_renaming.Byz_strategies
module E = Repro_renaming.Experiment
module Runner = Repro_renaming.Runner
module Fuzzer = Repro_check.Fuzzer
module Engine = Repro_sim.Engine
module Metrics = Repro_sim.Metrics
module SN = Repro_net.Socket_net
module Frame = Repro_net.Frame
module Fingerprint = Repro_crypto.Fingerprint
module Committee_pool = Repro_crypto.Committee_pool
module Phase_king = Repro_consensus.Phase_king
module Pool = Repro_util.Domain_pool
module Bitvec = Repro_util.Bitvec
module Interval = Repro_util.Interval
module Rng = Repro_util.Rng
module Trace = Repro_obs.Trace

let now = Unix.gettimeofday

(* {1 Statistics} *)

(* Linear interpolation between closest ranks. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum = Array.fold_left ( +. ) 0.

(* Median seconds per call of [f]: batches of a calibrated size (each
   at least 20 ms, so clock resolution does not matter), at most 7 of
   them, stopping after 3 once 2 s have been spent. *)
let per_call f =
  let batch k =
    let t0 = now () in
    for _ = 1 to k do
      f ()
    done;
    now () -. t0
  in
  let rec calibrate k =
    let dt = batch k in
    if dt >= 0.02 || k >= 1 lsl 20 then (k, dt) else calibrate (2 * k)
  in
  let k, first = calibrate 1 in
  let samples = ref [ first ] and spent = ref first in
  let taken () = List.length !samples in
  while taken () < 7 && (taken () < 3 || !spent < 2.) do
    let dt = batch k in
    samples := dt :: !samples;
    spent := !spent +. dt
  done;
  median (Array.of_list !samples) /. float_of_int k

(* {1 Workloads} *)

type kind = Crash_nofault | Byz_split | Socket_crash

type workload = {
  name : string;
  kind : kind;
  n : int;
  f : int;  (** adversary budget: crashes, or Byzantine nodes *)
  shards : int;  (** passed to the engine explicitly, never from the env *)
  hosts : int;  (** socket host processes *)
  nominal_s : float;
      (** seconds per execution (socket: with its twin) on a busy 2-core
          box; sizes the seed cycle so that one cycle fits [--seconds]
          even when the box runs slow *)
}

let workloads =
  [
    { name = "crash-nofault"; kind = Crash_nofault; n = 8192; f = 0;
      shards = 2; hosts = 0; nominal_s = 4.8 };
    { name = "byz-split"; kind = Byz_split; n = 64; f = 5;
      shards = 1; hosts = 0; nominal_s = 1.9 };
    { name = "socket-crash"; kind = Socket_crash; n = 1024; f = 0;
      shards = 1; hosts = 2; nominal_s = 4.3 };
  ]

(* Run [--seed n] executes the seed block [n·k, n·k + k), with [k]
   sized so one pass over the block fits [--seconds]. Consecutive
   [--seed] values get disjoint blocks: per-seed work varies (the
   committee size is random), and overlapping blocks would make runs at
   neighbouring seeds share most of their inputs. *)
let seed_block w ~seed ~seconds =
  let k = max 2 (int_of_float (Float.ceil (seconds /. w.nominal_s))) in
  Array.init k (fun i -> (seed * k) + i)

let namespace w = 64 * w.n
let is_crash w = match w.kind with Byz_split -> false | _ -> true

let max_msg_bits w =
  let namespace = namespace w in
  if is_crash w then Fuzzer.crash_max_msg_bits ~n:w.n ~namespace
  else Fuzzer.byz_max_msg_bits ~namespace

(* The identity salts of [Experiment.run_crash]/[run_byz]: a workload's
   execution at seed s is the E1–E12 harness's execution at seed s. *)
let ids_of w seed =
  let salt = if is_crash w then 0x1d5 else 0x2e7 in
  E.random_ids ~seed:(seed lxor salt) ~namespace:(namespace w) ~n:w.n

(* {1 Executions} *)

(* Every crash workload is fault-free. *)
let crash_run ~seed ~ids ?tap ?alloc_probe ?on_crash ?on_decide ?on_round_end
    ~shards () =
  CR.run ~params:CR.experiment_params ?tap ?alloc_probe ?on_crash ?on_decide
    ?on_round_end ~seed ~shards ~ids ()

let byz_params w seed =
  {
    BR.namespace = namespace w;
    shared_seed = seed lxor 0x5aed;
    epsilon0 = 0.1;
    pool_probability = `Fixed (E.committee_pool_probability ~n:w.n);
    committee = BR.Shared_pool;
    reconcile = BR.Fingerprint_dnc;
    consensus = BR.Phase_king_consensus;
  }

(* [Byzantine_renaming.run] is this call plus a namespace check that
   [ids_of] satisfies by construction; going through the engine
   directly is what lets the traced pass attach [?alloc_probe]. *)
let byz_run w ~seed ~ids ?(wrap = Fun.id) ?tap ?alloc_probe ?on_crash
    ?on_decide ?on_round_end () =
  let params = byz_params w seed in
  let corrupt = Rng.of_seed (seed lxor 0xca410) in
  let byz_ids =
    Array.to_list (Rng.sample_without_replacement corrupt w.f ids)
  in
  let strategy =
    BS.split_world params ~rng:(Rng.of_seed (seed lxor 0xb42)) ~ids
  in
  BR.Net.run ~ids ~byz:(byz_ids, wrap strategy) ?tap ?alloc_probe ?on_crash
    ?on_decide ?on_round_end ~max_rounds:Fuzzer.byz_round_bound ~seed
    ~shards:1 ~program:(BR.program params) ()

let sim_run w ~seed ~ids ?alloc_probe ?on_round_end ~shards () =
  match w.kind with
  | Byz_split -> byz_run w ~seed ~ids ?alloc_probe ?on_round_end ()
  | Crash_nofault | Socket_crash ->
      crash_run ~seed ~ids ?alloc_probe ?on_round_end ~shards ()

(* Round clock: [Engine.run ~on_round_end] stamps the end of each round
   into an array preallocated to the workload's round bound, so the hook
   allocates the same on every execution and the allocation count stays
   deterministic. A run past the bound fails the gate, not the clock. *)
let stamps = ref (Float.Array.create 0)

let size_round_clock w =
  let bound =
    if is_crash w then Fuzzer.crash_round_bound ~n:w.n
    else Fuzzer.byz_round_bound
  in
  stamps := Float.Array.make (bound + 1) 0.

let on_round_end ~round (_ : Metrics.t) =
  if round < Float.Array.length !stamps then
    Float.Array.set !stamps round (now ())

type exec = {
  res : int Engine.run_result;
  a : Runner.assessment;
  wall : float;  (** seconds *)
  words : float;  (** minor-heap words allocated, all domains *)
  alloc : float;  (** all words allocated: minor + major - promoted *)
  minor_gcs : int;
  major_gcs : int;
  round_ms : float array;  (** per-round wall; empty when not clocked *)
}

(* Runs [run] between two GC readings and two clock reads. OCaml 5's
   [Gc.quick_stat] samples the calling domain's counters at its last
   minor collection (joined domains' counts are final), so a minor
   collection outside the clock reads makes the reading exact and
   starts every execution on an empty minor heap. [alloc] counts every
   word allocated, blocks allocated straight on the major heap (over 256
   words) included. [words] counts the minor heap only: it is exact and
   is what the determinism check compares, while OCaml 5.1's major and
   promoted counters drift between executions of the same seed (by up
   to 0.2% of the total on byz-split). With [clocked], [run] must have
   attached {!on_round_end}. *)
let measure ~clocked run =
  let gc () =
    Gc.minor ();
    Gc.quick_stat ()
  in
  let g0 = gc () in
  let t0 = now () in
  let res = run () in
  let t1 = now () in
  let g1 = gc () in
  let a = Runner.assess res in
  let round_ms =
    if (not clocked) || a.rounds > Float.Array.length !stamps then [||]
    else
      Array.init a.rounds (fun r ->
          let prev = if r = 0 then t0 else Float.Array.get !stamps (r - 1) in
          (Float.Array.get !stamps r -. prev) *. 1e3)
  in
  {
    res;
    a;
    wall = t1 -. t0;
    words = g1.minor_words -. g0.minor_words;
    alloc =
      g1.minor_words +. g1.major_words -. g1.promoted_words
      -. (g0.minor_words +. g0.major_words -. g0.promoted_words);
    minor_gcs = g1.minor_collections - g0.minor_collections;
    major_gcs = g1.major_collections - g0.major_collections;
    round_ms;
  }

(* {1 Correctness} *)

let violations checks =
  List.filter_map (fun (ok, what) -> if ok then None else Some what) checks

(* Every violation of what Definition 1.1 and Theorems 1.2/1.3 promise
   for this workload, with the fuzzer's theorem-shaped bounds. The
   per-message cap is checked here on each round's mean (no tap in the
   timed runs); the traced pass checks every message. *)
let gate w (a : Runner.assessment) =
  let ns = namespace w in
  let round_bound, budget =
    if is_crash w then
      ( Fuzzer.crash_round_bound ~n:w.n,
        Fuzzer.crash_bit_budget ~n:w.n ~namespace:ns ~f:a.crash_cost )
    else
      ( Fuzzer.byz_round_bound,
        Fuzzer.byz_bit_budget ~n:w.n ~namespace:ns ~f:w.f )
  in
  let cap = max_msg_bits w in
  violations
    [
      (a.correct, "not a strong renaming (duplicate, out of range or open)");
      (Runner.reconciles a, "per-round rows do not sum to the totals");
      (a.n = w.n, "wrong participant count");
      ( a.rounds <= round_bound,
        Printf.sprintf "%d rounds > bound %d" a.rounds round_bound );
      (a.bits <= budget, Printf.sprintf "%d bits > budget %d" a.bits budget);
      ( a.crash_cost <= (if is_crash w then w.f else 0),
        "crash budget exceeded" );
      (a.byzantine = (if is_crash w then 0 else w.f), "wrong Byzantine count");
      (is_crash w || a.order_preserving, "renaming not order-preserving");
      ( Array.for_all
          (fun (r : Metrics.round_row) -> r.hbits <= r.hmsgs * cap)
          a.per_round,
        Printf.sprintf "a round's mean message exceeds the %d-bit cap" cap );
    ]

(* Determinism: the counts of a seed must repeat exactly on every
   execution of it — the basis of every count-based claim. Allocated
   words join the check for simulator executions on one domain with the
   same hooks attached: a shard domain's start-up allocates a few
   hundred words that vary between executions. *)
type counts = { bits : int; msgs : int; rounds : int; words : float }

let registry : (int, counts) Hashtbl.t = Hashtbl.create 16

let drift ~seed ~words (e : exec) =
  let c =
    { bits = e.a.bits; msgs = e.a.messages; rounds = e.a.rounds;
      words = e.words }
  in
  match Hashtbl.find_opt registry seed with
  | None ->
      Hashtbl.add registry seed c;
      []
  | Some c0
    when c0.bits = c.bits && c0.msgs = c.msgs && c0.rounds = c.rounds
         && ((not words) || c0.words = c.words) ->
      []
  | Some c0 ->
      [
        Printf.sprintf
          "seed %d drifted: bits %d/%d messages %d/%d rounds %d/%d \
           words %.0f/%.0f"
          seed c0.bits c.bits c0.msgs c.msgs c0.rounds c.rounds c0.words
          c.words;
      ]

(* Executions are attempted once: an exception or a gate violation is
   one failed execution, never retried, never dropped. *)
type tally = { mutable attempted : int; mutable failed : string list }

let fail tally what = tally.failed <- what :: tally.failed

let attempt tally ~what execute =
  tally.attempted <- tally.attempted + 1;
  match execute () with
  | e, [] -> Some e
  | e, errs ->
      fail tally (Printf.sprintf "%s: %s" what (String.concat "; " errs));
      Some e
  | exception exn ->
      fail tally (Printf.sprintf "%s: %s" what (Printexc.to_string exn));
      None

(* {1 Socket backend} *)

(* Host mode: run one execution per connection until the coordinator
   closes its listener — then the next connect, or the handshake of a
   connection still queued, fails and the host exits. A failure in the
   middle of an execution surfaces on the coordinator as crashed nodes,
   which the gate counts. *)
let host_main ~port ~index =
  let module H = SN.Host (CR.Msg) in
  let module P = CR.Make_node (H) in
  let program ~extra:_ ctx = P.program CR.experiment_params ctx in
  let connect () =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
    match Unix.connect fd addr with
    | () -> Some fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        None
  in
  let rec loop () =
    match connect () with
    | None -> ()
    | Some fd ->
        let completed =
          match H.run ~fd ~host_index:index ~program with
          | () -> true
          | exception (Frame.Protocol_error _ | Unix.Unix_error _) -> false
        in
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if completed then loop ()
  in
  loop ()

type hosts = { listen : Unix.file_descr; pids : int array }

(* Every host not yet reaped, for the watchdog. *)
let live_hosts : int list ref = ref []

let spawn_hosts w =
  let listen = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen Unix.SO_REUSEADDR true;
  Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen 16;
  let port =
    match Unix.getsockname listen with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> invalid_arg "spawn_hosts: not an inet socket"
  in
  let exe = Sys.executable_name in
  let pids =
    Array.init w.hosts (fun h ->
        Unix.create_process exe
          [| exe; "--host"; string_of_int port; string_of_int h |]
          Unix.stdin Unix.stderr Unix.stderr)
  in
  live_hosts := Array.to_list pids @ !live_hosts;
  { listen; pids }

(* Close the listener and reap every host, killing any that has not
   exited within 10 s. Returns the number that did not exit with 0. *)
let stop_hosts h =
  (try Unix.close h.listen with Unix.Unix_error _ -> ());
  let deadline = now () +. 10. in
  let abnormal = ref 0 in
  let rec reap pid =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        reap pid
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        incr abnormal
    | _, Unix.WEXITED 0 -> ()
    | _, _ -> incr abnormal
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  in
  Array.iter reap h.pids;
  live_hosts := List.filter (fun p -> not (Array.mem p h.pids)) !live_hosts;
  !abnormal

let with_hosts tally w f =
  let h = spawn_hosts w in
  let finally () =
    let abnormal = stop_hosts h in
    if abnormal > 0 then
      fail tally (Printf.sprintf "%d host processes exited abnormally" abnormal)
  in
  Fun.protect ~finally (fun () -> f h)

(* Host start-up as set-up measures it: spawn, accept every host's
   connection, then tear down — the hosts see their handshake fail and
   exit. *)
let host_startup tally w =
  with_hosts tally w (fun h ->
      let conns =
        List.init w.hosts (fun _ -> fst (Unix.accept ~cloexec:true h.listen))
      in
      List.iter Unix.close conns)

(* One socket execution, judged against its simulator twin (same ids,
   same seed). The coordinator sees every billed message, so the
   per-message cap is checked on each. *)
let socket_exec w h ~seed ~ids ~(twin : exec) =
  let max_bits = ref 0 in
  let on_message ~src:_ ~dst:_ ~bits =
    if bits > !max_bits then max_bits := bits
  in
  let config = { SN.ids; seed; n_hosts = w.hosts; extra = "" } in
  let e =
    measure ~clocked:false (fun () ->
        (SN.serve ~listen:h.listen ~config ~on_message ()).SN.run)
  in
  let cap = max_msg_bits w in
  let twin_checks =
    violations
      [
        (e.a.assignments = twin.a.assignments, "assignments differ");
        (e.a.messages = twin.a.messages, "messages differ");
        (e.a.bits = twin.a.bits, "bits differ");
        (e.a.rounds = twin.a.rounds, "rounds differ");
        (e.a.per_round = twin.a.per_round, "per-round rows differ");
      ]
  in
  let errs =
    gate w e.a
    @ List.map (fun s -> "socket vs twin: " ^ s) twin_checks
    @ violations
        [
          ( !max_bits <= cap,
            Printf.sprintf "a %d-bit message exceeds the %d-bit cap"
              !max_bits cap );
        ]
  in
  (e, errs)

(* {1 Metrics} *)

type metric = { name : string; unit_ : string; value : float; basis : string }

let metric name unit_ basis value = { name; unit_; value; basis }

(* A layer that does not run on the workload reports 0 and says why. *)
let idle why name unit_ = metric name unit_ ("idle: " ^ why) 0.

(* A printed-only metric the workload cannot measure. *)
let absent why name unit_ = metric name unit_ ("absent: " ^ why) nan

type report = {
  json : metric list;  (** exactly the metrics BENCHMARK.json lists *)
  printed : metric list;  (** printed only *)
  tally : tally;
}

(* {1 Timed pass: end-to-end metrics} *)

let timed_pass (w : workload) ~seed ~seconds =
  let tally = { attempted = 0; failed = [] } in
  let seeds = seed_block w ~seed ~seconds in
  let cycle = Array.length seeds in
  (* Set-up, repeated (median): the inputs, and on socket-crash a host
     start-up. At least 5 times and until 0.2 s are spent, so that a
     set-up of microseconds is read often enough to be steady. *)
  let setups = ref [] and spent = ref 0. and inputs = ref [||] in
  while List.length !setups < 5 || (!spent < 0.2 && List.length !setups < 1000)
  do
    let t0 = now () in
    inputs := Array.map (ids_of w) seeds;
    if w.hosts > 0 then host_startup tally w;
    let dt = now () -. t0 in
    setups := dt :: !setups;
    spent := !spent +. dt
  done;
  let inputs = !inputs and n_setups = List.length !setups in
  let setup_s = median (Array.of_list !setups) in
  let run_sim ~seed ~ids () =
    let e =
      measure ~clocked:true (fun () ->
          sim_run w ~seed ~ids ~on_round_end ~shards:w.shards ())
    in
    (e, gate w e.a)
  in
  let twins = Hashtbl.create cycle in
  let twin_of ~seed ~ids =
    match Hashtbl.find_opt twins seed with
    | Some t -> t
    | None ->
        let t, errs = run_sim ~seed ~ids () in
        if errs <> [] then
          failwith ("simulator twin: " ^ String.concat "; " errs);
        Hashtbl.add twins seed t;
        t
  in
  let execute hosts k () =
    let seed = seeds.(k) and ids = inputs.(k) in
    let e, errs =
      match hosts with
      | None -> run_sim ~seed ~ids ()
      | Some h -> socket_exec w h ~seed ~ids ~twin:(twin_of ~seed ~ids)
    in
    (* the coordinator's reads follow the kernel's chunking, so its
       allocation is not held to exactness *)
    (e, errs @ drift ~seed ~words:(w.shards = 1 && hosts = None) e)
  in
  let body hosts =
    (* One warm-up execution of the first seed, outside the timed loop;
       its counts must match the loop's. *)
    let t_warm = now () in
    ignore
      (attempt tally ~what:(Printf.sprintf "warm-up seed %d" seeds.(0))
         (execute hosts 0));
    let warm_s = now () -. t_warm in
    let timed = ref [] and i = ref 0 in
    let t_loop = now () in
    while !i < cycle || now () -. t_loop < seconds do
      let k = !i mod cycle in
      let what = Printf.sprintf "seed %d" seeds.(k) in
      Option.iter
        (fun e -> timed := (seeds.(k), e) :: !timed)
        (attempt tally ~what (execute hosts k));
      incr i
    done;
    (warm_s, Array.of_list (List.rev !timed))
  in
  let warm_s, timed =
    match w.kind with
    | Socket_crash -> with_hosts tally w (fun h -> body (Some h))
    | Crash_nofault | Byz_split -> body None
  in
  (* Per-seed figures, each exact, averaged over the cycle: the mean
     moves less between seed windows than a median of a few discrete
     values would. *)
  let seen =
    List.filter_map (Hashtbl.find_opt registry) (Array.to_list seeds)
  in
  let per_seed field =
    sum (Array.of_list (List.map field seen))
    /. float_of_int (max 1 (List.length seen))
  in
  (* Wall time and allocation: each seed's median over its timed
     executions, averaged over the block. Work per seed varies up to 6x
     on byz-split, so a median over all executions would move with which
     seeds happen to sit mid-block. *)
  let per_seed_median field =
    let medians =
      List.filter_map
        (fun s ->
          let xs =
            List.filter_map
              (fun (s', e) -> if s' = s then Some (field e) else None)
              (Array.to_list timed)
          in
          if xs = [] then None else Some (median (Array.of_list xs)))
        (Array.to_list seeds)
    in
    sum (Array.of_list medians) /. float_of_int (max 1 (List.length medians))
  in
  let run_s = per_seed_median (fun e -> e.wall) in
  let alloc_mw = per_seed_median (fun e -> e.alloc) /. 1e6 in
  let timed = Array.map snd timed in
  let rounds_ms =
    Array.concat (Array.to_list (Array.map (fun e -> e.round_ms) timed))
  in
  let nr = Array.length rounds_ms in
  let round_pct q =
    let name = Printf.sprintf "round_ms_p%.0f" (100. *. q) in
    if nr = 0 then absent "Socket_net.serve exposes no round boundary" name "ms"
    else
      let beyond = int_of_float (float_of_int nr *. (1. -. q)) in
      metric name "ms"
        (Printf.sprintf "of %d rounds, %d beyond" nr beyond)
        (quantile rounds_ms q)
  in
  let det = Printf.sprintf "mean over %d seeds, exact" (List.length seen) in
  let failed = List.length tally.failed in
  {
    json =
      [
        metric "run_s" "s"
          (Printf.sprintf "mean over %d seeds of per-seed medians, %d runs"
             (List.length seen) (Array.length timed))
          run_s;
        metric "alloc_mw_per_run" "Mw"
          (Printf.sprintf
             "mean over %d seeds of per-seed medians, minor + major - promoted"
             (List.length seen))
          alloc_mw;
        metric "setup_s" "s"
          (Printf.sprintf "median of %d: inputs%s" n_setups
             (if w.hosts > 0 then ", host spawn and connect" else ""))
          setup_s;
        metric "bits_per_run" "bits" det
          (per_seed (fun c -> float_of_int c.bits));
        metric "messages_per_run" "count" det
          (per_seed (fun c -> float_of_int c.msgs));
        metric "rounds_per_run" "count" det
          (per_seed (fun c -> float_of_int c.rounds));
      ];
    (* Printed, not bounded: over seed windows the quartile spread
       reached 29% of the median for the p50 of round times (byz-split)
       and 26% for the p90 (crash-nofault) and the heap peak
       (byz-split), above the largest bound allowed. The p99 needs ten
       rounds beyond it. *)
    printed =
      [ round_pct 0.5; round_pct 0.9 ]
      @ (if nr >= 1000 then [ round_pct 0.99 ]
         else if nr = 0 then []
         else [ absent "fewer than 10 rounds beyond it" "round_ms_p99" "ms" ])
      @ [
          metric "heap_peak_mw" "Mw" "top_heap_words of this process"
            (float_of_int (Gc.quick_stat ()).top_heap_words /. 1e6);
          metric "warm_up_s" "s" "one execution before the timed loop" warm_s;
          metric "failed_frac" "ratio"
            (Printf.sprintf "%d of %d executions" failed tally.attempted)
            (float_of_int failed /. float_of_int (max 1 tally.attempted));
        ];
    tally;
  }

(* {1 Traced pass: per-layer metrics}

   Separate from the timed runs: one seed, executed once per probe —
   alloc-probed (1 shard), untraced (exactly a timed-run execution),
   sequential (where the workload shards) and traced (run-trace with
   timings, [?tap] capture, wrapped adversary). Same seed, so every
   execution must produce the same counts. *)

(* Sum of the rounds' [wall_ns] in a timed run-trace, in seconds; a
   round without one counts 0, which the coverage check then flags. *)
let trace_wall_s contents =
  let wall_ns line =
    Option.value ~default:0 (Repro_obs.Trace_tools.int_field line "wall_ns")
  in
  let ns =
    List.fold_left
      (fun acc line -> acc + wall_ns line)
      0
      (Repro_obs.Trace_tools.round_lines contents)
  in
  float_of_int ns /. 1e9

type traced = {
  t : exec;
  trace_bytes : int;
  trace_s : float;  (** per-round wall the trace itself recorded *)
  adversary_s : float;  (** time inside the adversary callbacks *)
  max_bits : int;
  kinds : int array;  (** crash round kind: announce 0, report 1, verdict 2 *)
  inboxes : (int * CR.Msg.t) list list;
      (** report-round inboxes of the member addressed first in each
          round: one member throughout while the committee stands *)
}

let traced_run (w : workload) ~seed ~ids =
  let meta = [ ("workload", `Str w.name); ("seed", `Int seed) ] in
  let tr = Trace.create ~timings:true ~meta () in
  let adversary_s = ref 0. and max_bits = ref 0 in
  let timed_call f =
    let t0 = now () in
    let r = f () in
    adversary_s := !adversary_s +. (now () -. t0);
    r
  in
  let note_bits bits =
    Trace.on_message tr ~bits;
    if bits > !max_bits then max_bits := bits
  in
  let kinds = Array.make (Fuzzer.crash_round_bound ~n:w.n + 1) (-1) in
  let member = ref (-1) and cur_round = ref (-1) in
  let cur = ref [] and inboxes = ref [] in
  let flush () =
    if !cur <> [] then inboxes := List.rev !cur :: !inboxes;
    cur := []
  in
  let crash_tap ~round (e : CR.Net.envelope) =
    note_bits (CR.Msg.bits e.msg);
    if kinds.(round) < 0 then
      kinds.(round) <-
        (match e.msg with
        | CR.Msg.Notify -> 0
        | CR.Msg.Status _ -> 1
        | CR.Msg.Response _ -> 2);
    match e.msg with
    | CR.Msg.Status _ ->
        if round <> !cur_round then begin
          flush ();
          cur_round := round;
          member := e.dst
        end;
        if e.dst = !member then cur := (e.src, e.msg) :: !cur
    | CR.Msg.Notify | CR.Msg.Response _ -> ()
  in
  let on_crash = Trace.on_crash tr and on_decide = Trace.on_decide tr in
  let on_round_end = Trace.on_round_end tr in
  let t =
    measure ~clocked:false (fun () ->
        match w.kind with
        | Byz_split ->
            let tap ~round:_ (e : BR.Net.envelope) =
              note_bits (BR.Msg.bits e.msg)
            in
            let wrap s ~byz_id ~round ~inbox =
              timed_call (fun () -> s ~byz_id ~round ~inbox)
            in
            byz_run w ~seed ~ids ~wrap ~tap ~on_crash ~on_decide
              ~on_round_end ()
        | Crash_nofault | Socket_crash ->
            crash_run ~seed ~ids ~tap:crash_tap ~on_crash ~on_decide
              ~on_round_end ~shards:w.shards ())
  in
  flush ();
  Trace.finish tr t.res.metrics;
  let contents = Trace.contents tr in
  {
    t;
    trace_bytes = String.length contents;
    trace_s = trace_wall_s contents;
    adversary_s = !adversary_s;
    max_bits = !max_bits;
    kinds;
    inboxes = List.rev !inboxes;
  }

let barrier_us () =
  Pool.with_pool ~shards:2 (fun p -> per_call (fun () -> Pool.run p ignore))
  *. 1e6

let fingerprint_ns_per_kbit w ~seed ~ids =
  let ns = namespace w in
  let bv = Bitvec.create ns in
  Array.iter (fun id -> Bitvec.set bv id true) ids;
  let key = Fingerprint.key_of_seed (byz_params w seed).shared_seed in
  let seg = Interval.make 1 ns in
  per_call (fun () ->
      ignore (Sys.opaque_identity (Fingerprint.of_segment key bv seg)))
  *. 1e9
  /. (float_of_int ns /. 1000.)

let phase_king_rounds w ~seed ~ids =
  let pool = BR.pool_of_params (byz_params w seed) ~n:w.n in
  let members = Array.to_list ids |> List.filter (Committee_pool.mem pool) in
  Phase_king.rounds_needed ~committee_size:(List.length members)

let assess_ms (e : exec) =
  per_call (fun () -> ignore (Sys.opaque_identity (Runner.assess e.res)))
  *. 1e3

let gc_metrics (e : exec) ~basis =
  [
    metric "gc.minor_collections_per_run" "count" basis
      (float_of_int e.minor_gcs);
    metric "gc.major_collections_per_run" "count" basis
      (float_of_int e.major_gcs);
  ]

let idle_all why names = List.map (fun (name, u) -> idle why name u) names

let socket_layer =
  [
    ("socket_net.coord_busy_frac", "ratio");
    ("socket_net.hosts_busy_frac", "ratio");
    ("socket_net.overhead_x", "x");
    ("wire.encode_ns_per_msg", "ns");
    ("wire.decode_ns_per_msg", "ns");
    ("wire.encoded_over_billed", "ratio");
    ("frame.roundtrip_us", "us");
  ]

let verdict_layer =
  [
    ("crash_renaming.verdict_us_inc", "us");
    ("crash_renaming.verdict_us_scan", "us");
    ("crash_renaming.inc_over_scan", "x");
  ]

let crash_layer =
  [
    ("crash_renaming.alloc_emit_mw", "Mw");
    ("crash_renaming.alloc_consume_mw", "Mw");
    ("crash_renaming.announce_round_ms", "ms");
    ("crash_renaming.report_round_ms", "ms");
    ("crash_renaming.verdict_round_ms", "ms");
  ]
  @ verdict_layer

let byz_layer =
  [
    ("fingerprint.ns_per_kbit", "ns");
    ("phase_king.rounds_per_instance", "count");
  ]

let shard_layer =
  [ ("engine.shard_speedup", "x"); ("domain_pool.barrier_us", "us") ]

(* Committee verdict cost: the captured report-round inboxes replayed
   through the incremental path and the reference scan, which must
   agree verdict for verdict. *)
let verdict_metrics tally ~ids inboxes =
  let replay path () =
    CR.For_tests.committee_verdicts ~path ~pv:0 ~ids inboxes
  in
  if replay CR.Incremental () <> replay CR.Linear_scan () then
    fail tally "committee paths disagree on the replayed inboxes";
  let rounds = List.length inboxes in
  let us path =
    per_call (fun () -> ignore (Sys.opaque_identity (replay path ())))
    *. 1e6
    /. float_of_int rounds
  in
  let inc = us CR.Incremental and scan = us CR.Linear_scan in
  let basis = Printf.sprintf "per report round, %d replayed" rounds in
  [
    metric "crash_renaming.verdict_us_inc" "us" basis inc;
    metric "crash_renaming.verdict_us_scan" "us" basis scan;
    metric "crash_renaming.inc_over_scan" "x" "scan / incremental time"
      (scan /. inc);
  ]

let trace_sim (w : workload) ~seed =
  let ids = ids_of w seed in
  let tally = { attempted = 0; failed = [] } in
  let checked what run =
    match
      attempt tally ~what (fun () ->
          let e = run () in
          (e, gate w e.a @ drift ~seed ~words:false e))
    with
    | Some e -> e
    | None -> failwith ("traced pass: the " ^ what ^ " execution raised")
  in
  let probe = Engine.alloc_probe () in
  ignore
    (checked "alloc-probed" (fun () ->
         measure ~clocked:false (fun () ->
             sim_run w ~seed ~ids ~alloc_probe:probe ~shards:1 ())));
  let u =
    checked "untraced" (fun () ->
        measure ~clocked:true (fun () ->
            sim_run w ~seed ~ids ~on_round_end ~shards:w.shards ()))
  in
  let sequential =
    if w.shards = 1 then None
    else
      Some
        (checked "sequential" (fun () ->
             measure ~clocked:true (fun () ->
                 sim_run w ~seed ~ids ~on_round_end ~shards:1 ())))
  in
  let traced = ref None in
  ignore
    (checked "traced" (fun () ->
         let r = traced_run w ~seed ~ids in
         traced := Some r;
         r.t));
  let tr = Option.get !traced in
  let rounds = tr.t.a.rounds in
  let cap = max_msg_bits w in
  if tr.max_bits > cap then
    fail tally
      (Printf.sprintf "a %d-bit message exceeds the %d-bit cap" tr.max_bits
         cap);
  let unattributed = 1. -. (tr.trace_s /. tr.t.wall) in
  if Float.abs unattributed > 0.05 then
    fail tally
      (Printf.sprintf "trace rounds cover %.1f%% of the traced wall"
         (100. *. (1. -. unattributed)));
  (* Round times come from the untraced execution; the traced one (same
     seed, same rounds) only says what each round was. *)
  let rows = u.a.per_round in
  let msg_rounds =
    List.filter (fun r -> rows.(r).Metrics.hmsgs > 0) (List.init rounds Fun.id)
  in
  let ns_per_msg =
    let ms =
      List.fold_left (fun acc r -> acc +. u.round_ms.(r)) 0. msg_rounds
    in
    let msgs =
      List.fold_left (fun acc r -> acc + rows.(r).Metrics.hmsgs) 0 msg_rounds
    in
    ms *. 1e6 /. float_of_int msgs
  in
  let mw x = x /. 1e6 in
  let engine =
    [
      metric "engine.ns_per_msg" "ns"
        (Printf.sprintf "untraced round wall / messages, %d rounds"
           (List.length msg_rounds))
        ns_per_msg;
      metric "engine.alloc_deliver_mw" "Mw" "alloc probe, 1 shard"
        (mw probe.ap_deliver);
      metric "engine.alloc_book_mw" "Mw" "alloc probe, 1 shard"
        (mw probe.ap_book);
      metric "engine.byz_msgs_per_run" "count" "untraced execution"
        (float_of_int u.a.byz_messages);
    ]
  in
  let sharding =
    match sequential with
    | None -> idle_all "not sharded" shard_layer
    | Some s1 ->
        [
          metric "engine.shard_speedup" "x"
            (Printf.sprintf "run_s at 1 / %d shards, seed %d" w.shards seed)
            (s1.wall /. u.wall);
          metric "domain_pool.barrier_us" "us"
            "empty Domain_pool.run, 2 shards" (barrier_us ());
        ]
  in
  let crash =
    if not (is_crash w) then idle_all "no crash protocol" crash_layer
    else
      let kind_metric name k =
        let ms =
          List.filter
            (fun r -> tr.kinds.(r) = k)
            (List.init (min rounds (Array.length tr.kinds)) Fun.id)
          |> List.map (fun r -> u.round_ms.(r))
          |> Array.of_list
        in
        let count = Array.length ms in
        let basis =
          Printf.sprintf "mean of %d rounds, %.1f%% of run_s" count
            (100. *. sum ms /. 1e3 /. u.wall)
        in
        metric name "ms" basis
          (if count = 0 then 0. else sum ms /. float_of_int count)
      in
      [
        metric "crash_renaming.alloc_emit_mw" "Mw" "alloc probe, 1 shard"
          (mw probe.ap_emit);
        metric "crash_renaming.alloc_consume_mw" "Mw"
          "alloc probe: resume - emit"
          (mw (probe.ap_resume -. probe.ap_emit));
        kind_metric "crash_renaming.announce_round_ms" 0;
        kind_metric "crash_renaming.report_round_ms" 1;
        kind_metric "crash_renaming.verdict_round_ms" 2;
      ]
      @
      if tr.inboxes = [] then
        idle_all "no member received reports" verdict_layer
      else verdict_metrics tally ~ids tr.inboxes
  in
  let adversary =
    match w.kind with
    | Crash_nofault | Socket_crash ->
        idle "no adversary" "adversary.us_per_round" "us"
    | Byz_split ->
        metric "adversary.us_per_round" "us"
          (Printf.sprintf "wrapped callback, %d rounds" rounds)
          (tr.adversary_s *. 1e6 /. float_of_int rounds)
  in
  let byz =
    if is_crash w then idle_all "no Byzantine protocol" byz_layer
    else
      [
        metric "fingerprint.ns_per_kbit" "ns"
          (Printf.sprintf "Fingerprint.of_segment over %d bits" (namespace w))
          (fingerprint_ns_per_kbit w ~seed ~ids);
        metric "phase_king.rounds_per_instance" "count"
          "rounds_needed at the committee size"
          (float_of_int (phase_king_rounds w ~seed ~ids));
      ]
  in
  let obs =
    [
      metric "runner.assess_ms" "ms" "Runner.assess, untraced result"
        (assess_ms u);
      metric "trace.overhead_frac" "ratio" "traced / untraced run_s - 1"
        ((tr.t.wall /. u.wall) -. 1.);
      metric "trace.bytes_per_round" "B" "run-trace/v1 with timings"
        (float_of_int tr.trace_bytes /. float_of_int rounds);
      metric "trace.unattributed_frac" "ratio"
        "1 - trace round walls / traced run_s" unattributed;
    ]
  in
  {
    json =
      engine @ sharding @ crash @ [ adversary ] @ byz @ obs
      @ idle_all "simulator only" socket_layer
      @ gc_metrics u ~basis:"untraced execution";
    printed = [];
    tally;
  }

(* Round trip of one frame through [Frame] over a socketpair, echoed by
   a thread so a frame larger than the socket buffer cannot deadlock. *)
let frame_roundtrip_us ~bytes =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ia = Frame.io_of_fd a and ib = Frame.io_of_fd b in
  let rec echo () =
    match Frame.read_frame_opt ib with
    | None -> ()
    | Some p ->
        Frame.write_frame ib p;
        echo ()
  in
  let echoer =
    Thread.create
      (fun () ->
        try echo () with Frame.Protocol_error _ | Unix.Unix_error _ -> ())
      ()
  in
  let payload = String.make bytes 'x' in
  let finally () =
    Unix.shutdown a Unix.SHUTDOWN_SEND;
    Thread.join echoer;
    Unix.close a;
    Unix.close b
  in
  Fun.protect ~finally (fun () ->
      per_call (fun () ->
          Frame.write_frame ia payload;
          ignore (Sys.opaque_identity (Frame.read_frame ia))))
  *. 1e6

let trace_socket (w : workload) ~seed =
  let ids = ids_of w seed in
  let tally = { attempted = 0; failed = [] } in
  let get what = function
    | Some e -> e
    | None -> failwith ("traced pass: the " ^ what ^ " execution raised")
  in
  let twin_run () =
    let e =
      measure ~clocked:true (fun () ->
          crash_run ~seed ~ids ~on_round_end ~shards:1 ())
    in
    (e, gate w e.a)
  in
  ignore (get "twin" (attempt tally ~what:"twin warm-up" twin_run));
  let twin = get "twin" (attempt tally ~what:"twin" twin_run) in
  (* Wire traffic: every 16th message the twin hands to the network. *)
  let sample = ref [] and k = ref 0 in
  let tap ~round:_ (e : CR.Net.envelope) =
    if !k land 15 = 0 then sample := e.msg :: !sample;
    incr k
  in
  ignore (crash_run ~seed ~ids ~tap ~shards:1 ());
  let msgs = Array.of_list !sample in
  let encoded = Array.map CR.Msg.encode msgs in
  let round_trips (bytes, bits) =
    match CR.Msg.decode bytes with
    | Some m -> CR.Msg.encode m = (bytes, bits)
    | None -> false
  in
  if not (Array.for_all round_trips encoded) then
    fail tally "wire codec round trip failed on tapped traffic";
  let nm = float_of_int (Array.length msgs) in
  let each f xs () =
    Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs
  in
  let encode_ns = per_call (each CR.Msg.encode msgs) *. 1e9 /. nm in
  let decode_ns =
    per_call (each (fun (b, _) -> CR.Msg.decode b) encoded) *. 1e9 /. nm
  in
  let wire_bytes =
    Array.fold_left (fun acc (b, _) -> acc + String.length b) 0 encoded
  in
  let billed = Array.fold_left (fun acc (_, bits) -> acc + bits) 0 encoded in
  (* Reply frames carry every delivery, one frame per host per round. *)
  let frame_bytes =
    float_of_int wire_bytes /. nm *. float_of_int twin.a.messages
    /. float_of_int (twin.a.rounds * w.hosts)
  in
  (* One socket execution on fresh hosts, with the coordinator's CPU
     time during [serve] and the hosts' once they are reaped. *)
  let socket what =
    let cpu_self () =
      let t = Unix.times () in
      t.tms_utime +. t.tms_stime
    in
    let cpu_children () =
      let t = Unix.times () in
      t.tms_cutime +. t.tms_cstime
    in
    let c0 = cpu_children () in
    let e, coord =
      with_hosts tally w (fun h ->
          let s0 = cpu_self () in
          let e =
            attempt tally ~what (fun () -> socket_exec w h ~seed ~ids ~twin)
          in
          (get what e, cpu_self () -. s0))
    in
    (e, coord, cpu_children () -. c0)
  in
  ignore (socket "socket warm-up");
  let s, coord_cpu, hosts_cpu = socket "socket" in
  let tapped = Printf.sprintf "%d tapped messages" (Array.length msgs) in
  let engine_idle = "the socket path runs no engine" in
  let no_trace = "Socket_net.serve takes no trace hooks" in
  {
    json =
      idle_all engine_idle
        [
          ("engine.ns_per_msg", "ns");
          ("engine.alloc_deliver_mw", "Mw");
          ("engine.alloc_book_mw", "Mw");
          ("engine.byz_msgs_per_run", "count");
        ]
      @ idle_all "not sharded" shard_layer
      @ idle_all "protocol runs in the host processes" crash_layer
      @ [ idle "no adversary" "adversary.us_per_round" "us" ]
      @ idle_all "no Byzantine protocol" byz_layer
      @ [
          metric "runner.assess_ms" "ms" "Runner.assess, socket result"
            (assess_ms s);
          idle no_trace "trace.overhead_frac" "ratio";
          idle no_trace "trace.bytes_per_round" "B";
          idle no_trace "trace.unattributed_frac" "ratio";
          metric "socket_net.coord_busy_frac" "ratio"
            "coordinator CPU / wall, one execution" (coord_cpu /. s.wall);
          metric "socket_net.hosts_busy_frac" "ratio"
            (Printf.sprintf "host CPU / (wall x %d hosts)" w.hosts)
            (hosts_cpu /. (s.wall *. float_of_int w.hosts));
          metric "socket_net.overhead_x" "x"
            "socket / simulator-twin run_s, same seed" (s.wall /. twin.wall);
          metric "wire.encode_ns_per_msg" "ns" tapped encode_ns;
          metric "wire.decode_ns_per_msg" "ns" tapped decode_ns;
          metric "wire.encoded_over_billed" "ratio"
            "encoded bits / billed bits, tapped messages"
            (float_of_int (8 * wire_bytes) /. float_of_int billed);
          metric "frame.roundtrip_us" "us"
            (Printf.sprintf "socketpair echo, %.0f-byte frame (estimated)"
               frame_bytes)
            (frame_roundtrip_us ~bytes:(max 1 (int_of_float frame_bytes)));
        ]
      @ gc_metrics s ~basis:"coordinator, one execution";
    printed = [];
    tally;
  }

(* {1 Output} *)

let print_metric m =
  if Float.is_nan m.value then
    Printf.printf "%-34s %14s %-6s %s\n" m.name "-" m.unit_ m.basis
  else Printf.printf "%-34s %14.6g %-6s %s\n" m.name m.value m.unit_ m.basis

let print_json ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value
        m.unit_)
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

(* {1 Entry point} *)

let usage () =
  prerr_endline
    "usage: perfbench --workload \
     (crash-nofault|byz-split|socket-crash) --seed N \
     --seconds S --trace 0|1";
  exit 2

(* A hung run exits without a summary line and takes its hosts along:
   after three times the measuring time plus 90 s for set-up, warm-up
   and the pass's last executions, and always inside the 180 s a run
   may take. *)
let arm_watchdog ~seconds =
  let expire _ =
    prerr_endline "perfbench: watchdog expired";
    List.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      !live_hosts;
    exit 3
  in
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle expire);
  ignore (Unix.alarm (min 170 ((3 * seconds) + 90)))

let bench args =
  let rec parse acc = function
    | [] -> acc
    | key :: value :: rest
      when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  if List.length opts <> 4 then usage ();
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k =
    match int_of_string_opt (get k) with Some v -> v | None -> usage ()
  in
  let w =
    let named (w : workload) = w.name = get "workload" in
    match List.find_opt named workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed = int "seed" and seconds = int "seconds" and trace = int "trace" in
  if seed < 0 || seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  arm_watchdog ~seconds;
  size_round_clock w;
  Repro_renaming.Parallel.tune_gc ();
  let gc = Gc.get () in
  Printf.printf
    "perfbench %s seed=%d seconds=%d trace=%d | n=%d namespace=%d f=%d \
     shards=%d hosts=%d | gc minor_heap_size=%d space_overhead=%d\n%!"
    w.name seed seconds trace w.n (namespace w) w.f w.shards w.hosts
    gc.Gc.minor_heap_size gc.Gc.space_overhead;
  let r =
    match (trace, w.kind) with
    | 0, _ -> timed_pass w ~seed ~seconds:(float_of_int seconds)
    | _, kind -> (
        let seed = (seed_block w ~seed ~seconds:(float_of_int seconds)).(0) in
        match kind with
        | Socket_crash -> trace_socket w ~seed
        | Crash_nofault | Byz_split -> trace_sim w ~seed)
  in
  List.iter print_metric (r.json @ r.printed);
  let finite = List.for_all (fun m -> Float.is_finite m.value) r.json in
  if not finite then fail r.tally "a metric is not a finite number";
  let failures = List.rev r.tally.failed in
  List.iter (Printf.printf "FAILED %s\n") failures;
  let attempted = max 1 r.tally.attempted in
  let failed = min attempted (List.length failures) in
  print_json ~correct:(failures = []) ~attempted ~failed r.json

let () =
  match Array.to_list Sys.argv with
  | [ _; "--host"; port; index ] -> (
      match (int_of_string_opt port, int_of_string_opt index) with
      | Some port, Some index -> host_main ~port ~index
      | _ -> usage ())
  | _ :: args -> bench args
  | [] -> usage ()
