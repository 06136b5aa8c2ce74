(* Multi-process socket-transport tests: a coordinator over real forked
   host processes, exercising mid-round host failures and fault-free
   billing. These live in their own test binary because OCaml 5 forbids
   [Unix.fork] in any process that has ever spawned a domain — and the
   main suite's shard/parallel tests do. *)

module Frame = Repro_net.Frame
module SN = Repro_net.Socket_net
module Wire = Repro_sim.Wire
module Engine = Repro_sim.Engine

module TMsg = struct
  type t = Ping of int

  let bits (Ping v) = Wire.gamma_bits v

  let pp ppf (Ping v) = Format.fprintf ppf "ping(%d)" v

  let encode (Ping v) =
    let w = Wire.Writer.create () in
    Wire.Writer.add_gamma w v;
    (Wire.Writer.contents w, Wire.Writer.bit_length w)

  let decode s =
    match Wire.Reader.read_gamma (Wire.Reader.of_string s) with
    | v -> Some (Ping v)
    | exception Invalid_argument _ -> None
end

module H = SN.Host (TMsg)

let listen_ephemeral () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 8;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  (fd, port)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* Fork a child host; it must never return into the test runner. *)
let fork_host port ~host_index ~program =
  match Unix.fork () with
  | 0 ->
      (try
         H.run ~fd:(connect port) ~host_index ~program;
         Unix._exit 0
       with _ -> Unix._exit 1)
  | pid -> pid

let good_program ~extra:_ ctx =
  for r = 1 to 3 do
    ignore (H.broadcast ctx (TMsg.Ping r))
  done;
  100 + H.my_id ctx

let reap pids =
  List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids

let run_with_failing_host ~bad =
  let listen, port = listen_ephemeral () in
  let ids = [| 11; 22; 33; 44 |] in
  let config = { SN.ids; seed = 5; n_hosts = 2; extra = "" } in
  let bad_pid = bad port in
  let good_pid = fork_host port ~host_index:1 ~program:good_program in
  let res = SN.serve ~listen ~config ~max_rounds:50 () in
  Unix.close listen;
  reap [ bad_pid; good_pid ];
  res

let check_outcomes (res : SN.result) ~crash_round =
  (* host 0 owns slots 0-1 (ids 11, 22), host 1 slots 2-3 (33, 44) *)
  List.iter
    (fun (id, outcome) ->
      match (id, outcome) with
      | (11 | 22), Engine.Crashed r ->
          Alcotest.(check int)
            (Printf.sprintf "node %d crash round" id)
            crash_round r
      | (33 | 44), Engine.Decided v ->
          Alcotest.(check int)
            (Printf.sprintf "node %d decision" id)
            (100 + id) v
      | id, _ -> Alcotest.fail (Printf.sprintf "node %d: wrong outcome" id))
    res.SN.run.Engine.outcomes

let test_disconnect_at_start () =
  let bad port =
    (* Handshakes correctly, then vanishes before its first round frame:
       the coordinator must see EOF at round 0 and crash slots 0-1. *)
    match Unix.fork () with
    | 0 ->
        (try
           let fd = connect port in
           let io = Frame.io_of_fd fd in
           let w = Wire.Writer.create () in
           Wire.Writer.add_gamma w SN.magic;
           Wire.Writer.add_gamma w 0;
           Frame.write_frame io (Wire.Writer.contents w);
           ignore (Frame.read_frame io);
           Unix.close fd;
           Unix._exit 0
         with _ -> Unix._exit 1)
    | pid -> pid
  in
  let res = run_with_failing_host ~bad in
  check_outcomes res ~crash_round:0

let test_disconnect_mid_run () =
  let bad port =
    (* Behaves for one full round, then its program raises: the process
       dies between rounds and the coordinator crashes its slots at
       round 1. *)
    fork_host port ~host_index:0 ~program:(fun ~extra:_ ctx ->
        ignore (H.broadcast ctx (TMsg.Ping 9));
        failwith "dying mid-run")
  in
  let res = run_with_failing_host ~bad in
  check_outcomes res ~crash_round:1

let test_protocol_violation () =
  let bad port =
    (* Sends a syntactically valid frame that violates the round
       contract (idle tag for a running slot): the coordinator must
       treat it exactly like a disconnect. *)
    match Unix.fork () with
    | 0 ->
        (try
           let fd = connect port in
           let io = Frame.io_of_fd fd in
           let w = Wire.Writer.create () in
           Wire.Writer.add_gamma w SN.magic;
           Wire.Writer.add_gamma w 0;
           Frame.write_frame io (Wire.Writer.contents w);
           ignore (Frame.read_frame io);
           let w = Wire.Writer.create () in
           Wire.Writer.add_gamma w 0;
           (* round *)
           Wire.Writer.add_gamma w 0;
           (* slot 0: idle — but it is Running *)
           Wire.Writer.add_gamma w 0;
           (* slot 1: idle *)
           Frame.write_frame io (Wire.Writer.contents w);
           ignore (Frame.read_frame io);
           Unix.close fd;
           Unix._exit 0
         with _ -> Unix._exit 0)
    | pid -> pid
  in
  let res = run_with_failing_host ~bad in
  check_outcomes res ~crash_round:0

let test_fault_free_decides () =
  let listen, port = listen_ephemeral () in
  let ids = [| 11; 22; 33; 44 |] in
  let config = { SN.ids; seed = 5; n_hosts = 2; extra = "" } in
  let p0 = fork_host port ~host_index:0 ~program:good_program in
  let p1 = fork_host port ~host_index:1 ~program:good_program in
  let res = SN.serve ~listen ~config ~max_rounds:50 () in
  Unix.close listen;
  reap [ p0; p1 ];
  Alcotest.(check int) "rounds" 3 res.SN.rounds;
  List.iter
    (fun (id, outcome) ->
      match outcome with
      | Engine.Decided v ->
          Alcotest.(check int) (Printf.sprintf "node %d" id) (100 + id) v
      | _ -> Alcotest.fail (Printf.sprintf "node %d did not decide" id))
    res.SN.run.Engine.outcomes;
  (* 3 rounds of 4 broadcasts, each billed on all 4 links. *)
  let a = Repro_renaming.Runner.assess res.SN.run in
  Alcotest.(check int) "messages" (3 * 4 * 4) a.Repro_renaming.Runner.messages

(* {2 Socket backend = simulator}

   Every protocol, and a program that uses every outbox shape, run over
   two forked hosts and on the engine with the same ids and seed: the
   assignments, totals and per-round rows must be equal, and the
   coordinator's link tables must sum to the engine's totals. Engine
   runs pin [~shards:1] so this process never spawns a domain and can
   keep forking. *)

module CR = Repro_renaming.Crash_renaming
module HV = Repro_renaming.Halving_renaming
module FL = Repro_renaming.Flooding_renaming
module BZ = Repro_renaming.Byzantine_renaming
module Runner = Repro_renaming.Runner

let serve_forked ~ids ~seed ~extra host_main =
  let listen, port = listen_ephemeral () in
  let config = { SN.ids; seed; n_hosts = 2; extra } in
  let pids =
    List.init 2 (fun host_index ->
        match Unix.fork () with
        | 0 ->
            (try
               host_main ~fd:(connect port) ~host_index;
               Unix._exit 0
             with _ -> Unix._exit 1)
        | pid -> pid)
  in
  let res = SN.serve ~listen ~config ~max_rounds:10_000 () in
  Unix.close listen;
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "a host process failed")
    pids;
  res

let sum_matrix m =
  Array.fold_left (Array.fold_left ( + )) 0 m

let check_equiv name (sock : SN.result) (sim : int Engine.run_result) =
  let a = Runner.assess sock.SN.run and b = Runner.assess sim in
  let check_int what = Alcotest.(check int) (name ^ ": " ^ what) in
  Alcotest.(check (list (pair int int)))
    (name ^ ": assignments") b.Runner.assignments a.Runner.assignments;
  check_int "decided" b.Runner.decided a.Runner.decided;
  check_int "messages" b.Runner.messages a.Runner.messages;
  check_int "bits" b.Runner.bits a.Runner.bits;
  check_int "rounds" b.Runner.rounds a.Runner.rounds;
  check_int "coordinator rounds" b.Runner.rounds sock.SN.rounds;
  Alcotest.(check bool)
    (name ^ ": per-round rows") true
    (a.Runner.per_round = b.Runner.per_round);
  check_int "link_msgs sum" b.Runner.messages
    (sum_matrix sock.SN.links.SN.link_msgs);
  check_int "link_bits sum" b.Runner.bits
    (sum_matrix sock.SN.links.SN.link_bits)

let protocol_ids ~seed ~n =
  Repro_renaming.Experiment.random_ids ~seed ~namespace:(64 * n) ~n

let test_equiv_protocols () =
  let n = 24 and seed = 3 in
  let ids = protocol_ids ~seed ~n in
  let crash =
    serve_forked ~ids ~seed ~extra:"" (fun ~fd ~host_index ->
        let module H = SN.Host (CR.Msg) in
        let module P = CR.Make_node (H) in
        H.run ~fd ~host_index ~program:(fun ~extra:_ ctx ->
            P.program CR.experiment_params ctx))
  in
  let halving =
    serve_forked ~ids ~seed ~extra:"" (fun ~fd ~host_index ->
        let module H = SN.Host (CR.Msg) in
        let module P = HV.Make_node (H) in
        H.run ~fd ~host_index ~program:(fun ~extra:_ ctx -> P.program ctx))
  in
  let flood = { FL.rounds = `Tolerate 2 } in
  let flooding =
    serve_forked ~ids ~seed ~extra:"" (fun ~fd ~host_index ->
        let module H = SN.Host (FL.Msg) in
        let module P = FL.Make_node (H) in
        H.run ~fd ~host_index ~program:(fun ~extra:_ ctx ->
            P.program flood ctx))
  in
  let byz_params = BZ.default_params ~namespace:(64 * n) ~shared_seed:seed in
  let byz =
    serve_forked ~ids ~seed ~extra:"" (fun ~fd ~host_index ->
        let module H = SN.Host (BZ.Msg) in
        let module P = BZ.Make_node (H) in
        H.run ~fd ~host_index ~program:(fun ~extra:_ ctx ->
            P.program byz_params ctx))
  in
  check_equiv "crash" crash
    (CR.run ~params:CR.experiment_params ~seed ~shards:1 ~ids ());
  check_equiv "halving" halving (HV.run ~seed ~shards:1 ~ids ());
  check_equiv "flooding" flooding
    (FL.run ~params:flood ~seed ~shards:1 ~ids ());
  check_equiv "byz" byz (BZ.run ~params:byz_params ~seed ~shards:1 ~ids ())

(* Every outbox shape, with runs of physically-equal messages broken
   and unbroken, a destination repeated within a run, and nodes deciding
   in rounds 2 to 5 — so later rounds bill messages to finished nodes
   that are not delivered. The decision folds in every inbox entry
   (source, payload, position), so equal assignments mean equal
   inboxes. *)
module Mixed (N : Repro_net.Network_intf.S with type msg = TMsg.t) = struct
  let program ctx =
    let me = N.my_id ctx and ids = N.all_ids ctx in
    let n = Array.length ids in
    let acc = ref me in
    let absorb inbox =
      N.Inbox.iter inbox ~f:(fun ~src (TMsg.Ping v) ->
          acc := ((!acc * 31) + (src * 7) + v) land 0xffffff)
    in
    let a = TMsg.Ping me and b = TMsg.Ping (me + 1) in
    let dsts = Array.append ids [| ids.(0) |] in
    let msgs = Array.init (n + 1) (fun k -> if k mod 3 = 2 then b else a) in
    let sizes = Array.map TMsg.bits msgs in
    for r = 0 to 1 + (me mod 4) do
      absorb
        (match r mod 5 with
        | 0 -> N.broadcast ctx (TMsg.Ping (me + r))
        | 1 -> N.multisend ctx ~dsts:[ ids.(1); ids.(0); ids.(1) ] a
        | 2 -> N.exchange_sized ctx ~dsts ~msgs ~sizes ~len:(n + 1)
        | 3 ->
            N.exchange ctx
              [ (ids.(2), a); (ids.(2), a); (ids.(0), TMsg.Ping 7); (me, b) ]
        | _ -> N.skip_round ctx)
    done;
    !acc
end

module Sim = Engine.Make (TMsg)
module Mixed_sim = Mixed (Sim)
module Mixed_host = Mixed (H)

let test_equiv_mixed_shapes () =
  let ids = [| 5; 17; 3; 40; 28; 9; 33 |] and seed = 4 in
  let sock =
    serve_forked ~ids ~seed ~extra:"" (fun ~fd ~host_index ->
        H.run ~fd ~host_index ~program:(fun ~extra:_ ctx ->
            Mixed_host.program ctx))
  in
  check_equiv "mixed" sock
    (Sim.run ~ids ~seed ~shards:1 ~program:Mixed_sim.program ());
  let rounds =
    List.sort_uniq compare
      (List.map (fun id -> 2 + (id mod 4)) (Array.to_list ids))
  in
  Alcotest.(check bool) "nodes decide in different rounds" true
    (List.length rounds > 1)

let () =
  Alcotest.run "repro-renaming-net-proc"
    [
      ( "socket_proc",
        [
          Alcotest.test_case "host EOF at round 0 -> Crashed" `Quick
            test_disconnect_at_start;
          Alcotest.test_case "host dies mid-run -> Crashed" `Quick
            test_disconnect_mid_run;
          Alcotest.test_case "protocol violation -> Crashed" `Quick
            test_protocol_violation;
          Alcotest.test_case "fault-free decides with exact billing" `Quick
            test_fault_free_decides;
          Alcotest.test_case "four protocols match the engine" `Quick
            test_equiv_protocols;
          Alcotest.test_case "every outbox shape matches the engine" `Quick
            test_equiv_mixed_shapes;
        ] );
    ]
