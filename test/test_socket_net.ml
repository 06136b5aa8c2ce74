(* Robustness of the socket transport's framing: partial reads / short
   writes, oversized and truncated frames, and framed codec round-trips
   for every protocol's message type. The multi-process half (forked
   hosts, mid-round failures) lives in test/net_proc — OCaml 5 forbids
   [Unix.fork] once a domain has been spawned, and this suite runs after
   the shard/parallel tests. *)

module Frame = Repro_net.Frame
module SN = Repro_net.Socket_net
module Wire = Repro_sim.Wire
module CR = Repro_renaming.Crash_renaming
module FL = Repro_renaming.Flooding_renaming
module BZ = Repro_renaming.Byzantine_renaming
module Phase_king = Repro_consensus.Phase_king
module Validator = Repro_consensus.Validator
module Fingerprint = Repro_crypto.Fingerprint

(* {2 In-memory io shims}

   The exact partial-read / short-write behaviour a kernel socket can
   exhibit, made deterministic: reads and writes move at most [chunk]
   bytes per call. *)

let mem_writer ~chunk =
  let buf = Buffer.create 64 in
  ( buf,
    {
      Frame.read = (fun _ _ _ -> failwith "write-only io");
      write =
        (fun b pos len ->
          let k = min chunk len in
          Buffer.add_subbytes buf b pos k;
          k);
    } )

let mem_reader ~chunk data =
  let pos = ref 0 in
  {
    Frame.read =
      (fun b dst len ->
        let k = min chunk (min len (String.length data - !pos)) in
        Bytes.blit_string data !pos b dst k;
        pos := !pos + k;
        k);
    write = (fun _ _ _ -> failwith "read-only io");
  }

let test_partial_io () =
  let payloads = [ ""; "x"; "hello, frames"; String.make 1000 '\x7f' ] in
  List.iter
    (fun chunk ->
      let buf, wio = mem_writer ~chunk in
      List.iter (fun p -> Frame.write_frame wio p) payloads;
      let rio = mem_reader ~chunk (Buffer.contents buf) in
      List.iter
        (fun p ->
          Alcotest.(check string)
            (Printf.sprintf "chunk %d roundtrip" chunk)
            p (Frame.read_frame rio))
        payloads;
      Alcotest.(check bool)
        "clean EOF at boundary" true
        (Frame.read_frame_opt rio = None))
    [ 1; 2; 3; 7; 4096 ]

let test_write_no_progress () =
  let stuck =
    {
      Frame.read = (fun _ _ _ -> 0);
      write = (fun _ _ _ -> 0);
    }
  in
  Alcotest.check_raises "stuck writer"
    (Frame.Protocol_error "write returned no progress") (fun () ->
      Frame.write_frame stuck "abc")

let test_oversized_prefix () =
  (* 4-byte header claiming a payload far above [max_frame]. *)
  let hdr = "\xff\xff\xff\xff" in
  let rio = mem_reader ~chunk:4096 hdr in
  (match Frame.read_frame rio with
  | _ -> Alcotest.fail "oversized prefix accepted"
  | exception Frame.Protocol_error _ -> ());
  (* A frame of exactly [max_frame] must still be readable in principle:
     the header alone parses (payload truncation is a separate error). *)
  let ok_hdr = "\x01\x00\x00\x00" (* 2^24 = max_frame *) in
  match Frame.read_frame (mem_reader ~chunk:4096 ok_hdr) with
  | _ -> Alcotest.fail "truncated payload accepted"
  | exception Frame.Protocol_error msg ->
      Alcotest.(check string) "payload eof" "eof inside frame" msg

let test_truncation () =
  (* EOF after a partial header. *)
  List.iter
    (fun partial ->
      match Frame.read_frame_opt (mem_reader ~chunk:1 partial) with
      | _ -> Alcotest.fail "truncated header accepted"
      | exception Frame.Protocol_error _ -> ())
    [ "\x00"; "\x00\x00"; "\x00\x00\x00" ];
  (* EOF inside the payload, at every cut point. *)
  let buf, wio = mem_writer ~chunk:4096 in
  Frame.write_frame wio "abcdef";
  let whole = Buffer.contents buf in
  for cut = 4 to String.length whole - 1 do
    match Frame.read_frame (mem_reader ~chunk:1 (String.sub whole 0 cut)) with
    | _ -> Alcotest.fail "truncated payload accepted"
    | exception Frame.Protocol_error _ -> ()
  done

(* {2 Framed codec round-trips}

   writer -> socketpair -> reader, for every message constructor of
   every protocol: the embedded [Codec.add_msg]/[read_msg] must carry
   the exact [encode] bytes and bit length, and the decoded message must
   re-encode identically (value equality via the codec, which avoids
   comparing abstract payload types structurally). *)

let roundtrip_framed (type a) (module M : Repro_net.Network_intf.WIRE_MSG
                       with type t = a) name (samples : a list) =
  let a_fd, b_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let wio = Frame.io_of_fd a_fd and rio = Frame.io_of_fd b_fd in
  let w = Wire.Writer.create () in
  List.iter (fun m -> SN.Codec.add_msg w (M.encode m)) samples;
  Frame.write_frame wio (Wire.Writer.contents w);
  let r = Wire.Reader.of_string (Frame.read_frame rio) in
  List.iteri
    (fun i m ->
      let bytes, bits = SN.Codec.read_msg r in
      let e_bytes, e_bits = M.encode m in
      Alcotest.(check int)
        (Printf.sprintf "%s[%d] bits" name i)
        e_bits bits;
      Alcotest.(check string)
        (Printf.sprintf "%s[%d] bytes" name i)
        e_bytes bytes;
      Alcotest.(check int)
        (Printf.sprintf "%s[%d] bits = Msg.bits" name i)
        (M.bits m) bits;
      match M.decode bytes with
      | None -> Alcotest.fail (Printf.sprintf "%s[%d] undecodable" name i)
      | Some m' ->
          let r_bytes, r_bits = M.encode m' in
          Alcotest.(check string)
            (Printf.sprintf "%s[%d] re-encode bytes" name i)
            e_bytes r_bytes;
          Alcotest.(check int)
            (Printf.sprintf "%s[%d] re-encode bits" name i)
            e_bits r_bits)
    samples;
  Unix.close a_fd;
  Unix.close b_fd

let test_codec_roundtrips () =
  let iv = Repro_util.Interval.make 3 10 in
  roundtrip_framed
    (module CR.Msg)
    "crash"
    [
      CR.Msg.Notify;
      CR.Msg.Status { id = 71; iv; d = 2; p = 1 };
      CR.Msg.Response { iv; d = 11; p = 0 };
    ];
  (* halving shares [CR.Msg]; flooding's set message exercises the
     delta-gamma list codec *)
  roundtrip_framed
    (module FL.Msg)
    "flooding"
    [ FL.Msg.Known []; FL.Msg.Known [ 1 ]; FL.Msg.Known [ 2; 71; 4096 ] ];
  let fp =
    Fingerprint.of_segment
      (Fingerprint.key_of_seed 42)
      (Repro_util.Bitvec.create 64)
      (Repro_util.Interval.make 1 64)
  in
  roundtrip_framed
    (module BZ.Msg)
    "byz"
    [
      BZ.Msg.Elect;
      BZ.Msg.Announce;
      BZ.Msg.Pk (Phase_king.Vote true);
      BZ.Msg.Pk (Phase_king.Propose false);
      BZ.Msg.Pk (Phase_king.King true);
      BZ.Msg.Vld (Validator.Input (fp, 17));
      BZ.Msg.Vld (Validator.Lock None);
      BZ.Msg.Vld (Validator.Lock (Some (fp, 3)));
      BZ.Msg.VldRaw (Validator.Input ("\x01\x02", 2));
      BZ.Msg.VldRaw (Validator.Lock (Some ("\xff", 8)));
      BZ.Msg.Diff true;
      BZ.Msg.New None;
      BZ.Msg.New (Some 12);
    ]

(* {2 Frame writers}

   [Frame.write_writer] sends a [Frame.writer]'s own buffer: the bytes on
   the wire must equal [write_frame] of the same payload, through short
   writes too. *)

let test_write_writer () =
  let fill w =
    for v = 0 to 299 do
      Wire.Writer.add_gamma w (v * 37)
    done
  in
  let plain = Wire.Writer.create () in
  fill plain;
  let payload = Wire.Writer.contents plain in
  List.iter
    (fun chunk ->
      let expect, eio = mem_writer ~chunk:4096 in
      Frame.write_frame eio payload;
      let got, gio = mem_writer ~chunk in
      let w = Frame.writer () in
      fill w;
      Frame.write_writer gio w;
      Alcotest.(check string)
        (Printf.sprintf "chunk %d: same bytes as write_frame" chunk)
        (Buffer.contents expect) (Buffer.contents got);
      let rio = mem_reader ~chunk (Buffer.contents got) in
      Alcotest.(check string)
        (Printf.sprintf "chunk %d roundtrip" chunk)
        payload (Frame.read_frame rio))
    [ 1; 2; 3; 7; 4096 ];
  let empty, eio = mem_writer ~chunk:1 in
  Frame.write_writer eio (Frame.writer ());
  Alcotest.(check string) "empty payload" "\000\000\000\000"
    (Buffer.contents empty);
  Alcotest.check_raises "not a frame writer"
    (Invalid_argument "Frame.write_writer: not a frame writer") (fun () ->
      Frame.write_writer eio (Wire.Writer.create ()))

(* One writer per connection, reset between frames: across a long, a
   short and an empty payload the bytes on the wire equal those of a
   fresh [Frame.writer] — the header patched by the previous send and
   the tail of the longer payload must not leak into the next frame. *)
let test_reset_writer () =
  let payloads =
    [
      ( "long",
        fun w ->
          for v = 0 to 299 do
            Wire.Writer.add_gamma w (v * 37)
          done );
      ("short", fun w -> Wire.Writer.add_gamma w 5);
      ("empty", fun _ -> ());
      ("short again", fun w -> Wire.Writer.add_fixed w 1 ~width:1);
    ]
  in
  let reused = Frame.writer () in
  List.iteri
    (fun k (name, fill) ->
      if k > 0 then Frame.reset_writer reused;
      fill reused;
      let got, gio = mem_writer ~chunk:3 in
      Frame.write_writer gio reused;
      let fresh = Frame.writer () in
      fill fresh;
      let expect, eio = mem_writer ~chunk:4096 in
      Frame.write_writer eio fresh;
      Alcotest.(check string) (name ^ ": same bytes as a fresh writer")
        (Buffer.contents expect) (Buffer.contents got))
    payloads

(* {2 Malformed round frames}

   Hand-built frames in the round layout (see socket_net.ml), fed to a
   real host runtime and a real coordinator. A host must raise
   [Frame.Protocol_error]; a coordinator must turn the sending host's
   nodes into crashes and return normally. The peer's side is written
   into the socket before the other side runs, so nothing here needs a
   second thread or process. *)

module Ping = struct
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

module PH = SN.Host (Ping)

let frame_of build =
  let w = Wire.Writer.create () in
  build w;
  Wire.Writer.contents w

let gamma = Wire.Writer.add_gamma
let payload w m = SN.Codec.add_msg w (Ping.encode m)
let ids3 = [| 10; 20; 30 |]

(* What [serve] sends a single host running [ids3]. *)
let config3 =
  frame_of (fun w ->
      gamma w SN.magic;
      gamma w (Array.length ids3);
      gamma w 1;
      gamma w 0;
      Array.iter (gamma w) ids3;
      SN.Codec.add_bytes w "")

(* Round 0's reply when every node broadcast [Ping (1 + slot)]: a
   three-entry table and every inbox listing all three entries. *)
let good_reply ?(index = fun j -> j) () =
  frame_of (fun w ->
      gamma w 0;
      gamma w 0;
      gamma w 3;
      for s = 0 to 2 do
        gamma w s;
        payload w (Ping.Ping (1 + s))
      done;
      for _ = 0 to 2 do
        gamma w 3;
        for j = 0 to 2 do
          gamma w (index j)
        done
      done)

(* Runs a host over [ids3] whose nodes broadcast once and decide, against
   a coordinator that sends the config and then [reply]. With a
   well-formed reply the host gets as far as reading round 1's reply and
   meets the end of the stream. Every node checks that its inbox is
   [good_reply]'s, holding the very values the first node received: each
   table payload is decoded once and shared. *)
let host_against reply =
  let coord, host = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let io = Frame.io_of_fd coord in
  Frame.write_frame io config3;
  Frame.write_frame io reply;
  Unix.shutdown coord Unix.SHUTDOWN_SEND;
  let seen = ref [] in
  let program ~extra:_ ctx =
    let inbox = PH.broadcast ctx (Ping.Ping (PH.my_id ctx / 10)) in
    let got = PH.Inbox.pairs inbox in
    if got <> [ (10, Ping.Ping 1); (20, Ping.Ping 2); (30, Ping.Ping 3) ] then
      failwith "wrong inbox";
    (match !seen with
    | [] -> seen := got
    | first ->
        if not (List.for_all2 (fun (_, a) (_, b) -> a == b) first got) then
          failwith "payloads decoded twice");
    PH.my_id ctx
  in
  let outcome =
    match PH.run ~fd:host ~host_index:0 ~program with
    | () -> Ok ()
    | exception Frame.Protocol_error msg -> Error msg
    | exception e ->
        Alcotest.failf "host raised %s, not Frame.Protocol_error"
          (Printexc.to_string e)
  in
  Unix.close coord;
  Unix.close host;
  outcome

let eof = "eof at frame boundary"

let expect_host_rejects name reply =
  match host_against reply with
  | Error msg when msg <> eof -> ()
  | Error _ -> Alcotest.failf "%s: host accepted the reply" name
  | Ok () -> Alcotest.failf "%s: host finished" name

let test_host_rejects_malformed () =
  (match host_against (good_reply ()) with
  | Error msg -> Alcotest.(check string) "well-formed reply accepted" eof msg
  | Ok () -> Alcotest.fail "host finished without round 1's reply");
  expect_host_rejects "index outside the table"
    (good_reply ~index:(fun j -> if j = 2 then 3 else j) ());
  expect_host_rejects "table count beyond the frame"
    (frame_of (fun w ->
         gamma w 0;
         gamma w 0;
         gamma w 1_000_000));
  expect_host_rejects "inbox count beyond the frame"
    (frame_of (fun w ->
         gamma w 0;
         gamma w 0;
         gamma w 0;
         gamma w 1_000_000));
  expect_host_rejects "table source slot out of range"
    (frame_of (fun w ->
         gamma w 0;
         gamma w 0;
         gamma w 1;
         gamma w 3;
         payload w (Ping.Ping 1)));
  expect_host_rejects "undecodable payload"
    (frame_of (fun w ->
         gamma w 0;
         gamma w 0;
         gamma w 1;
         gamma w 0;
         SN.Codec.add_msg w ("\000", 8)));
  let whole = good_reply () in
  for cut = 0 to String.length whole - 1 do
    expect_host_rejects
      (Printf.sprintf "reply cut at %d bytes" cut)
      (String.sub whole 0 cut)
  done

(* Serves [ids3] to one host that sends a correct hello, then [frame] as
   its round-0 frame, then closes: a frame the coordinator accepts
   crashes the nodes at round 1 (the end of the stream), one it rejects
   at round 0. *)
let coord_against frame =
  let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen 1;
  let host = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect host (Unix.getsockname listen);
  let io = Frame.io_of_fd host in
  Frame.write_frame io
    (frame_of (fun w ->
         gamma w SN.magic;
         gamma w 0));
  Frame.write_frame io frame;
  Unix.shutdown host Unix.SHUTDOWN_SEND;
  let config = { SN.ids = ids3; seed = 0; n_hosts = 1; extra = "" } in
  let res = SN.serve ~listen ~config ~max_rounds:5 () in
  Unix.close host;
  Unix.close listen;
  List.map
    (fun (_, o) ->
      match o with
      | Repro_sim.Engine.Crashed r -> r
      | _ -> Alcotest.fail "a node did not crash")
    res.SN.run.Repro_sim.Engine.outcomes

(* Round 0 from the host of [ids3]: slot 0 sends one group to slots 0
   and 2, slot 1 broadcasts, slot 2 sends two groups. *)
let good_upstream
    ?(group =
      fun w ->
        payload w (Ping.Ping 4);
        gamma w 2;
        gamma w 0;
        gamma w 2) () =
  frame_of (fun w ->
      gamma w 0;
      gamma w 2;
      gamma w 1;
      group w;
      gamma w 3;
      payload w (Ping.Ping 5);
      gamma w 2;
      gamma w 2;
      payload w (Ping.Ping 6);
      gamma w 1;
      gamma w 1;
      payload w (Ping.Ping 7);
      gamma w 1;
      gamma w 0)

let expect_coord_rejects name frame =
  Alcotest.(check (list int)) name [ 0; 0; 0 ] (coord_against frame)

let test_coord_rejects_malformed () =
  Alcotest.(check (list int))
    "well-formed frame accepted" [ 1; 1; 1 ]
    (coord_against (good_upstream ()));
  expect_coord_rejects "destination slot >= n"
    (good_upstream
       ~group:(fun w ->
         payload w (Ping.Ping 4);
         gamma w 1;
         gamma w 3)
       ());
  expect_coord_rejects "empty destination list"
    (good_upstream
       ~group:(fun w ->
         payload w (Ping.Ping 4);
         gamma w 0)
       ());
  expect_coord_rejects "destination count beyond the frame"
    (good_upstream
       ~group:(fun w ->
         payload w (Ping.Ping 4);
         gamma w 1_000_000)
       ());
  expect_coord_rejects "group count beyond the frame"
    (frame_of (fun w ->
         gamma w 0;
         gamma w 2;
         gamma w 1_000_000));
  expect_coord_rejects "payload beyond the frame"
    (frame_of (fun w ->
         gamma w 0;
         gamma w 3;
         gamma w 1_000_000));
  let whole = good_upstream () in
  for cut = 0 to String.length whole - 1 do
    expect_coord_rejects
      (Printf.sprintf "frame cut at %d bytes" cut)
      (String.sub whole 0 cut)
  done

let suite =
  ( "socket_net",
    [
      Alcotest.test_case "frame partial reads / short writes" `Quick
        test_partial_io;
      Alcotest.test_case "frame write without progress" `Quick
        test_write_no_progress;
      Alcotest.test_case "oversized length prefix rejected" `Quick
        test_oversized_prefix;
      Alcotest.test_case "truncated header / payload rejected" `Quick
        test_truncation;
      Alcotest.test_case "framed codec round-trips, all protocols" `Quick
        test_codec_roundtrips;
      Alcotest.test_case "frame writer: short writes, no copy" `Quick
        test_write_writer;
      Alcotest.test_case "frame writer reset = fresh writer" `Quick
        test_reset_writer;
      Alcotest.test_case "host rejects malformed replies" `Quick
        test_host_rejects_malformed;
      Alcotest.test_case "coordinator crashes a malformed host" `Quick
        test_coord_rejects_malformed;
    ] )
