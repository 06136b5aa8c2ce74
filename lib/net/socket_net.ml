module Wire = Repro_sim.Wire
module Metrics = Repro_sim.Metrics
module Rng = Repro_util.Rng

(* Stream format version + endpoint check, first field of both handshake
   frames; bump when the frame layout changes. *)
let magic = 0x524e32

let proto_error fmt =
  Printf.ksprintf (fun s -> raise (Frame.Protocol_error s)) fmt

module Codec = struct
  (* A counted bit string, bounds-checked against the frame before the
     slice is allocated. *)
  let read_slice r bits =
    if bits > Wire.Reader.bits_remaining r then
      proto_error "embedded string of %d bits overruns the frame" bits;
    Wire.Reader.read_slice r ~len:bits

  let add_bytes w s =
    Wire.Writer.add_gamma w (String.length s);
    Wire.Writer.add_bits_of_string w s ~pos:0 ~len:(8 * String.length s)

  let read_bytes r =
    let len = Wire.Reader.read_gamma r in
    if len > Frame.max_frame then
      proto_error "embedded byte string of %d bytes exceeds frame cap" len;
    read_slice r (8 * len)

  (* Only the [bits] significant bits cross the wire; the reader
     restores the zero padding. *)
  let add_msg w (bytes, bits) =
    if String.length bytes <> (bits + 7) / 8 then
      invalid_arg "Socket_net.Codec.add_msg: bytes/bits mismatch";
    Wire.Writer.add_gamma w bits;
    Wire.Writer.add_bits_of_string w bytes ~pos:0 ~len:bits

  let read_msg r =
    let bits = Wire.Reader.read_gamma r in
    (read_slice r bits, bits)
end

(* Count fields precede variable-size repetitions; each counted entry
   costs at least two bits of stream, so a count beyond the remaining
   bits is malformed — reject it before allocating for it. *)
let read_count r =
  let c = Wire.Reader.read_gamma r in
  if c > Wire.Reader.bits_remaining r then
    proto_error "count %d exceeds remaining frame bits" c;
  c

type config = { ids : int array; seed : int; n_hosts : int; extra : string }

type link_stats = {
  link_msgs : int array array;
  link_bits : int array array;
}

type result = {
  run : int Repro_sim.Engine.run_result;
  rounds : int;
  links : link_stats;
}

(* {2 Round frames}

   Every field is an Elias-gamma integer ([Wire]). A payload is an
   encoded message: its bit length, then exactly that many bits.

   Host to coordinator, one frame per host per round: the round number,
   then one record per owned slot, in slot order —
   - [0]: idle (the slot decided earlier, or crashed);
   - [1 v]: the slot decided [v];
   - [2 G (payload k dst^k)^G]: [G] groups, each one payload and its
     [k >= 1] destination slots;
   - [3 payload]: broadcast to every slot.
   A group is a run of physically-equal consecutive outbox messages:
   a multisend is one group, and a sized exchange starts a new group
   only where the message changes.

   Coordinator to host, one frame per host per round: the round number
   and a stop flag; unless stopping, then
   - [T (src payload)^T]: the payload table, every (sender slot,
     payload) group delivered to at least one of the host's slots;
   - per owned slot, [c idx^c]: its inbox as indices into the table, in
     delivery order.
   So a payload crosses the wire to a host, and is decoded there, once
   per round however many of the host's slots receive it. Billing is
   per (sender, recipient) link regardless. *)

(* {2 Coordinator} *)

module Vec = Repro_util.Arena.Vec

type slot_status = S_running | S_decided of int | S_crashed of int

let ignore_sigpipe () =
  (* A peer dying between our read and write must surface as [EPIPE]
     on the write, not kill the process. No-op on systems without
     sigpipe. *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Unix.Unix_error _ -> ()

let serve ~listen ~config ?(latency_s = 0.) ?(jitter_s = 0.) ?overlay_fanout
    ?(max_rounds = 100_000) ?on_message () =
  ignore_sigpipe ();
  let { ids; seed; n_hosts; extra } = config in
  let n = Array.length ids in
  if n = 0 then invalid_arg "Socket_net.serve: empty ids";
  if seed < 0 then invalid_arg "Socket_net.serve: negative seed";
  if n_hosts < 1 || n_hosts > n then invalid_arg "Socket_net.serve: n_hosts";
  let ranges =
    Array.init n_hosts (fun k -> Repro_util.Shard.range ~n ~shards:n_hosts k)
  in
  (* Accept + handshake: each host frames its index; ship the config. *)
  let pending : (Unix.file_descr * Frame.io) option array =
    Array.make n_hosts None
  in
  for _ = 1 to n_hosts do
    let fd, _addr = Unix.accept listen in
    let io = Frame.io_of_fd fd in
    let r = Wire.Reader.of_string (Frame.read_frame io) in
    if Wire.Reader.read_gamma r <> magic then
      proto_error "hello: bad magic (mismatched peer?)";
    let h = Wire.Reader.read_gamma r in
    if h >= n_hosts then proto_error "hello: host index %d out of range" h;
    if Option.is_some pending.(h) then
      proto_error "hello: duplicate host index %d" h;
    pending.(h) <- Some (fd, io)
  done;
  let fds = Array.map (fun p -> fst (Option.get p)) pending in
  let ios = Array.map (fun p -> snd (Option.get p)) pending in
  let cfg_frame =
    let w = Wire.Writer.create () in
    Wire.Writer.add_gamma w magic;
    Wire.Writer.add_gamma w n;
    Wire.Writer.add_gamma w n_hosts;
    Wire.Writer.add_gamma w seed;
    Array.iter (fun id -> Wire.Writer.add_gamma w id) ids;
    Codec.add_bytes w extra;
    Wire.Writer.contents w
  in
  Array.iter (fun io -> Frame.write_frame io cfg_frame) ios;
  (* Run state. *)
  let status = Array.make n S_running in
  let alive = Array.make n_hosts true in
  let metrics = Metrics.create () in
  let link_msgs = Array.init n (fun _ -> Array.make n 0) in
  let link_bits = Array.init n (fun _ -> Array.make n 0) in
  let current_round = ref 0 in
  (* Delivery iterates senders in ascending identity order, like the
     engine, so every recipient's inbox arrives sorted by source id. *)
  let order = Array.init n (fun s -> s) in
  Array.sort (fun a b -> Int.compare ids.(a) ids.(b)) order;
  (* Coordinator-private stream for the jitter/overlay knobs, derived
     away from the node streams (which split off [of_seed seed]). *)
  let knob_rng = Rng.of_seed (seed lxor 0x6e6574) in
  (* Round state, reused every round. The payloads stay where they
     arrived: group [g] is the [g_bits.(g)]-bit slice at bit [g_off.(g)]
     of [frames.(g_host.(g))], sent by slot [g_src.(g)]. [g_dst.(g)] is
     the index in [dsts] of its destination count, followed by the
     destination slots, or -1 for a broadcast. Slot [s] sent the groups
     [slot_g0.(s)] to [slot_g1.(s) - 1]. *)
  let frames = Array.make n_hosts "" in
  let g_src = Vec.create ~dummy:0 and g_host = Vec.create ~dummy:0 in
  let g_off = Vec.create ~dummy:0 and g_bits = Vec.create ~dummy:0 in
  let g_dst = Vec.create ~dummy:0 and dsts = Vec.create ~dummy:0 in
  let slot_g0 = Array.make n 0 and slot_g1 = Array.make n 0 in
  (* Deliveries, counting-sorted by recipient: slot [d]'s inbox is the
     groups [inbox.(first.(d))] to [inbox.(first.(d + 1) - 1)]. *)
  let live = Array.make n true in
  let first = Array.make (n + 1) 0 and fill = Array.make n 0 in
  let inbox = ref [||] in
  (* Reply tables: [tab] lists a host's table in index order and
     [tab_idx.(g)] is group [g]'s index in it (-1 when absent). *)
  let tab = Vec.create ~dummy:0 in
  let tab_idx = ref [||] in
  let bill src dst bits =
    link_msgs.(src).(dst) <- link_msgs.(src).(dst) + 1;
    link_bits.(src).(dst) <- link_bits.(src).(dst) + bits;
    Metrics.add_honest metrics ~bits;
    match on_message with Some f -> f ~src ~dst ~bits | None -> ()
  in
  let kill_host h =
    alive.(h) <- false;
    (try Unix.close fds.(h) with Unix.Unix_error _ -> ());
    let lo, hi = ranges.(h) in
    for s = lo to hi - 1 do
      slot_g1.(s) <- slot_g0.(s);
      match status.(s) with
      | S_running ->
          status.(s) <- S_crashed !current_round;
          Metrics.record_crash metrics
      | S_decided _ | S_crashed _ -> ()
    done
  in
  let add_group h s r ~broadcast =
    let bits = Wire.Reader.read_gamma r in
    if bits > Wire.Reader.bits_remaining r then
      proto_error "host %d: slot %d payload of %d bits overruns the frame" h s
        bits;
    Vec.push g_src s;
    Vec.push g_host h;
    Vec.push g_off (Wire.Reader.position r);
    Vec.push g_bits bits;
    Wire.Reader.skip r bits;
    if broadcast then Vec.push g_dst (-1)
    else begin
      let k = read_count r in
      if k = 0 then proto_error "host %d: slot %d group has no destination" h s;
      Vec.push g_dst (Vec.length dsts);
      Vec.push dsts k;
      for _ = 1 to k do
        let dst = Wire.Reader.read_gamma r in
        if dst >= n then proto_error "host %d: destination slot %d" h dst;
        Vec.push dsts dst
      done
    end
  in
  let parse_host_frame h payload =
    let lo, hi = ranges.(h) in
    frames.(h) <- payload;
    let r = Wire.Reader.of_string payload in
    let round = Wire.Reader.read_gamma r in
    if round <> !current_round then
      proto_error "host %d is at round %d, coordinator at %d" h round
        !current_round;
    for s = lo to hi - 1 do
      slot_g0.(s) <- Vec.length g_src;
      (match Wire.Reader.read_gamma r with
      | 0 -> (
          match status.(s) with
          | S_running -> proto_error "host %d: running slot %d sent no outbox" h s
          | S_decided _ | S_crashed _ -> ())
      | 1 -> (
          let v = Wire.Reader.read_gamma r in
          match status.(s) with
          | S_running -> status.(s) <- S_decided v
          | S_decided _ | S_crashed _ ->
              proto_error "host %d: decision for non-running slot %d" h s)
      | 2 ->
          for _ = 1 to read_count r do
            add_group h s r ~broadcast:false
          done
      | 3 -> add_group h s r ~broadcast:true
      | t -> proto_error "host %d: unknown outbox tag %d" h t);
      slot_g1.(s) <- Vec.length g_src
    done
  in
  (* Broadcast billing under the sparse-overlay knob: a deterministic
     epidemic from the sender, every informed node pushing to [fanout]
     rng-chosen peers per hop until everyone is informed. Redundant
     transmissions are billed (that is the cost model being studied);
     delivery itself stays complete and is handled by the caller. The
     forced push keeps termination unconditional even for fanout 1. *)
  let gossip_bill src bits fanout =
    let informed = Array.make n false in
    informed.(src) <- true;
    let count = ref 1 in
    let frontier = ref [ src ] in
    while !count < n do
      let next = ref [] in
      List.iter
        (fun relay ->
          for _ = 1 to fanout do
            let t = Rng.int knob_rng n in
            bill relay t bits;
            if not informed.(t) then begin
              informed.(t) <- true;
              incr count;
              next := t :: !next
            end
          done)
        !frontier;
      (match !next with
      | [] when !count < n ->
          let u = ref (-1) in
          for d = n - 1 downto 0 do
            if not informed.(d) then u := d
          done;
          bill src !u bits;
          informed.(!u) <- true;
          incr count;
          next := [ !u ]
      | _ -> ());
      frontier := List.rev !next
    done
  in
  (* Two passes over the groups in ascending sender identity. The first
     bills every link — like the engine, a broadcast bills all n links,
     self and finished recipients included — and counts each live
     recipient's deliveries; the second places them. *)
  let route () =
    for d = 0 to n - 1 do
      live.(d) <- (match status.(d) with S_running -> true | _ -> false)
    done;
    let g_bits = Vec.data g_bits and g_dst = Vec.data g_dst in
    let dsts = Vec.data dsts in
    Array.fill first 0 (n + 1) 0;
    Array.iter
      (fun s ->
        for g = slot_g0.(s) to slot_g1.(s) - 1 do
          let bits = g_bits.(g) and at = g_dst.(g) in
          if at < 0 then begin
            (match overlay_fanout with
            | None ->
                for d = 0 to n - 1 do
                  bill s d bits
                done
            | Some k -> gossip_bill s bits k);
            for d = 0 to n - 1 do
              if live.(d) then first.(d + 1) <- first.(d + 1) + 1
            done
          end
          else
            for i = at + 1 to at + dsts.(at) do
              let d = dsts.(i) in
              bill s d bits;
              if live.(d) then first.(d + 1) <- first.(d + 1) + 1
            done
        done)
      order;
    for d = 1 to n do
      first.(d) <- first.(d) + first.(d - 1)
    done;
    if Array.length !inbox < first.(n) then
      inbox := Array.make (max first.(n) (2 * Array.length !inbox)) 0;
    let inbox = !inbox in
    Array.blit first 0 fill 0 n;
    let put d g =
      if live.(d) then begin
        inbox.(fill.(d)) <- g;
        fill.(d) <- fill.(d) + 1
      end
    in
    Array.iter
      (fun s ->
        for g = slot_g0.(s) to slot_g1.(s) - 1 do
          let at = g_dst.(g) in
          if at < 0 then
            for d = 0 to n - 1 do
              put d g
            done
          else
            for i = at + 1 to at + dsts.(at) do
              put dsts.(i) g
            done
        done)
      order;
    let groups = Vec.length g_src in
    if Array.length !tab_idx < groups then
      tab_idx := Array.make (max groups (2 * Array.length !tab_idx)) (-1)
  in
  (* One reply writer per host, its buffer kept across rounds. *)
  let reply_writers = Array.init n_hosts (fun _ -> Frame.writer ()) in
  let reply_frame h ~stop =
    let w = reply_writers.(h) in
    Frame.reset_writer w;
    Wire.Writer.add_gamma w !current_round;
    Wire.Writer.add_gamma w (if stop then 1 else 0);
    if not stop then begin
      let lo, hi = ranges.(h) in
      let inbox = !inbox and tab_idx = !tab_idx in
      Vec.clear tab;
      for i = first.(lo) to first.(hi) - 1 do
        let g = inbox.(i) in
        if tab_idx.(g) < 0 then begin
          tab_idx.(g) <- Vec.length tab;
          Vec.push tab g
        end
      done;
      let entries = Vec.length tab and tab = Vec.data tab in
      let g_src = Vec.data g_src and g_host = Vec.data g_host in
      let g_off = Vec.data g_off and g_bits = Vec.data g_bits in
      Wire.Writer.add_gamma w entries;
      for j = 0 to entries - 1 do
        let g = tab.(j) in
        Wire.Writer.add_gamma w g_src.(g);
        Wire.Writer.add_gamma w g_bits.(g);
        Wire.Writer.add_bits_of_string w frames.(g_host.(g)) ~pos:g_off.(g)
          ~len:g_bits.(g)
      done;
      for s = lo to hi - 1 do
        Wire.Writer.add_gamma w (first.(s + 1) - first.(s));
        for i = first.(s) to first.(s + 1) - 1 do
          Wire.Writer.add_gamma w tab_idx.(inbox.(i))
        done
      done;
      for j = 0 to entries - 1 do
        tab_idx.(tab.(j)) <- -1
      done
    end;
    w
  in
  let send_replies ~stop =
    for h = 0 to n_hosts - 1 do
      if alive.(h) then
        try Frame.write_writer ios.(h) (reply_frame h ~stop)
        with Unix.Unix_error _ | Frame.Protocol_error _ -> kill_host h
    done
  in
  let any_running () =
    Array.exists (function S_running -> true | _ -> false) status
  in
  let rec loop () =
    if !current_round >= max_rounds then ()
    else begin
      List.iter Vec.clear [ g_src; g_host; g_off; g_bits; g_dst; dsts ];
      Array.fill slot_g0 0 n 0;
      Array.fill slot_g1 0 n 0;
      for h = 0 to n_hosts - 1 do
        if alive.(h) then
          match Frame.read_frame ios.(h) with
          | payload -> (
              try parse_host_frame h payload
              with Frame.Protocol_error _ | Invalid_argument _ -> kill_host h)
          | exception (Frame.Protocol_error _ | Unix.Unix_error _) ->
              kill_host h
      done;
      if any_running () then begin
        route ();
        Metrics.end_round metrics;
        if latency_s > 0. || jitter_s > 0. then begin
          let pause =
            latency_s
            +. (if jitter_s > 0. then jitter_s *. Rng.float knob_rng else 0.)
          in
          if pause > 0. then Unix.sleepf pause
        end;
        send_replies ~stop:false;
        Array.fill frames 0 n_hosts "";
        incr current_round;
        loop ()
      end
    end
  in
  loop ();
  send_replies ~stop:true;
  Array.iteri
    (fun h fd ->
      if alive.(h) then try Unix.close fd with Unix.Unix_error _ -> ())
    fds;
  let outcomes =
    Array.to_list
      (Array.mapi
         (fun s st ->
           ( ids.(s),
             match st with
             | S_decided v -> Repro_sim.Engine.Decided v
             | S_crashed r -> Repro_sim.Engine.Crashed r
             | S_running -> Repro_sim.Engine.Unfinished ))
         status)
  in
  {
    run = { Repro_sim.Engine.outcomes; metrics };
    rounds = !current_round;
    links = { link_msgs; link_bits };
  }

(* {2 Host} *)

module Host (M : Network_intf.WIRE_MSG) = struct
  type msg = M.t

  type inbox = { ib_src : int array; ib_msg : M.t array; ib_len : int }

  module Inbox = struct
    type t = inbox

    let length t = t.ib_len

    let iter t ~f =
      for i = 0 to t.ib_len - 1 do
        f ~src:t.ib_src.(i) t.ib_msg.(i)
      done

    let fold t ~init ~f =
      let acc = ref init in
      for i = 0 to t.ib_len - 1 do
        acc := f !acc ~src:t.ib_src.(i) t.ib_msg.(i)
      done;
      !acc

    let fold_rev t ~init ~f =
      let acc = ref init in
      for i = t.ib_len - 1 downto 0 do
        acc := f !acc ~src:t.ib_src.(i) t.ib_msg.(i)
      done;
      !acc

    let pairs t =
      fold_rev t ~init:[] ~f:(fun acc ~src msg -> (src, msg) :: acc)

    let of_pairs_unchecked ~dst:_ pairs =
      match pairs with
      | [] -> { ib_src = [||]; ib_msg = [||]; ib_len = 0 }
      | (_, m0) :: _ ->
          let len = List.length pairs in
          let ib_src = Array.make len 0 in
          let ib_msg = Array.make len m0 in
          List.iteri
            (fun i (src, m) ->
              ib_src.(i) <- src;
              ib_msg.(i) <- m)
            pairs;
          { ib_src; ib_msg; ib_len = len }
  end

  type outbox =
    | Ob_list of (int * M.t) list
    | Ob_sized of { dsts : int array; msgs : M.t array; len : int }
    | Ob_bcast of M.t

  type ctx = {
    slot : int;
    ids : int array;
    id_to_slot : (int, int) Hashtbl.t;
    node_rng : Rng.t;
    current_round : int ref;
  }

  type _ Effect.t += Exchange : outbox -> inbox Effect.t

  let my_id ctx = ctx.ids.(ctx.slot)
  let n ctx = Array.length ctx.ids
  let all_ids ctx = ctx.ids
  let round ctx = !(ctx.current_round)
  let rng ctx = ctx.node_rng
  let exchange _ctx l = Effect.perform (Exchange (Ob_list l))

  let multisend _ctx ~dsts m =
    Effect.perform (Exchange (Ob_list (List.map (fun d -> (d, m)) dsts)))

  let broadcast _ctx m = Effect.perform (Exchange (Ob_bcast m))
  let skip_round _ctx = Effect.perform (Exchange (Ob_list []))

  let exchange_sized _ctx ~dsts ~msgs ~sizes:_ ~len =
    (* Sizes are recomputed from the exact codec at frame build; the
       [sizes.(k) = bits msgs.(k)] contract makes that the same bill.
       Holding the caller's arrays is safe: they are read before the
       continuation resumes, i.e. before this call returns. *)
    Effect.perform (Exchange (Ob_sized { dsts; msgs; len }))

  type step =
    | Done of int
    | Yield of outbox * (inbox, step) Effect.Deep.continuation

  let start_fiber program ctx : step =
    Effect.Deep.match_with
      (fun () -> Done (program ctx))
      ()
      {
        retc = Fun.id;
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Exchange outbox ->
                Some
                  (fun (k : (a, _) Effect.Deep.continuation) ->
                    Yield (outbox, k))
            | _ -> None);
      }

  let slot_of ctx_tbl dst =
    match Hashtbl.find ctx_tbl dst with
    | s -> s
    | exception Not_found ->
        invalid_arg
          (Printf.sprintf "Socket_net: destination %d is not a participant"
             dst)

  (* A message record: the [len] outbox entries [(dst k, msg k)] as
     groups, each run of physically-equal consecutive messages encoded
     once. *)
  let add_groups w ~id_to_slot ~len ~dst ~msg =
    let groups = ref 0 in
    for k = 0 to len - 1 do
      if k = 0 || msg k != msg (k - 1) then incr groups
    done;
    Wire.Writer.add_gamma w 2;
    Wire.Writer.add_gamma w !groups;
    let k = ref 0 in
    while !k < len do
      let m = msg !k in
      let stop = ref (!k + 1) in
      while !stop < len && msg !stop == m do
        incr stop
      done;
      Codec.add_msg w (M.encode m);
      Wire.Writer.add_gamma w (!stop - !k);
      for j = !k to !stop - 1 do
        Wire.Writer.add_gamma w (slot_of id_to_slot (dst j))
      done;
      k := !stop
    done

  let encode_outbox w ~id_to_slot = function
    | Ob_bcast m ->
        Wire.Writer.add_gamma w 3;
        Codec.add_msg w (M.encode m)
    | Ob_list l ->
        let a = Array.of_list l in
        add_groups w ~id_to_slot ~len:(Array.length a)
          ~dst:(fun k -> fst a.(k))
          ~msg:(fun k -> snd a.(k))
    | Ob_sized { dsts; msgs; len } ->
        add_groups w ~id_to_slot ~len ~dst:(Array.get dsts)
          ~msg:(Array.get msgs)

  let empty_inbox = { ib_src = [||]; ib_msg = [||]; ib_len = 0 }

  (* A reply's table and inboxes (the stop flag already read): every
     table payload is decoded once, and every inbox entry shares the
     decoded value. *)
  let read_inboxes r ~ids ~lo ~hi inboxes =
    let n = Array.length ids in
    let entries = read_count r in
    let entry () =
      let src = Wire.Reader.read_gamma r in
      if src >= n then proto_error "table source slot %d" src;
      let bytes, _bits = Codec.read_msg r in
      match M.decode bytes with
      | Some m -> (ids.(src), m)
      | None -> proto_error "undecodable payload from slot %d" src
    in
    let tab_src, tab_msg =
      if entries = 0 then ([||], [||])
      else begin
        let src0, m0 = entry () in
        let tab_src = Array.make entries src0 in
        let tab_msg = Array.make entries m0 in
        for j = 1 to entries - 1 do
          let src, m = entry () in
          tab_src.(j) <- src;
          tab_msg.(j) <- m
        done;
        (tab_src, tab_msg)
      end
    in
    let index () =
      let j = Wire.Reader.read_gamma r in
      if j >= entries then
        proto_error "payload index %d outside a %d-entry table" j entries;
      j
    in
    for s = lo to hi - 1 do
      let c = read_count r in
      inboxes.(s) <-
        (if c = 0 then empty_inbox
         else begin
           let j0 = index () in
           let ib_src = Array.make c tab_src.(j0) in
           let ib_msg = Array.make c tab_msg.(j0) in
           for i = 1 to c - 1 do
             let j = index () in
             ib_src.(i) <- tab_src.(j);
             ib_msg.(i) <- tab_msg.(j)
           done;
           { ib_src; ib_msg; ib_len = c }
         end)
    done

  (* Reading past the end of a frame raises [Invalid_argument] in
     [Wire]; on the host that is a malformed frame like any other. *)
  let parsing what f =
    try f () with Invalid_argument msg -> proto_error "%s: %s" what msg

  let run ~fd ~host_index ~program =
    ignore_sigpipe ();
    let io = Frame.io_of_fd fd in
    let hello =
      let w = Wire.Writer.create () in
      Wire.Writer.add_gamma w magic;
      Wire.Writer.add_gamma w host_index;
      Wire.Writer.contents w
    in
    Frame.write_frame io hello;
    let r = Wire.Reader.of_string (Frame.read_frame io) in
    let ids, n_hosts, seed, extra =
      parsing "config" (fun () ->
          if Wire.Reader.read_gamma r <> magic then
            proto_error "config: bad magic (mismatched peer?)";
          let n = Wire.Reader.read_gamma r in
          let n_hosts = Wire.Reader.read_gamma r in
          let seed = Wire.Reader.read_gamma r in
          (* n is wire-derived: cap it (Frame.max_frame is far above any
             real run) so a hostile coordinator cannot force an absurd
             allocation. *)
          if n = 0 || n > Frame.max_frame || n_hosts < 1 || host_index >= n_hosts
          then
            proto_error "config: n=%d n_hosts=%d host_index=%d" n n_hosts
              host_index;
          let ids = Array.make n 0 in
          for s = 0 to n - 1 do
            ids.(s) <- Wire.Reader.read_gamma r
          done;
          (ids, n_hosts, seed, Codec.read_bytes r))
    in
    let n = Array.length ids in
    let lo, hi = Repro_util.Shard.range ~n ~shards:n_hosts host_index in
    let id_to_slot = Hashtbl.create (2 * n) in
    Array.iteri
      (fun s id ->
        if Hashtbl.mem id_to_slot id then
          proto_error "config: duplicate identity %d" id;
        Hashtbl.add id_to_slot id s)
      ids;
    let current_round = ref 0 in
    let prog = program ~extra in
    (* Fibers hold their outbox + continuation; freshly decided results
       are reported in the next frame, then the slot goes idle. *)
    let states :
        (outbox * (inbox, step) Effect.Deep.continuation) option array =
      Array.make n None
    in
    let fresh : int option array = Array.make n None in
    let settle s = function
      | Done v -> fresh.(s) <- Some v
      | Yield (outbox, k) -> states.(s) <- Some (outbox, k)
    in
    (* Split the master stream once per slot in global slot order — the
       exact derivation the engine performs — keeping only our slice. *)
    let master = Rng.of_seed seed in
    for s = 0 to n - 1 do
      let node_rng = Rng.split master in
      if s >= lo && s < hi then
        let ctx = { slot = s; ids; id_to_slot; node_rng; current_round } in
        settle s (start_fiber prog ctx)
    done;
    let inboxes = Array.make n empty_inbox in
    let continue_running = ref true in
    let w = Frame.writer () in
    while !continue_running do
      Frame.reset_writer w;
      Wire.Writer.add_gamma w !current_round;
      for s = lo to hi - 1 do
        match (fresh.(s), states.(s)) with
        | Some v, _ ->
            Wire.Writer.add_gamma w 1;
            Wire.Writer.add_gamma w v;
            fresh.(s) <- None
        | None, None -> Wire.Writer.add_gamma w 0
        | None, Some (outbox, _) -> encode_outbox w ~id_to_slot outbox
      done;
      Frame.write_writer io w;
      let r = Wire.Reader.of_string (Frame.read_frame io) in
      let stop =
        parsing "reply" (fun () ->
            let round = Wire.Reader.read_gamma r in
            if round <> !current_round then
              proto_error "reply for round %d at round %d" round
                !current_round;
            let stop = Wire.Reader.read_gamma r = 1 in
            if not stop then read_inboxes r ~ids ~lo ~hi inboxes;
            stop)
      in
      if stop then continue_running := false
      else begin
        incr current_round;
        for s = lo to hi - 1 do
          match states.(s) with
          | Some (_, k) ->
              states.(s) <- None;
              settle s (Effect.Deep.continue k inboxes.(s));
              inboxes.(s) <- empty_inbox
          | None -> ()
        done
      end
    done
end
