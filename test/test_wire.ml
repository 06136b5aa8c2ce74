module W = Repro_sim.Wire

let test_bits_roundtrip () =
  let w = W.Writer.create () in
  List.iter (W.Writer.add_bit w) [ true; false; true; true; false ];
  Alcotest.(check int) "bit length" 5 (W.Writer.bit_length w);
  let r = W.Reader.of_string (W.Writer.contents w) in
  List.iter
    (fun expected ->
      Alcotest.(check bool) "bit value" expected (W.Reader.read_bit r))
    [ true; false; true; true; false ]

let test_fixed_roundtrip () =
  List.iter
    (fun (v, width) ->
      Alcotest.(check int)
        (Printf.sprintf "fixed %d/%d" v width)
        v
        (W.roundtrip_fixed v ~width))
    [ (0, 1); (1, 1); (5, 3); (255, 8); (256, 9); (12345, 20); (0, 0) ]

let test_fixed_rejects () =
  let w = W.Writer.create () in
  Alcotest.check_raises "value too large"
    (Invalid_argument "Wire.Writer.add_fixed: value does not fit") (fun () ->
      W.Writer.add_fixed w 8 ~width:3);
  Alcotest.check_raises "negative"
    (Invalid_argument "Wire.Writer.add_fixed: value does not fit") (fun () ->
      W.Writer.add_fixed w (-1) ~width:3)

let test_gamma_values () =
  Alcotest.(check int) "gamma_bits 0" 1 (W.gamma_bits 0);
  Alcotest.(check int) "gamma_bits 1" 3 (W.gamma_bits 1);
  Alcotest.(check int) "gamma_bits 2" 3 (W.gamma_bits 2);
  Alcotest.(check int) "gamma_bits 3" 5 (W.gamma_bits 3);
  Alcotest.(check int) "gamma_bits 6" 5 (W.gamma_bits 6);
  Alcotest.(check int) "gamma_bits 7" 7 (W.gamma_bits 7)

let test_out_of_bits () =
  let r = W.Reader.of_string "" in
  Alcotest.check_raises "empty input"
    (Invalid_argument "Wire.Reader: out of bits") (fun () ->
      ignore (W.Reader.read_bit r))

let qcheck_gamma_roundtrip =
  QCheck.Test.make ~name:"gamma roundtrip + exact cost" ~count:1000
    QCheck.(int_bound 1_000_000_000)
    (fun v ->
      let w = W.Writer.create () in
      W.Writer.add_gamma w v;
      let exact = W.Writer.bit_length w = W.gamma_bits v in
      let r = W.Reader.of_string (W.Writer.contents w) in
      W.Reader.read_gamma r = v && exact)

(* The bit-by-bit definition of a fixed-width field, as [add_fixed]
   wrote every width before the byte-aligned fast path existed. *)
let add_fixed_ref w v ~width =
  for i = width - 1 downto 0 do
    W.Writer.add_bit w ((v lsr i) land 1 = 1)
  done

let qcheck_fixed_differential =
  (* Differential test for the byte-aligned fast path: a random bit
     prefix puts the write at every possible bit offset, then the same
     field goes through [add_fixed] and the bit-by-bit reference; the
     byte streams must match exactly. *)
  let case =
    QCheck.Gen.(
      let* prefix = list_size (int_range 0 17) bool in
      let* width = int_range 0 61 in
      let* v = int_range 0 ((1 lsl width) - 1) in
      return (prefix, v, width))
  in
  QCheck.Test.make ~name:"add_fixed fast path = bit-by-bit reference"
    ~count:2000
    (QCheck.make
       ~print:(fun (prefix, v, width) ->
         Printf.sprintf "prefix=%d bits, v=%d, width=%d" (List.length prefix)
           v width)
       case)
    (fun (prefix, v, width) ->
      let fast = W.Writer.create () and slow = W.Writer.create () in
      List.iter (W.Writer.add_bit fast) prefix;
      List.iter (W.Writer.add_bit slow) prefix;
      W.Writer.add_fixed fast v ~width;
      add_fixed_ref slow v ~width;
      W.Writer.bit_length fast = W.Writer.bit_length slow
      && String.equal (W.Writer.contents fast) (W.Writer.contents slow))

let test_fixed_width62_boundary () =
  (* width = 62 skips the fit check (any non-negative int fits); the
     fast path must still roundtrip the extreme values. *)
  List.iter
    (fun v ->
      Alcotest.(check int)
        (Printf.sprintf "fixed %d/62" v)
        v
        (W.roundtrip_fixed v ~width:62))
    [ 0; 1; max_int - 1; max_int ]

(* The bit-by-bit definition of a fixed-width read, as [read_fixed]
   consumed every width before its byte-aligned fast path existed. *)
let read_fixed_ref r ~width =
  let v = ref 0 in
  for _ = 1 to width do
    v := (!v lsl 1) lor if W.Reader.read_bit r then 1 else 0
  done;
  !v

let qcheck_read_fixed_differential =
  (* Differential test for the reader's byte-aligned fast path: a random
     bit prefix puts the read at every possible bit offset, then the same
     field is consumed by [read_fixed] and by the bit-by-bit reference;
     both the value and the final reader position must match. *)
  let case =
    QCheck.Gen.(
      let* prefix = list_size (int_range 0 17) bool in
      let* width = int_range 0 61 in
      let* v = int_range 0 ((1 lsl width) - 1) in
      return (prefix, v, width))
  in
  QCheck.Test.make ~name:"read_fixed fast path = bit-by-bit reference"
    ~count:2000
    (QCheck.make
       ~print:(fun (prefix, v, width) ->
         Printf.sprintf "prefix=%d bits, v=%d, width=%d" (List.length prefix)
           v width)
       case)
    (fun (prefix, v, width) ->
      let w = W.Writer.create () in
      List.iter (W.Writer.add_bit w) prefix;
      W.Writer.add_fixed w v ~width;
      (* A trailing bit so the fast path's straddle reads stay exercised
         even when the field ends flush with the buffer. *)
      W.Writer.add_bit w true;
      let s = W.Writer.contents w in
      let fast = W.Reader.of_string s and slow = W.Reader.of_string s in
      List.iter (fun _ -> ignore (W.Reader.read_bit fast)) prefix;
      List.iter (fun _ -> ignore (W.Reader.read_bit slow)) prefix;
      let vf = W.Reader.read_fixed fast ~width in
      let vs = read_fixed_ref slow ~width in
      vf = v && vs = v
      && W.Reader.bits_remaining fast = W.Reader.bits_remaining slow
      && W.Reader.read_bit fast)

let test_read_fixed_truncated () =
  (* The fast path bounds-checks the whole field up front: a field that
     extends past the input must raise, never return garbage. *)
  List.iter
    (fun (data, width) ->
      let r = W.Reader.of_string data in
      Alcotest.check_raises
        (Printf.sprintf "width %d over %d bytes" width (String.length data))
        (Invalid_argument "Wire.Reader: out of bits")
        (fun () -> ignore (W.Reader.read_fixed r ~width)))
    [ ("", 8); ("\xff", 9); ("\xff\xff\xff", 62) ]

let test_gamma_k62_rejected () =
  (* Regression: the writer can never emit a 62-zero unary prefix
     ([add_gamma] caps k at floor_log2 max_int = 61), and accepting one
     would compute [(1 lsl 62) lor rest], which wraps negative on 63-bit
     ints. Hand-built streams with k = 62 must raise, never return. *)
  let k62 =
    (* 62 zero bits, the terminating 1, then 62 set bits of "payload" —
       enough input that the pre-fix reader reached the negative wrap
       instead of running out of bits. *)
    let b = Bytes.make 16 '\xff' in
    Bytes.fill b 0 7 '\x00';
    Bytes.set b 7 '\x02';
    Bytes.to_string b
  in
  List.iter
    (fun (name, data) ->
      let r = W.Reader.of_string data in
      Alcotest.check_raises name (Invalid_argument "Wire.Reader: gamma")
        (fun () -> ignore (W.Reader.read_gamma r)))
    [ ("k=62 with full payload", k62); ("all zeros", String.make 32 '\x00') ]

let test_gamma_k61_boundary () =
  (* The largest value the writer can emit (k = 61) must still read. *)
  let v = max_int - 1 in
  let w = W.Writer.create () in
  W.Writer.add_gamma w v;
  let r = W.Reader.of_string (W.Writer.contents w) in
  Alcotest.(check int) "max gamma" v (W.Reader.read_gamma r)

let test_gamma_truncated () =
  (* Truncation inside the unary prefix and inside the payload both
     raise cleanly (out of bits), never return a negative. *)
  let v = 1_000_000 in
  let w = W.Writer.create () in
  W.Writer.add_gamma w v;
  let full = W.Writer.contents w in
  for len = 0 to String.length full - 1 do
    let r = W.Reader.of_string (String.sub full 0 len) in
    match W.Reader.read_gamma r with
    | got ->
        Alcotest.failf "truncated to %d bytes: returned %d instead of raising"
          len got
    | exception Invalid_argument _ -> ()
  done

let qcheck_gamma_never_negative =
  (* Adversarial bytes: [read_gamma] either raises [Invalid_argument] or
     returns a non-negative value — no silent overflow. *)
  QCheck.Test.make ~name:"read_gamma on random bytes: raise or >= 0"
    ~count:2000
    QCheck.(string_of_size (QCheck.Gen.int_range 0 24))
    (fun s ->
      let r = W.Reader.of_string s in
      match W.Reader.read_gamma r with
      | v -> v >= 0
      | exception Invalid_argument _ -> true)

let test_many_gammas () =
  (* Regression for [Writer.ensure]'s growth policy: 10k gammas append
     ~600k bits through the zero-run + byte-aligned paths; the buffer
     must grow geometrically (one blit per growth) and the stream must
     stay exact — length and every value. *)
  let w = W.Writer.create () in
  let value i = i * 7919 in
  let expected_bits = ref 0 in
  for i = 0 to 9_999 do
    W.Writer.add_gamma w (value i);
    expected_bits := !expected_bits + W.gamma_bits (value i)
  done;
  Alcotest.(check int) "exact stream length" !expected_bits
    (W.Writer.bit_length w);
  let r = W.Reader.of_string (W.Writer.contents w) in
  for i = 0 to 9_999 do
    Alcotest.(check int)
      (Printf.sprintf "gamma #%d" i)
      (value i) (W.Reader.read_gamma r)
  done

let qcheck_mixed_stream =
  (* Interleave fixed, gamma and single-bit writes and read them back. *)
  let op_gen =
    QCheck.Gen.(
      oneof
        [
          (let* v = int_range 0 1023 in
           return (`Fixed (v, 10)));
          (let* v = int_range 0 100_000 in
           return (`Gamma v));
          (let* b = bool in
           return (`Bit b));
        ])
  in
  QCheck.Test.make ~name:"mixed stream roundtrip" ~count:300
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
       QCheck.Gen.(list_size (int_range 1 40) op_gen))
    (fun ops ->
      let w = W.Writer.create () in
      List.iter
        (function
          | `Fixed (v, width) -> W.Writer.add_fixed w v ~width
          | `Gamma v -> W.Writer.add_gamma w v
          | `Bit b -> W.Writer.add_bit w b)
        ops;
      let r = W.Reader.of_string (W.Writer.contents w) in
      List.for_all
        (function
          | `Fixed (v, width) -> W.Reader.read_fixed r ~width = v
          | `Gamma v -> W.Reader.read_gamma r = v
          | `Bit b -> Bool.equal (W.Reader.read_bit r) b)
        ops)

(* {2 Bulk bit copies and narrow fields}

   [Writer.add_bits_of_string], [Reader.read_slice] and [Reader.skip]
   against the bit-by-bit definition, at every source and destination
   bit offset, for the lengths around the byte and 56-bit chunk edges,
   and with destinations that make the writer's 16-byte buffer grow. *)

let bit_of s i = Char.code s.[i lsr 3] land (0x80 lsr (i land 7)) <> 0

(* A writer holding [prefix] pattern bits, built one bit at a time. *)
let writer_with_prefix prefix =
  let w = W.Writer.create () in
  for i = 0 to prefix - 1 do
    W.Writer.add_bit w (i mod 3 = 0)
  done;
  w

let copy_ref w s ~pos ~len =
  for i = pos to pos + len - 1 do
    W.Writer.add_bit w (bit_of s i)
  done

(* Reads [len] bits of [s] at [pos] through the bulk primitives and the
   reference, and checks they agree with each other and with [s]. *)
let check_copy s ~prefix ~pos ~len =
  let fast = writer_with_prefix prefix and slow = writer_with_prefix prefix in
  W.Writer.add_bits_of_string fast s ~pos ~len;
  copy_ref slow s ~pos ~len;
  (* A trailing bit shows the copy left the invariant (zeros past the
     end) intact. *)
  W.Writer.add_bit fast true;
  W.Writer.add_bit slow true;
  let slice_ok =
    let r = W.Reader.of_string s and r' = W.Reader.of_string s in
    W.Reader.skip r pos;
    for _ = 1 to pos do
      ignore (W.Reader.read_bit r')
    done;
    let got = W.Reader.read_slice r ~len in
    let expect = W.Writer.create () in
    copy_ref expect s ~pos ~len;
    String.equal got (W.Writer.contents expect)
    && W.Reader.position r = pos + len
    && W.Reader.bits_remaining r = W.Reader.bits_remaining r' - len
  in
  W.Writer.bit_length fast = W.Writer.bit_length slow
  && String.equal (W.Writer.contents fast) (W.Writer.contents slow)
  && slice_ok

let pattern_string bytes seed =
  String.init bytes (fun i -> Char.chr (((i * 151) + (seed * 97) + 89) land 0xff))

let copy_lengths = [ 0; 1; 7; 8; 55; 56; 57; 64; 200 ]

let test_bulk_copy_every_offset () =
  let s = pattern_string 48 3 in
  List.iter
    (fun base ->
      for dst_off = 0 to 7 do
        for src_off = 0 to 7 do
          List.iter
            (fun len ->
              if
                not
                  (check_copy s ~prefix:(base + dst_off)
                     ~pos:(8 + src_off) ~len)
              then
                Alcotest.failf "dst %d, src %d, len %d" (base + dst_off)
                  (8 + src_off) len)
            copy_lengths
        done
      done)
    (* 0: fresh buffer; 120: the copy crosses the first growth *)
    [ 0; 120 ]

let qcheck_bulk_copy_differential =
  let case =
    QCheck.Gen.(
      let* bytes = int_range 0 80 in
      let* seed = int_range 0 1000 in
      let* pos = int_range 0 (8 * bytes) in
      let* len =
        oneof [ oneofl [ 0; 1; 7; 8; 55; 56; 57 ]; int_range 0 (8 * bytes) ]
      in
      let len = min len ((8 * bytes) - pos) in
      let* prefix = int_range 0 300 in
      return (bytes, seed, pos, len, prefix))
  in
  QCheck.Test.make ~name:"bulk bit copy = bit-by-bit reference" ~count:2000
    (QCheck.make
       ~print:(fun (bytes, seed, pos, len, prefix) ->
         Printf.sprintf "bytes=%d seed=%d pos=%d len=%d prefix=%d" bytes seed
           pos len prefix)
       case)
    (fun (bytes, seed, pos, len, prefix) ->
      check_copy (pattern_string bytes seed) ~prefix ~pos ~len)

let test_bulk_copy_rejects () =
  let w = W.Writer.create () in
  Alcotest.check_raises "past the end"
    (Invalid_argument "Wire.Writer.add_bits_of_string: range") (fun () ->
      W.Writer.add_bits_of_string w "ab" ~pos:9 ~len:8);
  Alcotest.check_raises "negative position"
    (Invalid_argument "Wire.Writer.add_bits_of_string: range") (fun () ->
      W.Writer.add_bits_of_string w "ab" ~pos:(-1) ~len:1);
  Alcotest.(check int) "nothing written" 0 (W.Writer.bit_length w);
  let r = W.Reader.of_string "ab" in
  Alcotest.check_raises "slice past the end"
    (Invalid_argument "Wire.Reader: out of bits") (fun () ->
      ignore (W.Reader.read_slice r ~len:17));
  Alcotest.check_raises "skip past the end"
    (Invalid_argument "Wire.Reader: out of bits") (fun () ->
      W.Reader.skip r 17);
  Alcotest.(check int) "reader did not move" 0 (W.Reader.position r)

let test_fixed_edges_every_offset () =
  (* Narrow widths (no longer written bit by bit), the 56-bit chunk
     edge, and the width-0 and width-62 ends, at every bit offset. *)
  let widths = [ 0; 1; 2; 3; 5; 7; 8; 9; 55; 56; 57; 61; 62 ] in
  let values width =
    let top = if width = 62 then max_int else (1 lsl width) - 1 in
    List.sort_uniq compare [ 0; 1 land top; top; 0x2aaa_aaaa_aaaa_aaaa land top ]
  in
  for prefix = 0 to 15 do
    List.iter
      (fun width ->
        List.iter
          (fun v ->
            let fast = writer_with_prefix prefix
            and slow = writer_with_prefix prefix in
            W.Writer.add_fixed fast v ~width;
            add_fixed_ref slow v ~width;
            W.Writer.add_bit fast true;
            W.Writer.add_bit slow true;
            let s = W.Writer.contents fast in
            if
              W.Writer.bit_length fast <> W.Writer.bit_length slow
              || not (String.equal s (W.Writer.contents slow))
            then Alcotest.failf "add_fixed %d/%d at offset %d" v width prefix;
            let r = W.Reader.of_string s and r' = W.Reader.of_string s in
            W.Reader.skip r prefix;
            W.Reader.skip r' prefix;
            let got = W.Reader.read_fixed r ~width in
            let expect = read_fixed_ref r' ~width in
            if got <> v || expect <> v || not (W.Reader.read_bit r) then
              Alcotest.failf "read_fixed %d/%d at offset %d: got %d" v width
                prefix got)
          (values width))
      widths
  done

(* {2 Writer reuse}

   [Writer.reset] keeps the buffer a long payload grew and must re-zero
   it: a reused writer emits the same bytes as a fresh one over a long,
   a short and an empty payload in turn. Odd bit lengths leave a
   partial last byte, the case a stale bit would corrupt. *)

let test_writer_reset () =
  let payloads =
    [
      ( "long",
        fun w ->
          for v = 0 to 499 do
            W.Writer.add_gamma w (v * 131)
          done );
      ( "short",
        fun w ->
          W.Writer.add_fixed w 5 ~width:3;
          W.Writer.add_bit w true );
      ("empty", fun _ -> ());
      ("short again", fun w -> W.Writer.add_gamma w 0);
    ]
  in
  let reused = W.Writer.create () in
  List.iter
    (fun (name, fill) ->
      W.Writer.reset reused;
      fill reused;
      let fresh = W.Writer.create () in
      fill fresh;
      Alcotest.(check int) (name ^ ": bit length") (W.Writer.bit_length fresh)
        (W.Writer.bit_length reused);
      Alcotest.(check string) (name ^ ": bytes") (W.Writer.contents fresh)
        (W.Writer.contents reused))
    payloads

let suite =
  ( "wire",
    [
      Alcotest.test_case "bit roundtrip" `Quick test_bits_roundtrip;
      Alcotest.test_case "fixed roundtrip" `Quick test_fixed_roundtrip;
      Alcotest.test_case "fixed rejects bad values" `Quick test_fixed_rejects;
      Alcotest.test_case "gamma costs" `Quick test_gamma_values;
      Alcotest.test_case "reader exhaustion" `Quick test_out_of_bits;
      Alcotest.test_case "fixed width-62 boundary" `Quick
        test_fixed_width62_boundary;
      Alcotest.test_case "read_fixed truncated input" `Quick
        test_read_fixed_truncated;
      Alcotest.test_case "gamma k=62 rejected" `Quick test_gamma_k62_rejected;
      Alcotest.test_case "gamma k=61 boundary" `Quick test_gamma_k61_boundary;
      Alcotest.test_case "gamma truncated input" `Quick test_gamma_truncated;
      Alcotest.test_case "10k gammas (growth regression)" `Quick
        test_many_gammas;
      QCheck_alcotest.to_alcotest qcheck_gamma_roundtrip;
      QCheck_alcotest.to_alcotest qcheck_fixed_differential;
      QCheck_alcotest.to_alcotest qcheck_read_fixed_differential;
      QCheck_alcotest.to_alcotest qcheck_gamma_never_negative;
      QCheck_alcotest.to_alcotest qcheck_mixed_stream;
      Alcotest.test_case "bulk copy, every src/dst offset" `Quick
        test_bulk_copy_every_offset;
      Alcotest.test_case "bulk copy / slice / skip bounds" `Quick
        test_bulk_copy_rejects;
      Alcotest.test_case "fixed edges, every offset" `Quick
        test_fixed_edges_every_offset;
      QCheck_alcotest.to_alcotest qcheck_bulk_copy_differential;
      Alcotest.test_case "reset writer = fresh writer" `Quick
        test_writer_reset;
    ] )
