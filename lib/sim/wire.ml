(* Bit-field primitives shared by the writer and the reader. Fields of
   at most [chunk] = 56 bits span at most 8 bytes, so one int
   accumulates them whatever the bit offset; wider fields split in two.

   [get_bits s pos w] reads the [w] bits of [s] starting at bit [pos],
   msb first; the caller has bounds-checked [pos + w <= 8 * length s].
   When the span needs all 8 bytes its top bit is lost to the 63-bit
   int, but the offset is then [>= 1] and that bit lies before [pos]. *)
let chunk = 56

let get_bits s pos w =
  if w = 0 then 0
  else begin
    let i = pos lsr 3 in
    let span = (pos land 7) + w in
    let nb = (span + 7) lsr 3 in
    let acc = ref 0 in
    for k = 0 to nb - 1 do
      acc := (!acc lsl 8) lor Char.code (String.unsafe_get s (i + k))
    done;
    (!acc lsr ((nb lsl 3) - span)) land ((1 lsl w) - 1)
  end

(* [put_bits b pos v w] writes [v]'s low [w <= chunk] bits at bit [pos]
   of [b]. Relies on every bit from [pos] on being 0 (the writer's
   trailing-zeros invariant), so the first byte is ORed and the rest
   overwritten; the caller guarantees the bytes exist. *)
let put_bits b pos v w =
  if w > 0 then begin
    let i = pos lsr 3 in
    let span = (pos land 7) + w in
    let nb = (span + 7) lsr 3 in
    let x = v lsl ((nb lsl 3) - span) in
    let last = nb - 1 in
    Bytes.unsafe_set b i
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get b i) lor ((x lsr (last lsl 3)) land 0xff)));
    for k = 1 to last do
      Bytes.unsafe_set b (i + k)
        (Char.unsafe_chr ((x lsr ((last - k) lsl 3)) land 0xff))
    done
  end

(* Copy [len] bits of [src] from bit [src_pos] to bit [dst_pos] of [dst],
   every bit of which from [dst_pos] on is 0: one byte blit when both
   sides are byte-aligned, [chunk]-bit pieces otherwise. *)
let blit_bits ~src ~src_pos ~dst ~dst_pos ~len =
  if src_pos land 7 = 0 && dst_pos land 7 = 0 then begin
    let whole = len lsr 3 in
    Bytes.blit_string src (src_pos lsr 3) dst (dst_pos lsr 3) whole;
    let done_ = whole lsl 3 and tail = len land 7 in
    put_bits dst (dst_pos + done_) (get_bits src (src_pos + done_) tail) tail
  end
  else begin
    let copied = ref 0 in
    while !copied < len do
      let w = min chunk (len - !copied) in
      put_bits dst (dst_pos + !copied) (get_bits src (src_pos + !copied) w) w;
      copied := !copied + w
    done
  end

module Writer = struct
  type t = { mutable bytes : Bytes.t; mutable len_bits : int }

  let create () = { bytes = Bytes.make 16 '\000'; len_bits = 0 }
  let bit_length t = t.len_bits

  let ensure t bits =
    let needed = (t.len_bits + bits + 7) / 8 in
    if needed > Bytes.length t.bytes then begin
      (* Grow geometrically from the needed size in one step: doubling
         until [needed] is covered means a single blit per [ensure] even
         for appends much larger than the current buffer. *)
      let cap = ref (max 16 (2 * Bytes.length t.bytes)) in
      while !cap < needed do
        cap := 2 * !cap
      done;
      let bigger = Bytes.make !cap '\000' in
      Bytes.blit t.bytes 0 bigger 0 (Bytes.length t.bytes);
      t.bytes <- bigger
    end

  let add_bit t b =
    ensure t 1;
    if b then begin
      let i = t.len_bits in
      let byte = Char.code (Bytes.get t.bytes (i lsr 3)) in
      Bytes.set t.bytes (i lsr 3) (Char.chr (byte lor (1 lsl (7 - (i land 7)))))
    end;
    t.len_bits <- t.len_bits + 1

  (* Invariant used by the fast paths below: the buffer is zero-filled
     at creation and growth, and no writer ever sets a bit at or beyond
     [len_bits] — so every bit past the end is already 0. *)

  let add_zeros t k =
    if k < 0 then invalid_arg "Wire.Writer.add_zeros: negative";
    if k > 0 then begin
      ensure t k;
      t.len_bits <- t.len_bits + k
    end

  let add_fixed t v ~width =
    if width < 0 || width > 62 then invalid_arg "Wire.Writer.add_fixed: width";
    if v < 0 || (width < 62 && v lsr width <> 0) then
      invalid_arg "Wire.Writer.add_fixed: value does not fit";
    ensure t width;
    let pos = t.len_bits in
    if width <= chunk then put_bits t.bytes pos v width
    else begin
      put_bits t.bytes pos (v lsr 31) (width - 31);
      put_bits t.bytes (pos + width - 31) (v land 0x7fff_ffff) 31
    end;
    t.len_bits <- pos + width

  let add_gamma t v =
    if v < 0 then invalid_arg "Wire.Writer.add_gamma: negative";
    let v = v + 1 in
    let k = Repro_util.Ilog.floor_log2 v in
    (* [k] zeros then the [k + 1] bits of [v] are one field of width
       [2k + 1] holding [v]; wider codes take the two steps. *)
    if k <= 30 then add_fixed t v ~width:((2 * k) + 1)
    else begin
      add_zeros t k;
      add_fixed t v ~width:(k + 1)
    end

  let add_bits_of_string t s ~pos ~len =
    if pos < 0 || len < 0 || pos > (8 * String.length s) - len then
      invalid_arg "Wire.Writer.add_bits_of_string: range";
    ensure t len;
    blit_bits ~src:s ~src_pos:pos ~dst:t.bytes ~dst_pos:t.len_bits ~len;
    t.len_bits <- t.len_bits + len

  (* Empty the writer, keeping its buffer: re-zeroing the used prefix
     restores the trailing-zeros invariant, so a reused writer emits the
     same bytes as a fresh one. *)
  let reset t =
    Bytes.fill t.bytes 0 ((t.len_bits + 7) / 8) '\000';
    t.len_bits <- 0

  let contents t = Bytes.sub_string t.bytes 0 ((t.len_bits + 7) / 8)
  let buffer t = t.bytes
end

module Reader = struct
  type t = { data : string; mutable pos : int }

  let of_string s = { data = s; pos = 0 }
  let bits_remaining t = (8 * String.length t.data) - t.pos

  let read_bit t =
    if t.pos >= 8 * String.length t.data then
      invalid_arg "Wire.Reader: out of bits";
    let byte = Char.code t.data.[t.pos lsr 3] in
    let b = byte land (1 lsl (7 - (t.pos land 7))) <> 0 in
    t.pos <- t.pos + 1;
    b

  let position t = t.pos

  let check t bits =
    if bits > (8 * String.length t.data) - t.pos then
      invalid_arg "Wire.Reader: out of bits"

  let read_fixed t ~width =
    if width < 0 || width > 62 then invalid_arg "Wire.Reader.read_fixed: width";
    check t width;
    let pos = t.pos in
    t.pos <- pos + width;
    if width <= chunk then get_bits t.data pos width
    else
      (get_bits t.data pos (width - 31) lsl 31)
      lor get_bits t.data (pos + width - 31) 31

  let skip t len =
    if len < 0 then invalid_arg "Wire.Reader.skip: negative";
    check t len;
    t.pos <- t.pos + len

  let read_slice t ~len =
    if len < 0 then invalid_arg "Wire.Reader.read_slice: negative";
    check t len;
    let b = Bytes.make ((len + 7) / 8) '\000' in
    blit_bits ~src:t.data ~src_pos:t.pos ~dst:b ~dst_pos:0 ~len;
    t.pos <- t.pos + len;
    Bytes.unsafe_to_string b

  (* The zero run is scanned a byte at a time. The writer can never emit
     more than 61 zeros ([add_gamma] caps at [floor_log2 max_int] = 61);
     accepting 62 would compute [(1 lsl 62) lor rest], which wraps
     negative on 63-bit ints. Returns the run length [k] having consumed
     the run and the 1 closing it, the value's top bit. *)
  let rec gamma_zeros t k =
    let pos = t.pos in
    if pos >= 8 * String.length t.data then
      invalid_arg "Wire.Reader: out of bits";
    let o = pos land 7 in
    let byte =
      Char.code (String.unsafe_get t.data (pos lsr 3)) land (0xff lsr o)
    in
    if byte = 0 then begin
      let k = k + 8 - o in
      if k > 61 then invalid_arg "Wire.Reader: gamma";
      t.pos <- pos + 8 - o;
      gamma_zeros t k
    end
    else begin
      let z = 7 - Repro_util.Ilog.floor_log2 byte - o in
      let k = k + z in
      if k > 61 then invalid_arg "Wire.Reader: gamma";
      t.pos <- pos + z + 1;
      k
    end

  let read_gamma t =
    let k = gamma_zeros t 0 in
    let rest = read_fixed t ~width:k in
    ((1 lsl k) lor rest) - 1
end

let gamma_bits v =
  if v < 0 then invalid_arg "Wire.gamma_bits: negative";
  (2 * Repro_util.Ilog.bit_width (v + 1)) - 1

let roundtrip_fixed v ~width =
  let w = Writer.create () in
  Writer.add_fixed w v ~width;
  let r = Reader.of_string (Writer.contents w) in
  Reader.read_fixed r ~width
