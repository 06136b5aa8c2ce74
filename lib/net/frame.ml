exception Protocol_error of string

type io = {
  read : Bytes.t -> int -> int -> int;
  write : Bytes.t -> int -> int -> int;
}

let io_of_fd fd =
  let rec retry f buf pos len =
    match f fd buf pos len with
    | n -> n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry f buf pos len
  in
  {
    read = (fun buf pos len -> retry Unix.read buf pos len);
    write = (fun buf pos len -> retry Unix.single_write buf pos len);
  }

let max_frame = 1 lsl 24

let read_exact io buf pos len =
  let got = ref 0 in
  while !got < len do
    let n = io.read buf (pos + !got) (len - !got) in
    if n = 0 then raise (Protocol_error "eof inside frame");
    got := !got + n
  done

let write_exact io buf pos len =
  let put = ref 0 in
  while !put < len do
    let n = io.write buf (pos + !put) (len - !put) in
    if n <= 0 then raise (Protocol_error "write returned no progress");
    put := !put + n
  done

let set_header buf len =
  Bytes.set buf 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set buf 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set buf 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set buf 3 (Char.chr (len land 0xff))

let write_frame io payload =
  let len = String.length payload in
  if len > max_frame then invalid_arg "Frame.write_frame: payload too large";
  let buf = Bytes.create (4 + len) in
  set_header buf len;
  Bytes.blit_string payload 0 buf 4 len;
  write_exact io buf 0 (4 + len)

module Wire = Repro_sim.Wire

(* The header is a 32-bit placeholder at the front of the writer, so the
   payload starts byte-aligned and the finished frame is the writer's
   own buffer: one write, no copy. *)
let writer () =
  let w = Wire.Writer.create () in
  Wire.Writer.add_fixed w 0 ~width:32;
  w

(* Reuse [w] for the next frame: empty it and reserve the header again.
   One writer per connection keeps its grown buffer across rounds. *)
let reset_writer w =
  Wire.Writer.reset w;
  Wire.Writer.add_fixed w 0 ~width:32

let write_writer io w =
  let bits = Wire.Writer.bit_length w in
  if bits < 32 then invalid_arg "Frame.write_writer: not a frame writer";
  let total = (bits + 7) / 8 in
  let len = total - 4 in
  if len > max_frame then invalid_arg "Frame.write_writer: payload too large";
  let buf = Wire.Writer.buffer w in
  set_header buf len;
  write_exact io buf 0 total

(* Reads the 4-byte header, distinguishing clean EOF (nothing read) from
   truncation (EOF after 1-3 header bytes). *)
let read_header_opt io =
  let hdr = Bytes.create 4 in
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < 4 do
    let n = io.read hdr !got (4 - !got) in
    if n = 0 then eof := true else got := !got + n
  done;
  if !eof then
    if !got = 0 then None else raise (Protocol_error "eof inside frame header")
  else
    let b i = Char.code (Bytes.get hdr i) in
    let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    if len > max_frame then
      raise
        (Protocol_error
           (Printf.sprintf "frame length %d exceeds max %d" len max_frame));
    Some len

let read_frame_opt io =
  match read_header_opt io with
  | None -> None
  | Some len ->
      let buf = Bytes.create len in
      read_exact io buf 0 len;
      Some (Bytes.unsafe_to_string buf)

let read_frame io =
  match read_frame_opt io with
  | Some payload -> payload
  | None -> raise (Protocol_error "eof at frame boundary")
