(** Length-prefixed framing for the socket transport.

    A frame is a 4-byte big-endian payload length followed by the
    payload bytes. Reads and writes run through an injectable {!io}
    record so the robustness tests can drive the exact partial-read /
    short-write paths a kernel socket produces, without depending on
    kernel buffer behaviour. *)

exception Protocol_error of string
(** Malformed traffic on an established connection: EOF inside a frame,
    a length prefix above {!max_frame}, or garbage where a frame header
    was expected. Deliberately distinct from [Unix.Unix_error] (the
    transport failing) — both are mapped to a crash of the peer by the
    coordinator. *)

type io = {
  read : Bytes.t -> int -> int -> int;
      (** [read buf pos len] returns the number of bytes read, [0] on
          EOF — [Unix.read] semantics; may return short. *)
  write : Bytes.t -> int -> int -> int;
      (** [write buf pos len] returns the number of bytes written —
          [Unix.single_write] semantics; may write short. *)
}

val io_of_fd : Unix.file_descr -> io
(** Blocking reads/writes on [fd], retrying [EINTR]. *)

val max_frame : int
(** Upper bound on a payload length this implementation accepts or
    emits (16 MiB — far above any round batch at the scales we run,
    far below an allocation that could take the process down). *)

val read_exact : io -> Bytes.t -> int -> int -> unit
(** Fill [len] bytes, assembling partial reads.
    @raise Protocol_error on EOF before [len] bytes arrived. *)

val write_exact : io -> Bytes.t -> int -> int -> unit
(** Write [len] bytes, resuming after short writes. *)

val write_frame : io -> string -> unit
(** @raise Invalid_argument if the payload exceeds {!max_frame}. *)

val writer : unit -> Repro_sim.Wire.Writer.t
(** A fresh writer whose first 32 bits are reserved for the frame
    header; what is appended after them is the payload, starting
    byte-aligned — so its bytes are exactly what a fresh writer holding
    the same fields would return from [contents]. *)

val reset_writer : Repro_sim.Wire.Writer.t -> unit
(** Turn a used {!writer} (sent or not) back into an empty one, keeping
    its grown buffer: the next frame built in it is byte-identical to
    one built in a fresh {!writer}. *)

val write_writer : io -> Repro_sim.Wire.Writer.t -> unit
(** Send a {!writer}'s payload as one frame: the length header is
    patched into the reserved bytes and the writer's own buffer goes out
    in one {!write_exact}, with no copy. Consumes the writer (its header
    bytes are overwritten); append nothing to it afterwards, until
    {!reset_writer}.
    @raise Invalid_argument if the payload exceeds {!max_frame} or [w]
    is shorter than the header. *)

val read_frame : io -> string
(** @raise Protocol_error on EOF (even at a frame boundary), an
    oversized length prefix, or truncation inside the payload. *)

val read_frame_opt : io -> string option
(** [None] on clean EOF at a frame boundary; otherwise as
    {!read_frame}. *)
