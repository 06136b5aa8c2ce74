(** Bit-level message serialisation.

    The model's messages carry [Θ(log N)] bits; rather than asserting
    sizes by arithmetic alone, every protocol message has an actual codec
    built on this module, and the per-message [bits] accounting used by
    {!Metrics} is tested to equal the encoded length exactly.

    Unbounded non-negative integers use Elias-gamma coding (value [v]
    encoded as [γ(v+1)]), which is self-delimiting and costs
    [2·⌊log₂(v+1)⌋ + 1] bits — the "O(log N) bits per field" regime of
    the paper. Fixed-width fields write exactly [width] bits. *)

module Writer : sig
  type t

  val create : unit -> t
  val bit_length : t -> int
  val add_bit : t -> bool -> unit

  val add_fixed : t -> int -> width:int -> unit
  (** Write [width] bits of a non-negative value, most significant first.
      Every width is written a machine word at a time (up to 56 bits per
      step, whatever the bit offset), bit-identical to writing through
      {!add_bit} — the QCheck suite asserts this differentially.
      @raise Invalid_argument if the value does not fit or width is not
      in [\[0, 62\]]. *)

  val add_gamma : t -> int -> unit
  (** Elias-gamma encode a value [>= 0] (internally shifted by one). The
      [⌊log₂(v+1)⌋] leading zeros are appended in O(1): the buffer is
      zero-filled past the write position by construction, so emitting
      zeros only advances the length. *)

  val add_bits_of_string : t -> string -> pos:int -> len:int -> unit
  (** [add_bits_of_string w s ~pos ~len] appends the [len] bits of [s]
      that start at bit [pos] (msb-first within each byte): one byte
      blit when both positions are byte-aligned, 56-bit steps otherwise.
      @raise Invalid_argument unless [0 <= pos] and
      [pos + len <= 8 * String.length s]. *)

  val reset : t -> unit
  (** Empty the writer, keeping its buffer for reuse. The bytes it held
      are re-zeroed, so whatever is appended next encodes exactly as in a
      fresh writer. *)

  val contents : t -> string
  (** The encoded bits, zero-padded to whole bytes. *)

  val buffer : t -> Bytes.t
  (** The live buffer, without a copy: its first
      [(bit_length t + 7) / 8] bytes are {!contents}. Invalidated by the
      next append; writing into it is only for a caller that owns the
      writer and then drops or {!reset}s it
      ([Repro_net.Frame.write_writer] patches its length header in
      place). *)
end

module Reader : sig
  type t

  val of_string : string -> t
  val bits_remaining : t -> int
  val read_bit : t -> bool
  val read_fixed : t -> width:int -> int
  val read_gamma : t -> int
  (** Each raises [Invalid_argument "Wire.Reader: out of bits"] when the
      input is exhausted, and [Invalid_argument "Wire.Reader: gamma"] on a
      malformed gamma prefix. *)

  val position : t -> int
  (** Bits consumed so far: the offset of the next field in the input,
      for {!Writer.add_bits_of_string} to copy from later. *)

  val skip : t -> int -> unit
  (** Consume that many bits without reading them.
      @raise Invalid_argument as above. *)

  val read_slice : t -> len:int -> string
  (** Consume the next [len] bits as a fresh string, zero-padded to whole
      bytes — the byte form a [Writer] holding exactly those bits
      returns from [contents].
      @raise Invalid_argument as above. *)
end

val gamma_bits : int -> int
(** [gamma_bits v] is the exact cost in bits of [Writer.add_gamma _ v]:
    [2·bit_width (v+1) - 1]. *)

val roundtrip_fixed : int -> width:int -> int
(** Encode then decode one fixed-width value (testing helper). *)
