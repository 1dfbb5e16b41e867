(** Bare-metal guest program builders.

    Small RISC-V programs, assembled with [Riscv.Asm], that tests and
    examples load into (confidential or normal) VMs: console output,
    demand-paging memory touchers, virtio-blk and virtio-net exercisers
    using the SWIOTLB bounce layout, and an attestation requester. All
    programs end with an SBI shutdown unless noted. *)

val putchar : char -> Riscv.Decode.t list
val print : string -> Riscv.Decode.t list
val shutdown : Riscv.Decode.t list
val hello : string -> Riscv.Decode.t list

val fill_bytes : gpa:int64 -> byte:char -> len:int -> Riscv.Decode.t list
(** Store [len] copies of [byte] at [gpa] (byte store loop). *)

val store_u64 : gpa:int64 -> int64 -> Riscv.Decode.t list
val store_u32 : gpa:int64 -> int64 -> Riscv.Decode.t list

val touch_pages : start_gpa:int64 -> pages:int -> Riscv.Decode.t list
(** Write one doubleword to each of [pages] consecutive pages —
    the §V.C fault-storm workload. Does not shut down. *)

val blk_write :
  sector:int -> len:int -> byte:char -> Riscv.Decode.t list
(** Fill bounce slot 0, build a write descriptor, kick virtio-blk, and
    print '0' + status ('0' on success). Does not shut down. *)

val blk_read_first_byte : sector:int -> len:int -> Riscv.Decode.t list
(** Read into bounce slot 1 and print the first byte read. Does not
    shut down. *)

val net_send : string -> Riscv.Decode.t list
(** Copy a packet into bounce slot 2 and transmit it. Does not shut
    down. *)

val net_recv_putchar : Riscv.Decode.t list
(** Ask the device to fill bounce slot 3 with the next RX packet and
    print its first byte (or '!' when none). Does not shut down. *)

(** {2 Exitless ring submit}

    Builders for the {!Swiotlb} exitless split ring: descriptors and
    avail entries are published with plain stores to shared memory —
    no MMIO kick, no ecall, no world switch. A batch is a
    concatenation of {!ring_publish}/{!ring_blk_write} sequences
    followed by one {!ring_wait_used}; the host services the whole
    batch at its next polling beat (a timer exit) and publishes the
    used index once, so the spin observes the entire batch completing
    under a single notification. *)

val ring_publish :
  seq:int ->
  op:int ->
  len:int ->
  data_gpa:int64 ->
  meta:int64 ->
  Riscv.Decode.t list
(** Publish request number [seq] (0-based, free-running): descriptor
    id [seq mod ring_entries], its avail entry, and the avail index
    bumped to [seq + 1]. Straight-line code; does not wait. *)

val ring_blk_write :
  seq:int -> sector:int -> len:int -> byte:char -> slot:int ->
  Riscv.Decode.t list
(** Fill bounce slot [slot] with [byte] and publish a blk-write
    descriptor for it as request [seq]. Does not wait. *)

val ring_wait_used : target:int -> Riscv.Decode.t list
(** Spin (fixed-length load/branch loop) until the host publishes
    used idx = [target]. [target] must be in [1, 2047]. *)

val attest_report : nonce_byte:char -> Riscv.Decode.t list
(** Write a 32-byte nonce into private memory, request a measurement
    report from the SM, and print 'R' on success / 'E' on failure.
    Does not shut down. *)

val relinquish : gpa:int64 -> Riscv.Decode.t list
(** Touch [gpa] (so it is mapped and owned), then hand the page back to
    the SM via the guest relinquish ecall. Does not shut down. *)

val chan_send : chan:int -> msg:string -> Riscv.Decode.t list
(** Stage [msg] in private memory and publish it on channel [chan]
    through the SM's chan-send ecall; prints 'S' on success / 'E' on a
    typed error. Does not shut down. *)

val chan_recv_print : chan:int -> Riscv.Decode.t list
(** Consume one message from channel [chan] through the SM's chan-recv
    ecall (Check-after-Load on the peer's header) and print every
    delivered byte; '-' when nothing is pending, 'E' on a typed error.
    Does not shut down. *)

val chan_direct_send :
  chan:int -> from_a:bool -> byte:char -> len:int -> Riscv.Decode.t list
(** The zero-ecall data plane: publish a [len]-byte message of [byte]s
    by storing straight into the caller's directional half of the
    mapped ring page ([from_a] picks the a→b half), bumping the seq
    header last. Does not wait or shut down. *)

val wait_u64_ge : gpa:int64 -> target:int -> Riscv.Decode.t list
(** Spin (fixed-length load/branch loop) until the u64 at [gpa] is at
    least [target]. The ping-pong benches pace themselves with this:
    the only release is the peer's (or the bouncing host's) seq
    publish. Does not shut down. *)

val copy_words : from_gpa:int64 -> to_gpa:int64 -> len:int -> Riscv.Decode.t list
(** Copy [len] bytes ([len] must be a multiple of 8) as doublewords —
    the receive-side bounce copy of the host-bounce baseline. Raises
    [Invalid_argument] on misaligned lengths. Does not shut down. *)

val chan_send_fill : chan:int -> byte:char -> len:int -> Riscv.Decode.t list
(** Benchmark-weight [chan_send]: stage [len] copies of [byte] with a
    compact fill loop and issue the chan-send ecall, no console
    output. Does not shut down. *)

val chan_recv_quiet : chan:int -> Riscv.Decode.t list
(** Benchmark-weight [chan_recv_print]: one chan-recv ecall into the
    private receive buffer, no branching or console output. Does not
    shut down. *)
