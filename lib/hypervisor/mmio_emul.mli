(** QEMU-side MMIO dispatch for the guest's virtio window.

    Slots within the 4 KiB window at [Zion.Layout.virtio_mmio_gpa]:
    - [0x000 .. 0x0ff] : virtio-blk
    - [0x100 .. 0x1ff] : virtio-net *)

type t

val blk_slot : int64
val net_slot : int64

val create : bus:Riscv.Bus.t -> disk_sectors:int -> t
val blk : t -> Virtio_blk.t
val net : t -> Virtio_net.t

val set_translate : t -> (int64 -> int64 option) -> unit
(** Propagate the GPA→PA translation to both devices. *)

val set_trace : t -> Metrics.Trace.t -> unit
(** Attach the platform flight recorder to both devices. *)

val latch_zones : (int64 * int) list
(** Both devices' [latch_registers] as absolute [(gpa, size)] zones:
    what the hypervisor registers with the SM for coalesced MMIO. *)

val handle : t -> Zion.Vcpu.mmio -> int64
(** Emulate one trapped access; returns the load result (0 for
    writes). *)

val service_ring : t -> Virtio_ring.host -> int
(** Drain one exitless ring through the same blk/net devices the MMIO
    kicks use; returns completions written. *)
