open Riscv
open Decode

(* Register discipline inside builders: t0..t2 are scratch; a0/a6/a7 are
   SBI argument registers. Builders are concatenative — each sequence
   leaves no live state behind. *)

let putchar c =
  Asm.li Asm.a0 (Int64.of_int (Char.code c))
  @ Asm.li Asm.a7 Zion.Ecall.sbi_legacy_putchar
  @ [ Ecall ]

let print s = List.concat_map putchar (List.init (String.length s) (String.get s))

let shutdown = Asm.li Asm.a7 Zion.Ecall.sbi_legacy_shutdown @ [ Ecall ]
let hello s = print s @ shutdown

let fill_bytes ~gpa ~byte ~len =
  if len <= 0 then []
  else
    Asm.li Asm.t0 gpa
    @ Asm.li Asm.t1 (Int64.of_int len)
    @ Asm.li Asm.t2 (Int64.of_int (Char.code byte))
    @ [
        (* loop: *)
        Store { rs1 = Asm.t0; rs2 = Asm.t2; imm = 0L; width = B };
        Op_imm (Add, Asm.t0, Asm.t0, 1L);
        Op_imm (Add, Asm.t1, Asm.t1, -1L);
        Branch (Bne, Asm.t1, 0, -12L);
      ]

let store_u64 ~gpa v =
  Asm.li Asm.t0 gpa
  @ Asm.li Asm.t1 v
  @ [ Store { rs1 = Asm.t0; rs2 = Asm.t1; imm = 0L; width = D } ]

let store_u32 ~gpa v =
  Asm.li Asm.t0 gpa
  @ Asm.li Asm.t1 v
  @ [ Store { rs1 = Asm.t0; rs2 = Asm.t1; imm = 0L; width = W } ]

let touch_pages ~start_gpa ~pages =
  if pages <= 0 then []
  else
    Asm.li Asm.t0 start_gpa
    @ Asm.li Asm.t1 (Int64.of_int pages)
    @ [
        (* loop: write a doubleword, advance one page (4096 = 2*2047+2) *)
        Store { rs1 = Asm.t0; rs2 = Asm.t1; imm = 0L; width = D };
        Op_imm (Add, Asm.t0, Asm.t0, 2047L);
        Op_imm (Add, Asm.t0, Asm.t0, 2047L);
        Op_imm (Add, Asm.t0, Asm.t0, 2L);
        Op_imm (Add, Asm.t1, Asm.t1, -1L);
        Branch (Bne, Asm.t1, 0, -20L);
      ]

(* Device MMIO helpers. *)
let blk_reg off = Int64.add Zion.Layout.virtio_mmio_gpa off
let net_reg off = Int64.add Zion.Layout.virtio_mmio_gpa (Int64.add 0x100L off)

let mmio_store_u64 addr v =
  Asm.li Asm.t0 addr
  @ Asm.li Asm.t1 v
  @ [ Store { rs1 = Asm.t0; rs2 = Asm.t1; imm = 0L; width = D } ]

let mmio_store_u32 addr v =
  Asm.li Asm.t0 addr
  @ Asm.li Asm.t1 v
  @ [ Store { rs1 = Asm.t0; rs2 = Asm.t1; imm = 0L; width = W } ]

(* Load a device register into t2. *)
let mmio_load_u32 addr =
  Asm.li Asm.t0 addr
  @ [ Load { rd = Asm.t2; rs1 = Asm.t0; imm = 0L; width = W; unsigned = false } ]

(* Build a blk descriptor at the SWIOTLB descriptor page:
   sector(8) | len(4) | op(4) | data_gpa(8). *)
let blk_descriptor ~sector ~len ~op ~data_gpa =
  store_u64 ~gpa:Swiotlb.desc_gpa (Int64.of_int sector)
  @ store_u32 ~gpa:(Int64.add Swiotlb.desc_gpa 8L) (Int64.of_int len)
  @ store_u32 ~gpa:(Int64.add Swiotlb.desc_gpa 12L) (Int64.of_int op)
  @ store_u64 ~gpa:(Int64.add Swiotlb.desc_gpa 16L) data_gpa

(* Print '0' + t2 (assumes t2 holds a small status). *)
let print_status_in_t2 =
  Asm.li Asm.a0 (Int64.of_int (Char.code '0'))
  @ [ Op (Add, Asm.a0, Asm.a0, Asm.t2) ]
  @ Asm.li Asm.a7 Zion.Ecall.sbi_legacy_putchar
  @ [ Ecall ]

let blk_write ~sector ~len ~byte =
  fill_bytes ~gpa:(Swiotlb.slot_gpa 0) ~byte ~len
  @ blk_descriptor ~sector ~len ~op:1 ~data_gpa:(Swiotlb.slot_gpa 0)
  @ mmio_store_u64 (blk_reg 0x00L) Swiotlb.desc_gpa
  @ mmio_store_u32 (blk_reg 0x08L) 1L
  @ mmio_load_u32 (blk_reg 0x10L)
  @ print_status_in_t2

let blk_read_first_byte ~sector ~len =
  blk_descriptor ~sector ~len ~op:0 ~data_gpa:(Swiotlb.slot_gpa 1)
  @ mmio_store_u64 (blk_reg 0x00L) Swiotlb.desc_gpa
  @ mmio_store_u32 (blk_reg 0x08L) 1L
  @ mmio_load_u32 (blk_reg 0x10L)
  (* load first byte of the bounce slot and print it *)
  @ Asm.li Asm.t0 (Swiotlb.slot_gpa 1)
  @ [ Load { rd = Asm.a0; rs1 = Asm.t0; imm = 0L; width = B; unsigned = true } ]
  @ Asm.li Asm.a7 Zion.Ecall.sbi_legacy_putchar
  @ [ Ecall ]

(* Net TX descriptor: len(4) | pad(4) | data_gpa(8) at tx_desc_gpa. *)
let net_send pkt =
  let len = String.length pkt in
  let stores =
    List.concat
      (List.init len (fun i ->
           Asm.li Asm.t0 (Int64.add (Swiotlb.slot_gpa 2) (Int64.of_int i))
           @ Asm.li Asm.t1 (Int64.of_int (Char.code pkt.[i]))
           @ [ Store { rs1 = Asm.t0; rs2 = Asm.t1; imm = 0L; width = B } ]))
  in
  stores
  @ store_u32 ~gpa:Swiotlb.tx_desc_gpa (Int64.of_int len)
  @ store_u64 ~gpa:(Int64.add Swiotlb.tx_desc_gpa 8L) (Swiotlb.slot_gpa 2)
  @ mmio_store_u64 (net_reg 0x00L) Swiotlb.tx_desc_gpa
  @ mmio_store_u32 (net_reg 0x08L) 1L

let net_recv_putchar =
  (* Branchy code must use fixed-length encodings, not [Asm.li] (whose
     length depends on the constant); slot 3's GPA has zero low bits, so
     a single lui loads it. *)
  assert (Int64.logand (Swiotlb.slot_gpa 3) 0xFFFL = 0L);
  mmio_store_u64 (net_reg 0x18L) (Swiotlb.slot_gpa 3)
  @ mmio_store_u32 (net_reg 0x08L) 2L
  @ mmio_load_u32 (net_reg 0x10L)
  @ [
      (* +0: if no packet (t2 = 0), jump to the '!' case at +16 *)
      Branch (Beq, Asm.t2, 0, 16L);
      (* +4 *) Lui (Asm.t0, Swiotlb.slot_gpa 3);
      (* +8 *)
      Load { rd = Asm.a0; rs1 = Asm.t0; imm = 0L; width = B; unsigned = true };
      (* +12: skip the '!' case *) Jal (0, 8L);
      (* +16 *) Op_imm (Add, Asm.a0, 0, Int64.of_int (Char.code '!'));
      (* +20: fallthrough *)
    ]
  @ Asm.li Asm.a7 Zion.Ecall.sbi_legacy_putchar
  @ [ Ecall ]

(* ---------- exitless ring submit (no doorbell) ---------- *)

let ring_field off = Int64.add Swiotlb.ring_gpa (Int64.of_int off)

(* Publish one ring descriptor with plain stores: descriptor id
   [seq mod ring_entries], the avail entry at the same position, then
   the avail index bumped to [seq + 1]. No MMIO, no ecall — this is
   the whole point: the doorbell is suppressed while the ring is
   live. *)
let ring_publish ~seq ~op ~len ~data_gpa ~meta =
  let id = seq mod Swiotlb.ring_entries in
  let d off = ring_field (Swiotlb.ring_desc_off id + off) in
  store_u64 ~gpa:(d 0) data_gpa
  @ store_u32 ~gpa:(d 8) (Int64.of_int len)
  @ store_u32 ~gpa:(d 12) (Int64.of_int op)
  @ store_u64 ~gpa:(d 16) meta
  @ store_u32 ~gpa:(ring_field (Swiotlb.ring_avail_entry_off id))
      (Int64.of_int id)
  @ store_u32 ~gpa:(ring_field Swiotlb.ring_avail_idx_off)
      (Int64.of_int ((seq + 1) land 0xFFFF))

(* Spin until the host publishes used idx = [target]. Branchy code
   must use fixed-length encodings, not [Asm.li] (whose length depends
   on the constant); the ring page GPA has zero low bits, so a single
   lui loads it and the field offsets ride in the load immediate. *)
let ring_wait_used ~target =
  assert (Int64.logand Swiotlb.ring_gpa 0xFFFL = 0L);
  assert (target > 0 && target < 2048);
  [
    Lui (Asm.t0, Swiotlb.ring_gpa);
    (* loop: *)
    Load
      {
        rd = Asm.t2;
        rs1 = Asm.t0;
        imm = Int64.of_int Swiotlb.ring_used_idx_off;
        width = W;
        unsigned = false;
      };
    (* +4 *) Op_imm (Add, Asm.t2, Asm.t2, Int64.of_int (-target));
    (* +8: loop while used != target *) Branch (Bne, Asm.t2, 0, -8L);
  ]

let ring_blk_write ~seq ~sector ~len ~byte ~slot =
  fill_bytes ~gpa:(Swiotlb.slot_gpa slot) ~byte ~len
  @ ring_publish ~seq ~op:Swiotlb.op_blk_write ~len
      ~data_gpa:(Swiotlb.slot_gpa slot) ~meta:(Int64.of_int sector)

let relinquish ~gpa =
  (* Touch the page first so it is actually mapped (and owned) before
     the guest gives it back — relinquishing an unmapped GPA is a
     Not_found the chaos sweeps don't want to exercise here. *)
  store_u64 ~gpa 0xA5A5_A5A5L
  @ Asm.li Asm.a0 gpa
  @ Asm.li Asm.a6 Zion.Ecall.fid_guest_relinquish
  @ Asm.li Asm.a7 Zion.Ecall.ext_zion
  @ [ Ecall ]

let attest_report ~nonce_byte =
  let report_gpa = 0x200000L and nonce_gpa = 0x201000L in
  fill_bytes ~gpa:nonce_gpa ~byte:nonce_byte ~len:32
  (* touch the report buffer so it is mapped before the SM writes it *)
  @ store_u64 ~gpa:report_gpa 0L
  @ Asm.li Asm.a0 report_gpa
  @ Asm.li Asm.a1 nonce_gpa
  @ Asm.li Asm.a6 Zion.Ecall.fid_guest_report
  @ Asm.li Asm.a7 Zion.Ecall.ext_zion
  @ [ Ecall ]
  (* a0 = 0 on success *)
  @ [
      (* +0: on error jump to the 'E' case at +12 *)
      Branch (Bne, Asm.a0, 0, 12L);
      (* +4 *) Op_imm (Add, Asm.a0, 0, Int64.of_int (Char.code 'R'));
      (* +8: skip the 'E' case *) Jal (0, 8L);
      (* +12 *) Op_imm (Add, Asm.a0, 0, Int64.of_int (Char.code 'E'));
    ]
  @ Asm.li Asm.a7 Zion.Ecall.sbi_legacy_putchar
  @ [ Ecall ]

(* ---------- attested inter-CVM channels ---------- *)

(* Private scratch buffers for the ecall-based channel data plane. The
   receive buffer must be page-aligned: the post-ecall status code is
   branchy and so restricted to fixed-length encodings, and a zero-low-
   bits GPA loads in a single lui. *)
let chan_send_buf_gpa = 0x203000L
let chan_recv_buf_gpa = 0x204000L

let chan_send ~chan ~msg =
  let len = String.length msg in
  let stores =
    List.concat
      (List.init len (fun i ->
           Asm.li Asm.t0 (Int64.add chan_send_buf_gpa (Int64.of_int i))
           @ Asm.li Asm.t1 (Int64.of_int (Char.code msg.[i]))
           @ [ Store { rs1 = Asm.t0; rs2 = Asm.t1; imm = 0L; width = B } ]))
  in
  stores
  @ Asm.li Asm.a0 (Int64.of_int chan)
  @ Asm.li Asm.a1 chan_send_buf_gpa
  @ Asm.li Asm.a2 (Int64.of_int len)
  @ Asm.li Asm.a6 Zion.Ecall.fid_guest_chan_send
  @ Asm.li Asm.a7 Zion.Ecall.ext_zion
  @ [ Ecall ]
  @ [
      (* +0: on error jump to the 'E' case at +12 *)
      Branch (Bne, Asm.a0, 0, 12L);
      (* +4 *) Op_imm (Add, Asm.a0, 0, Int64.of_int (Char.code 'S'));
      (* +8: skip the 'E' case *) Jal (0, 8L);
      (* +12 *) Op_imm (Add, Asm.a0, 0, Int64.of_int (Char.code 'E'));
    ]
  @ Asm.li Asm.a7 Zion.Ecall.sbi_legacy_putchar
  @ [ Ecall ]

let chan_recv_print ~chan =
  assert (Int64.logand chan_recv_buf_gpa 0xFFFL = 0L);
  let putchar_eid = Zion.Ecall.sbi_legacy_putchar in
  assert (putchar_eid >= 0L && putchar_eid < 2048L);
  (* touch the buffer so it is mapped before the SM copies into it *)
  store_u64 ~gpa:chan_recv_buf_gpa 0L
  @ Asm.li Asm.a0 (Int64.of_int chan)
  @ Asm.li Asm.a1 chan_recv_buf_gpa
  @ Asm.li Asm.a2 (Int64.of_int Zion.Layout.chan_max_msg)
  @ Asm.li Asm.a6 Zion.Ecall.fid_guest_chan_recv
  @ Asm.li Asm.a7 Zion.Ecall.ext_zion
  @ [ Ecall ]
  (* a0 = error, a1 = delivered length (0 = nothing pending) *)
  @ [
      (* +0: error -> 'E' at +48 *) Branch (Bne, Asm.a0, 0, 48L);
      (* +4: idle -> '-' at +40 *) Branch (Beq, Asm.a1, 0, 36L);
      (* +8: t0 walks the buffer up to t1 = buf + a1 *)
      Lui (Asm.t0, chan_recv_buf_gpa);
      (* +12 *) Op (Add, Asm.t1, Asm.t0, Asm.a1);
      (* +16: loop *)
      Load { rd = Asm.a0; rs1 = Asm.t0; imm = 0L; width = B; unsigned = true };
      (* +20 *) Op_imm (Add, Asm.a7, 0, putchar_eid);
      (* +24 *) Ecall;
      (* +28 *) Op_imm (Add, Asm.t0, Asm.t0, 1L);
      (* +32: next byte at +16 *) Branch (Bne, Asm.t0, Asm.t1, -16L);
      (* +36: done at +60 *) Jal (0, 24L);
      (* +40 *) Op_imm (Add, Asm.a0, 0, Int64.of_int (Char.code '-'));
      (* +44: print at +52 *) Jal (0, 8L);
      (* +48 *) Op_imm (Add, Asm.a0, 0, Int64.of_int (Char.code 'E'));
      (* +52 *) Op_imm (Add, Asm.a7, 0, putchar_eid);
      (* +56 *) Ecall;
      (* +60: fallthrough *)
    ]

(* Spin until the u64 at [gpa] reaches [target] — the release in the
   channel/bounce ping-pong benches is always the peer's (or host's)
   seq publish. Branchy, so fixed-length encodings only: the address
   is assembled from a lui plus a 12-bit add, both constant-size. *)
let wait_u64_ge ~gpa ~target =
  let lo = Int64.to_int (Int64.logand gpa 0xFFFL) in
  let lo = if lo >= 2048 then lo - 4096 else lo in
  let hi = Int64.sub gpa (Int64.of_int lo) in
  assert (Int64.logand hi 0xFFFL = 0L);
  Asm.li Asm.t1 (Int64.of_int target)
  @ [
      Lui (Asm.t0, hi);
      Op_imm (Add, Asm.t0, Asm.t0, Int64.of_int lo);
      (* loop: *)
      Load { rd = Asm.t2; rs1 = Asm.t0; imm = 0L; width = D; unsigned = false };
      Branch (Blt, Asm.t2, Asm.t1, -4L);
    ]

(* Doubleword copy loop — the receive-side bounce copy of the
   host-bounce baseline (shared window -> private buffer). *)
let copy_words ~from_gpa ~to_gpa ~len =
  if len mod 8 <> 0 then invalid_arg "Gprog.copy_words: len must be 8-aligned";
  if len <= 0 then []
  else
    Asm.li Asm.t0 from_gpa
    @ Asm.li Asm.t1 to_gpa
    @ Asm.li Asm.t2 (Int64.of_int (len / 8))
    @ [
        (* loop: *)
        Load { rd = 28; rs1 = Asm.t0; imm = 0L; width = D; unsigned = false };
        Store { rs1 = Asm.t1; rs2 = 28; imm = 0L; width = D };
        Op_imm (Add, Asm.t0, Asm.t0, 8L);
        Op_imm (Add, Asm.t1, Asm.t1, 8L);
        Op_imm (Add, Asm.t2, Asm.t2, -1L);
        Branch (Bne, Asm.t2, 0, -20L);
      ]

(* Benchmark-weight channel data plane: stage with a compact fill loop
   and skip the console status chatter of [chan_send]/[chan_recv_print]. *)
let chan_send_fill ~chan ~byte ~len =
  fill_bytes ~gpa:chan_send_buf_gpa ~byte ~len
  @ Asm.li Asm.a0 (Int64.of_int chan)
  @ Asm.li Asm.a1 chan_send_buf_gpa
  @ Asm.li Asm.a2 (Int64.of_int len)
  @ Asm.li Asm.a6 Zion.Ecall.fid_guest_chan_send
  @ Asm.li Asm.a7 Zion.Ecall.ext_zion
  @ [ Ecall ]

let chan_recv_quiet ~chan =
  store_u64 ~gpa:chan_recv_buf_gpa 0L
  @ Asm.li Asm.a0 (Int64.of_int chan)
  @ Asm.li Asm.a1 chan_recv_buf_gpa
  @ Asm.li Asm.a2 (Int64.of_int Zion.Layout.chan_max_msg)
  @ Asm.li Asm.a6 Zion.Ecall.fid_guest_chan_recv
  @ Asm.li Asm.a7 Zion.Ecall.ext_zion
  @ [ Ecall ]

let chan_direct_send ~chan ~from_a ~byte ~len =
  (* The zero-ecall data plane: the sender owns its directional half of
     the mapped ring page and publishes with three plain stores —
     payload, length, then the seq bump that makes them visible. *)
  let base =
    Int64.add
      (Zion.Layout.chan_slot_gpa chan)
      (if from_a then 0L else Int64.of_int Zion.Layout.chan_dir_off)
  in
  fill_bytes
    ~gpa:(Int64.add base (Int64.of_int Zion.Layout.chan_hdr_size))
    ~byte ~len
  @ store_u64 ~gpa:(Int64.add base 8L) (Int64.of_int len)
  @ Asm.li Asm.t0 base
  @ [
      Load { rd = Asm.t2; rs1 = Asm.t0; imm = 0L; width = D; unsigned = false };
      Op_imm (Add, Asm.t2, Asm.t2, 1L);
      Store { rs1 = Asm.t0; rs2 = Asm.t2; imm = 0L; width = D };
    ]
