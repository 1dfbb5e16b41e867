(** Confidential-VM migration images (the live-migration capability
    VirTEE advertises, §VI, realised for ZION).

    [Monitor.migrate_out_begin] snapshots a suspended CVM — every
    secure vCPU, the sealed measurement, and all mapped private pages —
    into a blob the *untrusted* hypervisor can carry: the payload is
    encrypted and authenticated under keys derived from the platform
    key, so the hypervisor can move or store it but neither read nor
    alter it. [Monitor.migrate_in_prepare] on the destination verifies
    and decrypts the blob and rebuilds the CVM inside fresh secure
    memory. Those two session calls are the only producer and the only
    consumer of blobs.

    Format (after the clear-text header "ZMIG2" + length): a 16-byte
    per-export session nonce, SIV-style synthetic IV (MAC of
    nonce + plaintext), AES-128-CBC ciphertext, HMAC-SHA256 tag over
    nonce + IV + ciphertext (encrypt-then-MAC). Keys: HKDF-like
    HMAC(platform_key, label). The nonce breaks export determinism:
    without it two exports of an unchanged CVM are byte-identical and
    the untrusted host can correlate them. The SM draws one nonce per
    outbound session from its DRBG and pins it for the session, so a
    recovery re-export is byte-identical to the first. *)

type vcpu_image = {
  vi_regs : int64 array;  (** 32 GPRs *)
  vi_pc : int64;
  vi_csrs : int64 array;  (** vsstatus..vsatp + hvip (8 values) *)
}

type image = {
  im_vcpus : vcpu_image list;
  im_measurement : string;
  im_pages : (int64 * string) list;  (** (gpa, 4 KiB contents) *)
}

val seal : nonce:string -> image -> string
(** Serialize, encrypt, and authenticate under [nonce] (16 bytes; longer
    or shorter strings are compressed through the MAC key). Equal
    nonces give equal blobs for an equal image; the caller picks a
    fresh nonce per export so distinct exports never collide. *)

val unseal : string -> (image, string) result
(** Verify and decrypt; [Error] on any tampering or truncation. Exactly
    one encoding of a sealed export unseals (a stretched length header
    is refused), so a blob's bytes identify the export. *)
