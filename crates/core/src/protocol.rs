//! The Co-Pilot wire protocol: what travels in mailbox words, SPE request
//! blocks, and completion words.
//!
//! An SPE-side `PI_Write`/`PI_Read` builds a 16-byte **request block** in
//! its local store — `[opcode, channel, buffer address, buffer length]` —
//! and posts the block's local-store address as a single word in its
//! outbound mailbox. The Co-Pilot reads the word, fetches the block through
//! the problem-state mapping, translates the buffer address to a main-
//! memory effective address, and services the request. Completion (or an
//! error) comes back as one word in the SPE's inbound mailbox. Keeping the
//! mailbox exchange to one word each way is what keeps the SPE-resident
//! runtime small and the latency close to a bare mailbox round trip.

use cp_mpisim::Msg;

/// SPE request opcode: this SPE is writing on the channel.
pub const OP_WRITE: u32 = 1;
/// SPE request opcode: this SPE wants to read from the channel.
pub const OP_READ: u32 = 2;
/// SPE request opcode: non-blocking poll — "does the channel have data
/// ready for me?" (the SPE-side `PI_ChannelHasData` extension).
pub const OP_POLL: u32 = 3;
/// SPE request opcode: an **eager inline write** — the payload travels in
/// the request block itself (immediately after the 16-byte header), so the
/// Co-Pilot needs no separate buffer translation + DMA round trip. Only
/// legal for payloads of at most [`EAGER_INLINE_MAX`] bytes.
pub const OP_WRITE_INLINE: u32 = 4;

/// Largest payload an eager inline transfer can carry: the inbound mailbox
/// is 4 words deep × 4 bytes, so 16 bytes is what one mailbox/control-word
/// exchange can move without falling back to a DMA round trip. This is
/// also the default `eager_threshold` of an eager-enabled channel.
pub const EAGER_INLINE_MAX: usize = 16;

/// MPI tag of the Co-Pilot shutdown message (top of the positive tag
/// space, far above any channel id).
pub const CP_SHUTDOWN_TAG: i32 = i32::MAX;

/// MPI tag of a Co-Pilot multicast bundle message: one wire message whose
/// payload carries several channels' worth of identical data, fanned out
/// locally by the Co-Pilot (the hierarchical broadcast extension; the
/// paper lists SPE collectives as future work).
pub const CP_MCAST_TAG: i32 = i32::MAX - 1;

/// MPI tag of a coalesced bundle envelope: several small writes on the
/// channels of one bundle, batched into a single wire message and unpacked
/// by the destination Co-Pilot (the vectored-coalescing extension; unlike
/// [`CP_MCAST_TAG`] each entry carries its own payload).
pub const CP_BUNDLE_TAG: i32 = i32::MAX - 2;

/// Encode a coalesced bundle envelope:
/// `[u32 n][u32 chan; n][u32 len; n][data...]` (all big-endian, payloads
/// concatenated in entry order).
pub fn encode_bundle(entries: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let total: usize = entries.iter().map(|(_, d)| d.len()).sum();
    let mut out = Vec::with_capacity(4 + 8 * entries.len() + total);
    out.extend_from_slice(&(entries.len() as u32).to_be_bytes());
    for (c, _) in entries {
        out.extend_from_slice(&c.to_be_bytes());
    }
    for (_, d) in entries {
        out.extend_from_slice(&(d.len() as u32).to_be_bytes());
    }
    for (_, d) in entries {
        out.extend_from_slice(d);
    }
    out
}

/// Decode a coalesced bundle envelope into `(channel, payload)` entries.
pub fn decode_bundle(bytes: &[u8]) -> Vec<(u32, Vec<u8>)> {
    let w = |i: usize| u32::from_be_bytes(bytes[i..i + 4].try_into().expect("bundle header"));
    let n = w(0) as usize;
    let mut entries = Vec::with_capacity(n);
    let mut off = 4 + 8 * n;
    for i in 0..n {
        let chan = w(4 + 4 * i);
        let len = w(4 + 4 * n + 4 * i) as usize;
        entries.push((chan, bytes[off..off + len].to_vec()));
        off += len;
    }
    entries
}

/// Encode a multicast payload: `[u32 n][u32 chan; n][data]`.
pub fn encode_mcast(chans: &[u32], data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 4 * chans.len() + data.len());
    out.extend_from_slice(&(chans.len() as u32).to_be_bytes());
    for c in chans {
        out.extend_from_slice(&c.to_be_bytes());
    }
    out.extend_from_slice(data);
    out
}

/// Decode a multicast payload into `(channels, data)`.
pub fn decode_mcast(bytes: &[u8]) -> (Vec<u32>, Vec<u8>) {
    let n = u32::from_be_bytes(bytes[0..4].try_into().expect("mcast header")) as usize;
    let mut chans = Vec::with_capacity(n);
    for i in 0..n {
        let off = 4 + 4 * i;
        chans.push(u32::from_be_bytes(
            bytes[off..off + 4].try_into().expect("mcast chan"),
        ));
    }
    (chans, bytes[4 + 4 * n..].to_vec())
}

/// The `(channel, payload)` entries a message to a Co-Pilot carries: each
/// channel of a multicast ([`CP_MCAST_TAG`]) with its own copy of the
/// payload, each entry of a coalesced bundle envelope ([`CP_BUNDLE_TAG`]),
/// or else the message itself on the channel its tag names.
pub fn decode_envelope(msg: Msg) -> impl Iterator<Item = (usize, Vec<u8>)> {
    let (mcast, bundle, plain) = match msg.tag {
        CP_MCAST_TAG => (Some(decode_mcast(&msg.data)), None, None),
        CP_BUNDLE_TAG => (None, Some(decode_bundle(&msg.data)), None),
        tag => (None, None, Some((tag as u32, msg.data))),
    };
    let copies =
        |(chans, data): (Vec<u32>, Vec<u8>)| chans.into_iter().map(move |c| (c, data.clone()));
    let entries = mcast
        .into_iter()
        .flat_map(copies)
        .chain(bundle.into_iter().flatten());
    entries.chain(plain).map(|(c, d)| (c as usize, d))
}

/// Size of a request block in SPE local store.
pub const REQ_BLOCK_BYTES: usize = 16;

/// An SPE request block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// [`OP_WRITE`] or [`OP_READ`].
    pub op: u32,
    /// Channel id.
    pub chan: u32,
    /// Local-store address of the data buffer.
    pub addr: u32,
    /// Buffer length: payload bytes for a write, capacity for a read.
    pub len: u32,
}

impl Request {
    /// Encode into the 16-byte local-store block layout.
    pub fn encode(&self) -> [u8; REQ_BLOCK_BYTES] {
        let mut b = [0u8; REQ_BLOCK_BYTES];
        b[0..4].copy_from_slice(&self.op.to_be_bytes());
        b[4..8].copy_from_slice(&self.chan.to_be_bytes());
        b[8..12].copy_from_slice(&self.addr.to_be_bytes());
        b[12..16].copy_from_slice(&self.len.to_be_bytes());
        b
    }
}

/// Completion-word error codes (delivered with the high bit set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionError {
    /// The incoming message does not fit the reader's local-store buffer.
    Overflow,
    /// Protocol violation (library bug or mismatched configuration).
    Internal,
    /// The channel's peer process is gone (a scripted SPE crash or rank
    /// death fired), so the request can never complete.
    PeerLost,
}

/// Completion-word flag: the payload of this (successful) completion was
/// delivered **inline** — it rides the same mailbox exchange as the
/// completion word instead of having been DMAed into the reader's
/// local-store buffer.
pub const COMPLETION_INLINE_FLAG: u32 = 0x4000_0000;

/// Encode a successful completion carrying the transferred byte count.
pub fn completion_ok(bytes: usize) -> u32 {
    debug_assert!(bytes < (1 << 30), "transfer too large for completion word");
    bytes as u32
}

/// Encode a successful completion whose payload was delivered inline
/// through the mailbox (see [`COMPLETION_INLINE_FLAG`]).
pub fn completion_ok_inline(bytes: usize) -> u32 {
    debug_assert!(bytes <= EAGER_INLINE_MAX, "inline payload too large");
    COMPLETION_INLINE_FLAG | bytes as u32
}

/// Was this (successful) completion's payload delivered inline?
pub fn completion_is_inline(word: u32) -> bool {
    word & 0x8000_0000 == 0 && word & COMPLETION_INLINE_FLAG != 0
}

/// Encode an error completion.
pub fn completion_err(e: CompletionError) -> u32 {
    0x8000_0000
        | match e {
            CompletionError::Overflow => 1,
            CompletionError::Internal => 2,
            CompletionError::PeerLost => 3,
        }
}

/// Decode a completion word (the inline flag, if set, is masked out of the
/// byte count — check it separately with [`completion_is_inline`]).
pub fn decode_completion(word: u32) -> Result<usize, CompletionError> {
    if word & 0x8000_0000 == 0 {
        Ok((word & !COMPLETION_INLINE_FLAG) as usize)
    } else {
        match word & 0x7FFF_FFFF {
            1 => Err(CompletionError::Overflow),
            3 => Err(CompletionError::PeerLost),
            _ => Err(CompletionError::Internal),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Read a request back from its block layout.
    fn decode(b: &[u8]) -> Request {
        let w = |i: usize| u32::from_be_bytes(b[i..i + 4].try_into().expect("block size"));
        Request {
            op: w(0),
            chan: w(4),
            addr: w(8),
            len: w(12),
        }
    }

    #[test]
    fn request_roundtrip() {
        let r = Request {
            op: OP_READ,
            chan: 42,
            addr: 0x3F00,
            len: 1600,
        };
        assert_eq!(decode(&r.encode()), r);
    }

    #[test]
    fn completion_roundtrip() {
        assert_eq!(decode_completion(completion_ok(1600)), Ok(1600));
        assert_eq!(decode_completion(completion_ok(0)), Ok(0));
        assert_eq!(
            decode_completion(completion_err(CompletionError::Overflow)),
            Err(CompletionError::Overflow)
        );
        assert_eq!(
            decode_completion(completion_err(CompletionError::Internal)),
            Err(CompletionError::Internal)
        );
        assert_eq!(
            decode_completion(completion_err(CompletionError::PeerLost)),
            Err(CompletionError::PeerLost)
        );
    }

    #[test]
    fn mcast_roundtrip() {
        let (chans, data) = decode_mcast(&encode_mcast(&[3, 7, 9], &[1, 2, 3]));
        assert_eq!(chans, vec![3, 7, 9]);
        assert_eq!(data, vec![1, 2, 3]);
        let (chans, data) = decode_mcast(&encode_mcast(&[], &[]));
        assert!(chans.is_empty() && data.is_empty());
    }

    #[test]
    fn bundle_roundtrip() {
        let entries = vec![
            (3u32, vec![1u8, 2, 3]),
            (7u32, Vec::new()),
            (9u32, vec![0xAA; 16]),
        ];
        assert_eq!(decode_bundle(&encode_bundle(&entries)), entries);
        assert!(decode_bundle(&encode_bundle(&[])).is_empty());
    }

    #[test]
    fn inline_completion_roundtrip() {
        let w = completion_ok_inline(12);
        assert!(completion_is_inline(w));
        assert_eq!(decode_completion(w), Ok(12));
        assert!(!completion_is_inline(completion_ok(12)));
        assert!(!completion_is_inline(completion_err(
            CompletionError::Overflow
        )));
        assert_eq!(decode_completion(completion_ok(12)), Ok(12));
    }

    #[test]
    fn inline_max_matches_mailbox_depth() {
        // 4-deep inbound mailbox × 4-byte words: what one control-word
        // exchange can carry.
        assert_eq!(EAGER_INLINE_MAX, 4 * 4);
    }

    #[test]
    fn bundle_tag_below_other_reserved_tags() {
        let order = [CP_BUNDLE_TAG, CP_MCAST_TAG, CP_SHUTDOWN_TAG];
        assert!(order.windows(2).all(|w| w[0] < w[1]));
    }
}
