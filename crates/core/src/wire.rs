//! Wire format of the Bracha–Dolev protocol combination.
//!
//! The paper's evaluation measures *network consumption* as the number of bytes put on the
//! links, computed from the message-field sizes of Table 3:
//!
//! | field            | description                                   | size |
//! |------------------|-----------------------------------------------|------|
//! | `mtype`          | message type                                  | 1 B  |
//! | `s`              | ID of the source process                      | 4 B  |
//! | `bid`            | message (broadcast) ID                        | 4 B  |
//! | `localPayloadID` | local ID for the payload (MBD.1)              | 4 B  |
//! | `payloadSize`    | payload size                                  | 4 B  |
//! | `payload`        | payload data                                  | variable |
//! | `erId1`          | Echo/Ready sender ID                          | 4 B  |
//! | `erId2`          | embedded Echo/Ready sender ID (merged types)  | 4 B  |
//! | `pathLen`        | path length                                   | 2 B  |
//! | `path`           | list of process IDs                           | 4 B per ID |
//!
//! [`WireMessage::wire_size`] reproduces exactly this accounting, taking into account which
//! optional fields are present (modifications MBD.1 and MBD.5 elide fields). The crate also
//! provides a real binary encoding ([`WireMessage::encode`] / [`WireMessage::decode`], and
//! its [`WireCodec`] impl) used by every deployment; the binary encoding adds one
//! presence-bitmask byte per message so that decoding is unambiguous, which is excluded
//! from the Table 3 accounting.
//!
//! The other stacks' messages (CPA, Dolev, routed Dolev, Bracha) carry their content as the
//! same `s | bid | payloadSize | payload` run of fields; `put_content_head` and
//! `split_content_head` write and parse it once for all four codecs.

use bytes::{Buf, BufMut, Bytes};

use crate::stack::WireCodec;
use crate::types::{BroadcastId, LocalPayloadId, Payload, ProcessId};

/// Size in bytes of the `mtype` field.
pub const FIELD_MTYPE: usize = 1;
/// Size in bytes of a process identifier on the wire (`s`, `erId1`, `erId2`, path entries).
pub const FIELD_PROCESS_ID: usize = 4;
/// Size in bytes of the broadcast sequence number `bid`.
pub const FIELD_BID: usize = 4;
/// Size in bytes of the local payload identifier (MBD.1).
pub const FIELD_LOCAL_PAYLOAD_ID: usize = 4;
/// Size in bytes of the `payloadSize` field.
pub const FIELD_PAYLOAD_SIZE: usize = 4;
/// Size in bytes of the `pathLen` field.
pub const FIELD_PATH_LEN: usize = 2;

/// Length of a binary frame's fixed header: tag and presence bytes, then `s`, `bid`,
/// `erId1`, `erId2`, the local payload ID and `payloadSize`, four bytes each.
const HEADER_LEN: usize = 2 + 6 * 4;

/// Length of the content head before its payload: `s`, `bid` and `payloadSize`.
const CONTENT_HEAD_LEN: usize = FIELD_PROCESS_ID + FIELD_BID + FIELD_PAYLOAD_SIZE;

/// Appends the content head the CPA, Dolev, routed-Dolev and Bracha frames share:
/// `s | bid | payloadSize | payload`, integers big-endian.
#[inline]
pub(crate) fn put_content_head(buf: &mut Vec<u8>, id: BroadcastId, payload: &Payload) {
    // One block, as `WireMessage`'s header: three small extends cost more per frame.
    let mut head = [0u8; CONTENT_HEAD_LEN];
    let fields = [id.source as u32, id.seq, payload.len() as u32];
    for (slot, field) in head.chunks_exact_mut(4).zip(fields) {
        slot.copy_from_slice(&field.to_be_bytes());
    }
    buf.extend_from_slice(&head);
    buf.extend_from_slice(payload.as_bytes());
}

/// Parses the head [`put_content_head`] writes without copying: the broadcast id, the
/// payload bytes and the rest of the frame. `None` if the frame ends inside the head.
#[inline]
pub(crate) fn split_content_head(frame: &[u8]) -> Option<(BroadcastId, &[u8], &[u8])> {
    let (head, rest) = frame.split_first_chunk::<CONTENT_HEAD_LEN>()?;
    let id = BroadcastId::new(be_u32(head, 0) as ProcessId, be_u32(head, 4));
    let (payload, rest) = rest.split_at_checked(be_u32(head, 8) as usize)?;
    Some((id, payload, rest))
}

/// Appends `ids` as big-endian process ids (a `path` field), the inverse of [`read_ids`].
#[inline]
pub(crate) fn put_ids(buf: &mut Vec<u8>, ids: &[ProcessId]) {
    buf.reserve(FIELD_PROCESS_ID * ids.len());
    for &id in ids {
        buf.extend_from_slice(&(id as u32).to_be_bytes());
    }
}

/// Reads `bytes` as exactly `count` big-endian process ids (a `path` field); `None` if
/// its length is anything else.
pub(crate) fn read_ids(bytes: &[u8], count: usize) -> Option<Vec<ProcessId>> {
    (bytes.len() == FIELD_PROCESS_ID * count).then(|| {
        bytes
            .chunks_exact(FIELD_PROCESS_ID)
            .map(|id| u32::from_be_bytes(id.try_into().expect("4 bytes")) as ProcessId)
            .collect()
    })
}

/// Reads the big-endian `u32` at byte `at` of a fixed-size head.
fn be_u32<const N: usize>(head: &[u8; N], at: usize) -> u32 {
    u32::from_be_bytes([head[at], head[at + 1], head[at + 2], head[at + 3]])
}

/// Reads the `i`-th four-byte field of a [`WireMessage`] frame's fixed header.
fn header_field(header: &[u8; HEADER_LEN], i: usize) -> u32 {
    be_u32(header, 2 + 4 * i)
}

/// Message types exchanged by the Bracha–Dolev combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MessageKind {
    /// Bracha SEND message (phase 1).
    Send,
    /// Bracha ECHO message (phase 2).
    Echo,
    /// Bracha READY message (phase 3).
    Ready,
    /// Merged message carrying a relayed Echo and the sender's own Echo (MBD.3).
    EchoEcho,
    /// Merged message carrying the sender's own Ready and a relayed Echo (MBD.4).
    ReadyEcho,
}

impl MessageKind {
    /// All message kinds, in wire-tag order.
    pub const ALL: [MessageKind; 5] = [
        MessageKind::Send,
        MessageKind::Echo,
        MessageKind::Ready,
        MessageKind::EchoEcho,
        MessageKind::ReadyEcho,
    ];

    fn tag(self) -> u8 {
        match self {
            MessageKind::Send => 0,
            MessageKind::Echo => 1,
            MessageKind::Ready => 2,
            MessageKind::EchoEcho => 3,
            MessageKind::ReadyEcho => 4,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        Self::ALL.get(tag as usize).copied()
    }
}

/// How the payload data is referenced by a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PayloadRef {
    /// The full payload data is carried inline (`payloadSize` + `payload` fields).
    Inline(Payload),
    /// The payload is carried inline *and* the sender announces the link-local identifier
    /// it will use for it in subsequent messages (MBD.1 first transmission on a link).
    Announce {
        /// Link-local identifier chosen by the sender.
        local_id: LocalPayloadId,
        /// Full payload data.
        payload: Payload,
    },
    /// Only the sender's link-local identifier is carried (MBD.1 subsequent transmissions);
    /// the receiver resolves it against the sender's earlier announcement.
    Local(LocalPayloadId),
}

impl PayloadRef {
    /// The inline payload, if this reference carries one.
    pub fn payload(&self) -> Option<&Payload> {
        match self {
            PayloadRef::Inline(p) => Some(p),
            PayloadRef::Announce { payload, .. } => Some(payload),
            PayloadRef::Local(_) => None,
        }
    }

    /// The link-local identifier, if this reference carries one.
    pub fn local_id(&self) -> Option<LocalPayloadId> {
        match self {
            PayloadRef::Inline(_) => None,
            PayloadRef::Announce { local_id, .. } => Some(*local_id),
            PayloadRef::Local(id) => Some(*id),
        }
    }
}

/// Which optional header fields are physically present on the wire.
///
/// The protocol engine fills this in when creating a message, according to the enabled
/// modifications (MBD.5 elides the source ID of single-hop Send messages and the sender
/// field of newly created Echo/Ready messages; MBD.1 elides `s`/`bid` when a local payload
/// ID is used).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldPresence {
    /// Whether the source process ID `s` is carried.
    pub source: bool,
    /// Whether the broadcast sequence number `bid` is carried.
    pub bid: bool,
    /// Whether the Echo/Ready originator `erId1` is carried.
    pub originator: bool,
    /// Whether a `pathLen`/`path` field is carried (single-hop Send messages have none).
    pub path: bool,
}

impl FieldPresence {
    /// Every optional field present (the format of the unmodified protocol combination).
    pub fn full() -> Self {
        Self {
            source: true,
            bid: true,
            originator: true,
            path: true,
        }
    }
}

impl Default for FieldPresence {
    fn default() -> Self {
        Self::full()
    }
}

/// A message as put on an authenticated link by the Bracha–Dolev protocol combination.
///
/// The struct always carries the full logical information (so that the protocol logic never
/// depends on which fields were elided); [`FieldPresence`] records which fields are counted
/// by [`WireMessage::wire_size`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMessage {
    /// Message type.
    pub kind: MessageKind,
    /// Broadcast identifier `(s, bid)` the message refers to.
    pub id: BroadcastId,
    /// Creator of the Echo/Ready (`erId1`). For Send messages this equals the source.
    pub originator: ProcessId,
    /// Embedded second originator (`erId2`), used by Echo_Echo and Ready_Echo messages.
    pub originator2: Option<ProcessId>,
    /// Payload reference.
    pub payload: PayloadRef,
    /// Dissemination path: labels of the processes traversed so far (excluding the current
    /// sender, which the receiver learns from the authenticated channel).
    pub path: Vec<ProcessId>,
    /// Which optional fields are physically present.
    pub fields: FieldPresence,
}

impl WireMessage {
    /// Number of bytes this message occupies on the wire, following Table 3 of the paper
    /// and the field-elision rules of MBD.1/MBD.5.
    pub fn wire_size(&self) -> usize {
        let mut size = FIELD_MTYPE;
        if self.fields.source {
            size += FIELD_PROCESS_ID;
        }
        if self.fields.bid {
            size += FIELD_BID;
        }
        if self.fields.originator {
            size += FIELD_PROCESS_ID;
        }
        if self.originator2.is_some() {
            size += FIELD_PROCESS_ID;
        }
        size += match &self.payload {
            PayloadRef::Inline(p) => FIELD_PAYLOAD_SIZE + p.len(),
            PayloadRef::Announce { payload, .. } => {
                FIELD_LOCAL_PAYLOAD_ID + FIELD_PAYLOAD_SIZE + payload.len()
            }
            PayloadRef::Local(_) => FIELD_LOCAL_PAYLOAD_ID,
        };
        if self.fields.path {
            size += FIELD_PATH_LEN + FIELD_PROCESS_ID * self.path.len();
        }
        size
    }

    /// Encodes the message into a binary frame (used by the threaded runtime).
    ///
    /// The frame layout is: tag byte, presence bitmask byte, then the present fields in
    /// Table 3 order, all integers big-endian.
    pub fn encode(&self) -> Bytes {
        let payload_len = self.payload.payload().map_or(0, Payload::len);
        let mut buf = Vec::with_capacity(
            HEADER_LEN + payload_len + FIELD_PATH_LEN + FIELD_PROCESS_ID * self.path.len(),
        );
        self.encode_into(&mut buf);
        Bytes::from(buf)
    }

    /// Appends the frame encoding of [`WireMessage::encode`] to an existing buffer —
    /// the arena-backed path, staging a whole burst of frames in one reused buffer.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let mut mask = 0u8;
        if self.fields.source {
            mask |= 1;
        }
        if self.fields.bid {
            mask |= 1 << 1;
        }
        if self.fields.originator {
            mask |= 1 << 2;
        }
        if self.originator2.is_some() {
            mask |= 1 << 3;
        }
        if self.fields.path {
            mask |= 1 << 4;
        }
        let (local_id, payload) = match &self.payload {
            PayloadRef::Inline(p) => {
                mask |= 1 << 5;
                (0, Some(p))
            }
            PayloadRef::Announce { local_id, payload } => {
                mask |= 1 << 6;
                (*local_id, Some(payload))
            }
            PayloadRef::Local(id) => {
                mask |= 1 << 7;
                (*id, None)
            }
        };
        let payload = payload.map(Payload::as_bytes).unwrap_or_default();
        // The logical identifiers are always encoded so that decoding does not need any
        // out-of-band context; `wire_size` (not the encoded length) is what the experiment
        // harness accounts. The fixed header goes out as one block, the path as plain
        // slice appends.
        let mut header = [0u8; HEADER_LEN];
        header[0] = self.kind.tag();
        header[1] = mask;
        let fields = [
            self.id.source as u32,
            self.id.seq,
            self.originator as u32,
            self.originator2.map(|p| p as u32).unwrap_or(u32::MAX),
            local_id,
            payload.len() as u32,
        ];
        for (slot, field) in header[2..].chunks_exact_mut(4).zip(fields) {
            slot.copy_from_slice(&field.to_be_bytes());
        }
        buf.extend_from_slice(&header);
        buf.extend_from_slice(payload);
        buf.extend_from_slice(&(self.path.len() as u16).to_be_bytes());
        put_ids(buf, &self.path);
    }

    /// Decodes a frame produced by [`WireMessage::encode`].
    ///
    /// Returns `None` if the frame is malformed.
    pub fn decode(frame: &[u8]) -> Option<Self> {
        let (header, frame) = frame.split_first_chunk::<HEADER_LEN>()?;
        let kind = MessageKind::from_tag(header[0])?;
        let mask = header[1];
        let field = |i| header_field(header, i);
        let source = field(0) as ProcessId;
        let seq = field(1);
        let originator = field(2) as ProcessId;
        let originator2_raw = field(3);
        let local_id = field(4);
        let (payload_bytes, rest) = frame.split_at_checked(field(5) as usize)?;
        let (path_len, ids) = rest.split_first_chunk::<2>()?;
        let path = read_ids(ids, u16::from_be_bytes(*path_len) as usize)?;
        let payload = if mask & (1 << 5) != 0 {
            PayloadRef::Inline(Payload::new(payload_bytes))
        } else if mask & (1 << 6) != 0 {
            PayloadRef::Announce {
                local_id,
                payload: Payload::new(payload_bytes),
            }
        } else if mask & (1 << 7) != 0 {
            PayloadRef::Local(local_id)
        } else {
            return None;
        };
        Some(WireMessage {
            kind,
            id: BroadcastId::new(source, seq),
            originator,
            originator2: if mask & (1 << 3) != 0 {
                Some(originator2_raw as ProcessId)
            } else {
                None
            },
            payload,
            path,
            fields: FieldPresence {
                source: mask & 1 != 0,
                bid: mask & (1 << 1) != 0,
                originator: mask & (1 << 2) != 0,
                path: mask & (1 << 4) != 0,
            },
        })
    }
}

impl WireCodec for WireMessage {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        WireMessage::encode_into(self, buf)
    }

    fn encode_wire(&self) -> Bytes {
        self.encode()
    }

    fn decode_wire(frame: &[u8]) -> Option<Self> {
        WireMessage::decode(frame)
    }

    fn peek_broadcast_id(frame: &[u8]) -> Option<BroadcastId> {
        let header = frame.first_chunk::<HEADER_LEN>()?;
        let source = header_field(header, 0) as ProcessId;
        Some(BroadcastId::new(source, header_field(header, 1)))
    }
}

/// Coalesces a burst of encoded frames into one length-prefixed batch buffer.
///
/// Layout: `count: u32`, then per frame `len: u32` followed by the frame bytes, all
/// big-endian. [`split_batch`] recovers the individual frames as zero-copy
/// [`Bytes::slice`] views of the batch buffer. A hot path writes the layout into reused
/// scratch space with [`encode_batch_into`] instead.
///
/// An empty slice encodes to the 4-byte `count = 0` batch, and a single-frame batch is
/// a valid (if pointless) degenerate case — both round-trip through [`split_batch`].
pub fn encode_batch(frames: &[Bytes]) -> Bytes {
    let total = 4 + frames.iter().map(|frame| 4 + frame.len()).sum::<usize>();
    let mut buf = Vec::with_capacity(total);
    encode_batch_into(frames.iter().map(|frame| &frame[..]), &mut buf);
    Bytes::from(buf)
}

/// Clears `buf` and writes `frames` into it in the [`encode_batch`] layout. A `buf`
/// reused across bursts keeps its capacity, so a burst costs no allocation here.
pub fn encode_batch_into<'a>(frames: impl IntoIterator<Item = &'a [u8]>, buf: &mut Vec<u8>) {
    buf.clear();
    buf.put_u32(0); // the frame count, written last
    let mut count = 0u32;
    for frame in frames {
        buf.put_u32(frame.len() as u32);
        buf.put_slice(frame);
        count += 1;
    }
    buf[..4].copy_from_slice(&count.to_be_bytes());
}

/// Splits a batch buffer produced by [`encode_batch`] back into its frames.
///
/// Each returned frame is a zero-copy view sharing the batch's allocation. Returns
/// `None` on any framing violation: a truncated header, a frame length running past the
/// end of the buffer, or trailing bytes after the last frame.
pub fn split_batch(batch: &Bytes) -> Option<Vec<Bytes>> {
    let mut frames = Vec::new();
    split_batch_into(batch, &mut frames).then_some(frames)
}

/// [`split_batch`] into a caller's vector: appends the batch's frames to `frames` and
/// returns `true`, or, on a framing violation, leaves `frames` as it was and returns
/// `false`. A vector reused across batches keeps its capacity, so splitting allocates
/// nothing.
pub fn split_batch_into(batch: &Bytes, frames: &mut Vec<Bytes>) -> bool {
    let before = frames.len();
    let mut cursor: &[u8] = batch;
    if cursor.remaining() < 4 {
        return false;
    }
    let count = cursor.get_u32() as usize;
    frames.reserve(count.min(1024));
    let mut offset = 4usize;
    for _ in 0..count {
        if cursor.remaining() < 4 {
            break;
        }
        let len = cursor.get_u32() as usize;
        offset += 4;
        if cursor.remaining() < len {
            break;
        }
        frames.push(batch.slice(offset..offset + len));
        cursor.advance(len);
        offset += len;
    }
    let whole = frames.len() - before == count && cursor.remaining() == 0;
    if !whole {
        frames.truncate(before);
    }
    whole
}

/// A burst-granularity frame arena: the buffer-pool discipline of the steady-state
/// encode path.
///
/// Protocol engines produce *bursts* of outbound frames (one engine step emits many
/// sends). Instead of allocating one `Vec` per frame, callers write every frame of a
/// burst into the arena's staging buffer ([`WireArena::push_with`]) and then
/// [`WireArena::seal`] the burst: the staged bytes are copied into one exact-size shared
/// [`Bytes`] and each frame comes back as a zero-copy slice of it. The staging buffer and
/// the list of slices keep their capacity across bursts, so once they have grown to the
/// largest burst, sealing a burst allocates only its shared buffer (one block, bytes and
/// reference count together), and sealing an empty burst allocates nothing.
#[derive(Debug, Default)]
pub struct WireArena {
    staging: Vec<u8>,
    marks: Vec<usize>,
    sealed: Vec<Bytes>,
}

impl WireArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one frame to the current burst: `write` receives the staging buffer and
    /// appends the frame's encoding to it. Returns the frame's index within the burst.
    pub fn push_with(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> usize {
        self.marks.push(self.staging.len());
        write(&mut self.staging);
        self.marks.len() - 1
    }

    /// Number of frames staged in the current burst.
    pub fn frames(&self) -> usize {
        self.marks.len()
    }

    /// Copies the current burst into one shared allocation and yields the staged frames
    /// as zero-copy views of it, in push order. The arena is left empty, ready for the
    /// next burst, with every buffer's capacity kept.
    pub fn seal(&mut self) -> std::vec::Drain<'_, Bytes> {
        if !self.marks.is_empty() {
            let data = Bytes::copy_from_slice(&self.staging);
            let ends = self.marks[1..].iter().copied().chain([data.len()]);
            let frames = self.marks.iter().zip(ends);
            self.sealed
                .extend(frames.map(|(&start, end)| data.slice(start..end)));
            self.staging.clear();
            self.marks.clear();
        }
        self.sealed.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_message() -> WireMessage {
        WireMessage {
            kind: MessageKind::Echo,
            id: BroadcastId::new(3, 7),
            originator: 5,
            originator2: None,
            payload: PayloadRef::Inline(Payload::filled(1, 16)),
            path: vec![2, 9],
            fields: FieldPresence::full(),
        }
    }

    #[test]
    fn wire_size_matches_table3_for_full_echo() {
        // mtype(1) + s(4) + bid(4) + erId1(4) + payloadSize(4) + payload(16)
        //   + pathLen(2) + path(2 * 4) = 43.
        assert_eq!(sample_message().wire_size(), 43);
    }

    #[test]
    fn wire_size_of_paper_example_send() {
        // Without MBD.1, Send messages are [SEND, bid, payloadSize, payload] under MBD.5
        // (no source, no path, no originator): 1 + 4 + 4 + 1024 = 1033.
        let m = WireMessage {
            kind: MessageKind::Send,
            id: BroadcastId::new(0, 1),
            originator: 0,
            originator2: None,
            payload: PayloadRef::Inline(Payload::filled(0, 1024)),
            path: vec![],
            fields: FieldPresence {
                source: false,
                bid: true,
                originator: false,
                path: false,
            },
        };
        assert_eq!(m.wire_size(), 1033);
    }

    #[test]
    fn wire_size_with_local_id_only() {
        // [ECHO, erId1, localId, path of 3] = 1 + 4 + 4 + 2 + 12 = 23.
        let m = WireMessage {
            kind: MessageKind::Echo,
            id: BroadcastId::new(0, 1),
            originator: 4,
            originator2: None,
            payload: PayloadRef::Local(17),
            path: vec![1, 2, 3],
            fields: FieldPresence {
                source: false,
                bid: false,
                originator: true,
                path: true,
            },
        };
        assert_eq!(m.wire_size(), 23);
    }

    #[test]
    fn wire_size_of_announce_includes_local_id_and_payload() {
        let m = WireMessage {
            payload: PayloadRef::Announce {
                local_id: 9,
                payload: Payload::filled(0, 16),
            },
            ..sample_message()
        };
        // 43 + localPayloadID(4) = 47.
        assert_eq!(m.wire_size(), 47);
    }

    #[test]
    fn wire_size_of_merged_message_counts_both_er_ids() {
        let m = WireMessage {
            kind: MessageKind::ReadyEcho,
            originator2: Some(8),
            ..sample_message()
        };
        assert_eq!(m.wire_size(), 47);
    }

    #[test]
    fn encode_decode_roundtrip_inline() {
        let m = sample_message();
        let decoded = WireMessage::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn encode_decode_roundtrip_all_kinds_and_payload_refs() {
        for kind in MessageKind::ALL {
            for payload in [
                PayloadRef::Inline(Payload::from("abc")),
                PayloadRef::Announce {
                    local_id: 3,
                    payload: Payload::from("xyz"),
                },
                PayloadRef::Local(12),
            ] {
                let m = WireMessage {
                    kind,
                    id: BroadcastId::new(1, 2),
                    originator: 6,
                    originator2: if kind == MessageKind::EchoEcho {
                        Some(7)
                    } else {
                        None
                    },
                    payload: payload.clone(),
                    path: vec![0, 3, 4],
                    fields: FieldPresence {
                        source: true,
                        bid: false,
                        originator: true,
                        path: true,
                    },
                };
                let decoded = WireMessage::decode(&m.encode()).unwrap();
                assert_eq!(decoded, m);
            }
        }
    }

    #[test]
    fn frame_layout_is_pinned_byte_for_byte() {
        let mut expected = vec![1, 0b0011_0111];
        for field in [3u32, 7, 5, u32::MAX, 0, 16] {
            expected.extend(field.to_be_bytes());
        }
        expected.extend([1; 16]);
        expected.extend([0, 2, 0, 0, 0, 2, 0, 0, 0, 9]);
        assert_eq!(sample_message().encode().to_vec(), expected);
        let mut local = sample_message();
        local.kind = MessageKind::ReadyEcho;
        local.originator2 = Some(4);
        local.payload = PayloadRef::Local(6);
        local.path.clear();
        let mut expected = vec![4, 0b1001_1111];
        for field in [3u32, 7, 5, 4, 6, 0] {
            expected.extend(field.to_be_bytes());
        }
        expected.extend([0, 0]);
        assert_eq!(local.encode().to_vec(), expected);
        // A long path whose first id has four distinct bytes pins the entries' byte order.
        let mut long = sample_message();
        long.path = std::iter::once(0x0102_0304).chain(0..19).collect();
        let mut expected = sample_message().encode()[..HEADER_LEN + 16].to_vec();
        expected.extend([0, 20, 1, 2, 3, 4]);
        for id in 0..19u8 {
            expected.extend([0, 0, 0, id]);
        }
        assert_eq!(long.encode().to_vec(), expected);
        assert_eq!(WireMessage::decode(&long.encode()), Some(long));
    }

    #[test]
    fn decode_rejects_truncated_frames() {
        let m = sample_message();
        let frame = m.encode();
        for cut in [0, 1, 5, frame.len() - 1] {
            assert!(WireMessage::decode(&frame[..cut]).is_none(), "cut at {cut}");
        }
        assert!(WireMessage::decode(&[]).is_none());
    }

    #[test]
    fn decode_rejects_unknown_kind() {
        let mut frame = sample_message().encode().to_vec();
        frame[0] = 99;
        assert!(WireMessage::decode(&frame).is_none());
    }

    #[test]
    fn payload_ref_accessors() {
        let p = Payload::from("zz");
        assert_eq!(PayloadRef::Inline(p.clone()).payload(), Some(&p));
        assert_eq!(PayloadRef::Inline(p.clone()).local_id(), None);
        assert_eq!(
            PayloadRef::Announce {
                local_id: 4,
                payload: p.clone()
            }
            .local_id(),
            Some(4)
        );
        assert_eq!(PayloadRef::Local(8).payload(), None);
        assert_eq!(PayloadRef::Local(8).local_id(), Some(8));
    }

    #[test]
    fn message_kind_tags_roundtrip() {
        for kind in MessageKind::ALL {
            assert_eq!(MessageKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(MessageKind::from_tag(200), None);
    }

    #[test]
    fn batch_roundtrips_including_empty_and_single() {
        for frames in [
            vec![],
            vec![Bytes::from_static(b"only")],
            vec![
                Bytes::from_static(b""),
                Bytes::from_static(b"a"),
                Bytes::from_static(b"frame-two"),
            ],
        ] {
            let batch = encode_batch(&frames);
            let split = split_batch(&batch).expect("well-formed batch splits");
            assert_eq!(split, frames);
        }
    }

    #[test]
    fn split_batch_rejects_truncation_and_trailing_bytes() {
        let frames = vec![Bytes::from_static(b"abc"), Bytes::from_static(b"defg")];
        let batch = encode_batch(&frames);
        for cut in 0..batch.len() {
            assert!(
                split_batch(&batch.slice(..cut)).is_none(),
                "truncation at {cut} must be rejected"
            );
        }
        let mut extended = batch.to_vec();
        extended.push(0);
        assert!(split_batch(&Bytes::from(extended)).is_none());
    }

    #[test]
    fn arena_seals_bursts_into_zero_copy_slices() {
        let mut arena = WireArena::new();
        assert_eq!(arena.frames(), 0);
        arena.push_with(|buf| buf.put_slice(b"first"));
        arena.push_with(|_| {});
        arena.push_with(|buf| buf.put_slice(b"third"));
        assert_eq!(arena.frames(), 3);
        let frames: Vec<Bytes> = arena.seal().collect();
        assert_eq!(frames.len(), 3);
        assert_eq!(&frames[0][..], b"first");
        assert!(frames[1].is_empty());
        assert_eq!(&frames[2][..], b"third");
        // One shared buffer, sliced in push order.
        assert_eq!(frames[2].as_ptr(), frames[0].as_ptr().wrapping_add(5));
        // The arena resets for the next burst, and an empty burst seals to nothing.
        assert_eq!(arena.frames(), 0);
        assert_eq!(arena.seal().count(), 0);
        arena.push_with(|buf| buf.put_slice(b"next"));
        assert_eq!(
            arena.seal().collect::<Vec<_>>(),
            [Bytes::from_static(b"next")]
        );
    }

    #[test]
    fn arena_frames_batch_and_split_back() {
        let mut arena = WireArena::new();
        let encoded = sample_message().encode();
        arena.push_with(|buf| buf.put_slice(&encoded));
        arena.push_with(|buf| buf.put_slice(&encoded));
        let frames: Vec<Bytes> = arena.seal().collect();
        let batch = encode_batch(&frames);
        for frame in split_batch(&batch).unwrap() {
            assert_eq!(WireMessage::decode(&frame).unwrap(), sample_message());
        }
    }
}
