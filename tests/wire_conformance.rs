//! Wire-size conformance tests against the paper's Table 3 field accounting.
//!
//! Every byte the experiment harnesses report flows through `wire_size` of one of the
//! three message families (Dolev, Bracha, the Bracha–Dolev `WireMessage`). These tests pin
//! the accounting to **hand-computed** Table 3 values at the edge cases the unit tests do
//! not cover: empty paths, maximal (`u16::MAX`-entry) paths, and zero-length payloads.
//!
//! Field sizes (Table 3): `mtype` 1 B, `s` 4 B, `bid` 4 B, `localPayloadID` 4 B,
//! `payloadSize` 4 B, `erId1`/`erId2` 4 B, `pathLen` 2 B, 4 B per path entry.

use brb_core::bracha::{BrachaKind, BrachaMessage};
use brb_core::cpa::CpaMessage;
use brb_core::dolev::DolevMessage;
use brb_core::dolev_routed::RoutedDolevMessage;
use brb_core::stack::WireCodec;
use brb_core::types::{BroadcastId, Content, Payload};
use brb_core::wire::{FieldPresence, MessageKind, PayloadRef, WireMessage};

/// The longest path the 2-byte `pathLen` field can describe.
const MAX_PATH: usize = u16::MAX as usize;

fn dolev(payload_len: usize, path_len: usize) -> DolevMessage {
    DolevMessage {
        content: Content::new(BroadcastId::new(3, 9), Payload::filled(0, payload_len)),
        path: (0..path_len).collect(),
    }
}

#[test]
fn dolev_empty_path_zero_payload_is_15_bytes() {
    // mtype(1) + s(4) + bid(4) + payloadSize(4) + payload(0) + pathLen(2) + path(0).
    assert_eq!(dolev(0, 0).wire_size(), 15);
}

#[test]
fn dolev_scales_linearly_in_path_and_payload() {
    // 15 B skeleton + payload bytes + 4 B per path entry.
    assert_eq!(dolev(16, 1).wire_size(), 15 + 16 + 4);
    assert_eq!(dolev(1024, 7).wire_size(), 15 + 1024 + 28);
}

#[test]
fn dolev_max_path_is_addressable_by_path_len_field() {
    // 15 + 4 * 65535 = 262_155.
    assert_eq!(dolev(0, MAX_PATH).wire_size(), 262_155);
}

#[test]
fn bracha_zero_payload_is_13_bytes() {
    // mtype(1) + s(4) + bid(4) + payloadSize(4): Bracha messages carry no path.
    let m = BrachaMessage {
        kind: BrachaKind::Ready,
        id: BroadcastId::new(0, 0),
        payload: Payload::filled(0, 0),
    };
    assert_eq!(m.wire_size(), 13);
}

#[test]
fn bracha_payload_is_accounted_byte_for_byte() {
    for (payload_len, expected) in [(16usize, 29usize), (1024, 1037)] {
        let m = BrachaMessage {
            kind: BrachaKind::Echo,
            id: BroadcastId::new(1, 2),
            payload: Payload::filled(7, payload_len),
        };
        assert_eq!(m.wire_size(), expected, "payload of {payload_len} B");
    }
}

fn wire(
    kind: MessageKind,
    payload: PayloadRef,
    path_len: usize,
    fields: FieldPresence,
) -> WireMessage {
    WireMessage {
        kind,
        id: BroadcastId::new(2, 5),
        originator: 4,
        originator2: if matches!(kind, MessageKind::EchoEcho | MessageKind::ReadyEcho) {
            Some(6)
        } else {
            None
        },
        payload,
        path: (0..path_len).collect(),
        fields,
    }
}

#[test]
fn bd_empty_path_still_pays_the_path_len_field() {
    // Full echo with an empty path: mtype(1) + s(4) + bid(4) + erId1(4) + payloadSize(4)
    // + payload(0) + pathLen(2) + path(0) = 19.
    let m = wire(
        MessageKind::Echo,
        PayloadRef::Inline(Payload::filled(0, 0)),
        0,
        FieldPresence::full(),
    );
    assert_eq!(m.wire_size(), 19);
}

#[test]
fn bd_max_path_full_echo() {
    // 19 B empty-path skeleton + 4 * 65535 path bytes.
    let m = wire(
        MessageKind::Echo,
        PayloadRef::Inline(Payload::filled(0, 0)),
        MAX_PATH,
        FieldPresence::full(),
    );
    assert_eq!(m.wire_size(), 19 + 4 * MAX_PATH);
}

#[test]
fn bd_zero_payload_announce_pays_only_the_local_id() {
    // Announce with empty payload: mtype(1) + s(4) + bid(4) + erId1(4)
    // + localPayloadID(4) + payloadSize(4) + payload(0) + pathLen(2) = 23.
    let m = wire(
        MessageKind::Echo,
        PayloadRef::Announce {
            local_id: 12,
            payload: Payload::filled(0, 0),
        },
        0,
        FieldPresence::full(),
    );
    assert_eq!(m.wire_size(), 23);
}

#[test]
fn bd_local_ref_with_every_field_elided_is_minimal() {
    // MBD.1 + MBD.5 steady state: mtype(1) + localPayloadID(4) only.
    let m = wire(
        MessageKind::Ready,
        PayloadRef::Local(3),
        0,
        FieldPresence {
            source: false,
            bid: false,
            originator: false,
            path: false,
        },
    );
    assert_eq!(m.wire_size(), 5);
}

#[test]
fn bd_merged_kinds_add_exactly_one_er_id() {
    // ReadyEcho vs Ready with identical other fields: + erId2(4).
    let base = wire(
        MessageKind::Ready,
        PayloadRef::Local(3),
        2,
        FieldPresence::full(),
    );
    let merged = wire(
        MessageKind::ReadyEcho,
        PayloadRef::Local(3),
        2,
        FieldPresence::full(),
    );
    assert_eq!(merged.wire_size(), base.wire_size() + 4);
    // Hand-computed: mtype(1) + s(4) + bid(4) + erId1(4) + erId2(4) + localPayloadID(4)
    // + pathLen(2) + path(8) = 31.
    assert_eq!(merged.wire_size(), 31);
}

#[test]
fn bd_wire_size_survives_the_codec_at_the_edges() {
    // wire_size is a pure function of the logical message: encoding and decoding an
    // edge-case message must preserve it exactly.
    for m in [
        wire(
            MessageKind::Send,
            PayloadRef::Inline(Payload::filled(0, 0)),
            0,
            FieldPresence::full(),
        ),
        wire(
            MessageKind::EchoEcho,
            PayloadRef::Announce {
                local_id: 1,
                payload: Payload::filled(9, 1),
            },
            MAX_PATH,
            FieldPresence::full(),
        ),
        wire(
            MessageKind::Ready,
            PayloadRef::Local(8),
            0,
            FieldPresence {
                source: false,
                bid: false,
                originator: false,
                path: false,
            },
        ),
    ] {
        let decoded = WireMessage::decode(&m.encode()).expect("edge-case message decodes");
        assert_eq!(decoded.wire_size(), m.wire_size());
    }
}

/// The four content-carrying codecs' frames, pinned byte for byte (`WireMessage`'s are
/// pinned in `brb_core::wire`'s unit tests). Every integer is big-endian; all four open
/// with the same `source | seq | payloadSize | payload` head, behind Bracha's kind byte.
#[test]
fn content_frame_layouts_are_pinned_byte_for_byte() {
    let cpa = CpaMessage {
        content: Content::new(BroadcastId::new(3, 9), Payload::from("ab")),
    };
    #[rustfmt::skip]
    let expected: &[u8] = &[
        0, 0, 0, 3, // source
        0, 0, 0, 9, // seq
        0, 0, 0, 2, b'a', b'b', // payloadSize, payload
    ];
    assert_eq!(&cpa.encode_wire()[..], expected);

    let dolev = DolevMessage {
        content: Content::new(BroadcastId::new(3, 7), Payload::from("d")),
        path: vec![1, 258],
    };
    #[rustfmt::skip]
    let expected: &[u8] = &[
        0, 0, 0, 3, // source
        0, 0, 0, 7, // seq
        0, 0, 0, 1, b'd', // payloadSize, payload
        0, 2, // pathLen
        0, 0, 0, 1, 0, 0, 1, 2, // path
    ];
    assert_eq!(&dolev.encode_wire()[..], expected);

    let routed = RoutedDolevMessage {
        origin: 2,
        seq: 5,
        payload: Payload::from("r"),
        route: vec![2, 4, 6],
        position: 1,
    };
    #[rustfmt::skip]
    let expected: &[u8] = &[
        0, 0, 0, 2, // origin
        0, 0, 0, 5, // seq
        0, 0, 0, 1, b'r', // payloadSize, payload
        0, 3, // route length
        0, 1, // position
        0, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0, 6, // route
    ];
    assert_eq!(&routed.encode_wire()[..], expected);

    for (kind, tag) in [
        (BrachaKind::Send, 0u8),
        (BrachaKind::Echo, 1),
        (BrachaKind::Ready, 2),
    ] {
        let bracha = BrachaMessage {
            kind,
            id: BroadcastId::new(1, 0x0102_0304),
            payload: Payload::from("xy"),
        };
        #[rustfmt::skip]
        let expected: &[u8] = &[
            tag, // mtype
            0, 0, 0, 1, // source
            1, 2, 3, 4, // bid
            0, 0, 0, 2, b'x', b'y', // payloadSize, payload
        ];
        assert_eq!(&bracha.encode_wire()[..], expected, "{kind:?}");
    }
}
