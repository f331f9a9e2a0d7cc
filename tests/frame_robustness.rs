//! Fuzz-style robustness suite for the wire codec: whatever bytes
//! arrive — truncated, flipped, oversized, or pure noise — decoding
//! must return a typed [`FrameError`]/[`NetError`], never panic, and
//! never allocate on the say-so of a corrupt length prefix.
//!
//! Deterministic by construction: all mutations are drawn from seeded
//! `SplitMix64` streams, so any failure replays exactly.

use adaptagg::net::{
    frame, Control, DataKind, FrameError, Message, NetError, Payload, SplitMix64, WireFrame,
    MAX_FRAME_BYTES,
};
use adaptagg::model::{ticks_to_ms, MAX_TICKS};
use adaptagg::storage::Page;
use std::io::Cursor;

fn sample_page(tuples: usize) -> Page {
    let mut p = Page::new(1024);
    for i in 0..tuples {
        assert!(p
            .try_push(&[
                adaptagg::model::Value::Int(i as i64),
                adaptagg::model::Value::Float(i as f64 * 0.5),
            ])
            .unwrap());
    }
    p
}

/// A corpus covering every frame tag, both payload kinds, and every
/// control variant — the codec's full surface.
fn corpus() -> Vec<WireFrame> {
    let msg = |payload| {
        WireFrame::Msg(Message {
            from: 2,
            seq: 99,
            sent_at_ms: 1234.5,
            payload,
        })
    };
    vec![
        WireFrame::Hello { node: 1, nodes: 4 },
        WireFrame::Heartbeat { node: 3 },
        WireFrame::Bye { node: 0 },
        msg(Payload::Data {
            kind: DataKind::Raw,
            page: sample_page(7),
        }),
        msg(Payload::Data {
            kind: DataKind::Partial,
            page: sample_page(0),
        }),
        msg(Payload::Control(Control::EndOfStream)),
        msg(Payload::Control(Control::EndOfPhase { groups_seen: 42 })),
        msg(Payload::Control(Control::SamplingDecision {
            use_repartitioning: true,
            groups_in_sample: 17,
        })),
        msg(Payload::Control(Control::Abort {
            origin: 3,
            reason: "chaos".into(),
        })),
        msg(Payload::Control(Control::Job(vec![1, 2, 3, 4, 5]))),
    ]
}

#[test]
fn every_truncation_of_every_frame_is_a_typed_error() {
    for frame in corpus() {
        let full = frame::encode_frame(&frame);
        // Whole-buffer decode of every strict prefix.
        for cut in 0..full.len() {
            match frame::decode_frame(&full[..cut]) {
                Err(_) => {}
                Ok(decoded) => panic!(
                    "prefix of len {cut}/{} decoded as {decoded:?}",
                    full.len()
                ),
            }
        }
        // Stream decode of every torn write: a clean EOF at a frame
        // boundary is Ok(None); a tear anywhere else is Truncated.
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, &frame).unwrap();
        for cut in 0..wire.len() {
            let mut cursor = Cursor::new(&wire[..cut]);
            match frame::read_frame(&mut cursor) {
                Ok(None) if cut == 0 => {}
                Err(NetError::Frame(FrameError::Truncated)) if cut > 0 => {}
                other => panic!("torn stream at {cut}: {other:?}"),
            }
        }
    }
}

#[test]
fn random_byte_flips_never_panic_and_never_misdecode_silently() {
    let mut rng = SplitMix64::new(0xF1A5_0C0D);
    let mut typed_rejections = 0u32;
    for frame in corpus() {
        let clean = frame::encode_frame(&frame);
        let reference = frame::decode_frame(&clean).unwrap();
        for _ in 0..200 {
            let mut bytes = clean.clone();
            let flips = 1 + (rng.next_u64() as usize % 3);
            for _ in 0..flips {
                let i = rng.next_u64() as usize % bytes.len();
                let bit = 1u8 << (rng.next_u64() % 8);
                bytes[i] ^= bit;
            }
            match frame::decode_frame(&bytes) {
                // A flip may still decode (e.g. it landed in a payload
                // integer) — then it must decode to *something*, not
                // crash. But it must never silently reproduce the
                // original from different bytes.
                Ok(decoded) => {
                    if bytes != clean {
                        assert_ne!(
                            format!("{decoded:?}"),
                            format!("{reference:?}"),
                            "different bytes, identical decode"
                        );
                    }
                }
                Err(_) => typed_rejections += 1,
            }
        }
    }
    assert!(
        typed_rejections > 0,
        "no flip was ever rejected — the validators are dead code"
    );
}

#[test]
fn pure_noise_never_panics() {
    let mut rng = SplitMix64::new(0xBAD_F00D);
    for len in [0usize, 1, 3, 4, 5, 16, 64, 256, 4096] {
        for _ in 0..50 {
            let noise: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let _ = frame::decode_frame(&noise);
            let mut cursor = Cursor::new(noise);
            let _ = frame::read_frame(&mut cursor);
        }
    }
}

#[test]
fn oversized_declarations_fail_before_allocating() {
    // A 4-byte header claiming a huge frame must be rejected from the
    // length prefix alone — the body is never read, let alone
    // allocated. (If this allocated, the test would OOM long before
    // the assertion.)
    for declared in [
        MAX_FRAME_BYTES + 1,
        MAX_FRAME_BYTES * 2,
        u32::MAX / 2,
        u32::MAX,
    ] {
        let mut wire = declared.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 8]); // a lying, tiny body
        let mut cursor = Cursor::new(wire);
        match frame::read_frame(&mut cursor) {
            Err(NetError::Frame(FrameError::Oversized { declared: d, max })) => {
                assert_eq!(d, declared);
                assert_eq!(max, MAX_FRAME_BYTES);
            }
            other => panic!("declared {declared}: {other:?}"),
        }
    }
}

#[test]
fn corrupt_page_capacity_cannot_drive_allocation() {
    // Take a valid data-page frame and rewrite its embedded capacity
    // field to the maximum: decode must fail with a typed error, not
    // allocate a giant page. The capacity field sits at a fixed offset
    // in the encoding; find it by scanning for the known clean value.
    let frame = WireFrame::Msg(Message {
        from: 1,
        seq: 5,
        sent_at_ms: 0.0,
        payload: Payload::Data {
            kind: DataKind::Raw,
            page: sample_page(3),
        },
    });
    let clean = frame::encode_frame(&frame);
    let needle = 1024u32.to_le_bytes();
    let pos = clean
        .windows(4)
        .position(|w| w == needle)
        .expect("capacity field present");
    let mut corrupt = clean.clone();
    corrupt[pos..pos + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    match frame::decode_frame(&corrupt) {
        Err(FrameError::Corrupt(_)) => {}
        other => panic!("max-capacity page decoded as {other:?}"),
    }
}

#[test]
fn timestamps_past_the_tick_ceiling_are_corrupt() {
    // The send timestamp travels as a u64 tick count right after the tag,
    // `from` and `seq`. A count past MAX_TICKS — one no run reaches, and
    // the most a receiver's clock may be asked to observe — is refused
    // whole; the ceiling itself still decodes, to its exact ms rendering.
    let at = 1 + 4 + 8;
    let clean = frame::encode_frame(&corpus()[3]);
    assert_eq!(clean[at..at + 8], 1_234_500_000_000u64.to_le_bytes());
    let stamped = |ticks: u64| {
        let mut bytes = clean.clone();
        bytes[at..at + 8].copy_from_slice(&ticks.to_le_bytes());
        frame::decode_frame(&bytes)
    };
    for ticks in [MAX_TICKS + 1, MAX_TICKS << 1, u64::MAX] {
        assert_eq!(stamped(ticks), Err(FrameError::Corrupt("timestamp")), "{ticks} ticks");
    }
    match stamped(MAX_TICKS) {
        Ok(WireFrame::Msg(msg)) => assert_eq!((msg.sent_at(), msg.sent_at_ms), (MAX_TICKS, ticks_to_ms(MAX_TICKS))),
        other => panic!("the ceiling itself must decode: {other:?}"),
    }
}

#[test]
fn trailing_garbage_after_a_valid_body_is_rejected() {
    for frame in corpus() {
        let mut bytes = frame::encode_frame(&frame);
        bytes.push(0);
        match frame::decode_frame(&bytes) {
            Err(FrameError::Corrupt(_)) => {}
            other => panic!("{frame:?} + garbage: {other:?}"),
        }
    }
}

#[test]
fn valid_frames_roundtrip_through_stream_io() {
    // The positive control for all the negative tests above: the whole
    // corpus, concatenated on one stream, reads back exactly.
    let frames = corpus();
    let mut wire = Vec::new();
    for f in &frames {
        frame::write_frame(&mut wire, f).unwrap();
    }
    let mut cursor = Cursor::new(wire);
    let mut back = Vec::new();
    while let Some(f) = frame::read_frame(&mut cursor).unwrap() {
        back.push(f);
    }
    assert_eq!(
        format!("{back:?}"),
        format!("{frames:?}"),
        "stream roundtrip changed the corpus"
    );
}
