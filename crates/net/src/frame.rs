//! The length-prefixed wire format of the TCP transport.
//!
//! Every frame on a socket is `u32-LE length` + `body`; the body is a
//! tag byte followed by the variant's fields (all integers little
//! endian). Decoding is *total*: any input —
//! truncated, corrupted, hostile — produces a typed [`FrameError`],
//! never a panic, and no allocation ever exceeds the declared length,
//! which itself is capped at [`MAX_FRAME_BYTES`] **before** allocating.
//! A peer therefore cannot OOM a node by declaring a 4 GB frame.
//!
//! [`WireFrame::Msg`] carries the fabric's [`Message`] verbatim
//! (including its per-link sequence number, and its virtual-time
//! timestamp as the `u64` tick count it renders — at most
//! [`MAX_TICKS`], so no frame can push a receiver's clock to where it
//! would overflow), so the reliability layer above the transport behaves
//! identically on TCP and in-process backends. `Hello` / `Heartbeat` / `Bye` exist only
//! below the [`crate::Transport`] seam: handshake, failure detection,
//! and graceful close never enter the sequence space.

use crate::error::{FrameError, NetError};
use crate::message::{Control, DataKind, Message, Payload};
use adaptagg_model::{ticks_to_ms, MAX_TICKS};
use adaptagg_storage::Page;
use std::io::{Read, Write};

/// Hard cap on a frame body. Message pages are ≤ 4 KB, so 1 MiB leaves
/// two orders of magnitude of headroom while bounding what a corrupt
/// length header can make a receiver allocate.
pub const MAX_FRAME_BYTES: u32 = 1 << 20;

/// Everything that travels on a TCP link.
#[derive(Debug, Clone, PartialEq)]
pub enum WireFrame {
    /// Connection handshake: the dialing node identifies itself and the
    /// cluster size it believes in (mismatch → connection rejected).
    Hello {
        /// The dialing node's id.
        node: u32,
        /// Cluster size the dialer was configured with.
        nodes: u32,
    },
    /// Liveness beacon, sent on an interval by each side of a link.
    Heartbeat {
        /// The beaconing node's id.
        node: u32,
    },
    /// Graceful close: the sender is done; its silence is not a failure.
    Bye {
        /// The departing node's id.
        node: u32,
    },
    /// A fabric message (data page or control), timestamps and all.
    Msg(Message),
}

const TAG_HELLO: u8 = 1;
const TAG_HEARTBEAT: u8 = 2;
const TAG_BYE: u8 = 3;
const TAG_MSG: u8 = 4;

/// A bounds-checked little-endian reader over a frame body. Public so
/// higher layers (the coordinator/worker job protocol) can reuse the
/// same panic-free decoding discipline for their payloads.
#[derive(Debug)]
pub struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        FrameReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Truncated)?;
        if end > self.buf.len() {
            return Err(FrameError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Next byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    /// Next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Next length-prefixed byte string. The declared length is checked
    /// against the remaining input before anything is copied.
    pub fn bytes(&mut self) -> Result<&'a [u8], FrameError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Next length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, FrameError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| FrameError::Corrupt("utf8"))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Require the input to be fully consumed (trailing garbage is a
    /// corruption, not padding).
    pub fn finish(&self) -> Result<(), FrameError> {
        if self.remaining() != 0 {
            return Err(FrameError::Corrupt("trailing bytes"));
        }
        Ok(())
    }
}

/// Append a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Encode a frame body (without the outer length prefix).
pub fn encode_frame(frame: &WireFrame) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    match frame {
        WireFrame::Hello { node, nodes } => {
            out.push(TAG_HELLO);
            out.extend_from_slice(&node.to_le_bytes());
            out.extend_from_slice(&nodes.to_le_bytes());
        }
        WireFrame::Heartbeat { node } => {
            out.push(TAG_HEARTBEAT);
            out.extend_from_slice(&node.to_le_bytes());
        }
        WireFrame::Bye { node } => {
            out.push(TAG_BYE);
            out.extend_from_slice(&node.to_le_bytes());
        }
        WireFrame::Msg(msg) => {
            out.push(TAG_MSG);
            encode_message(msg, &mut out);
        }
    }
    out
}

fn encode_message(msg: &Message, out: &mut Vec<u8>) {
    out.extend_from_slice(&(msg.from as u32).to_le_bytes());
    out.extend_from_slice(&msg.seq.to_le_bytes());
    out.extend_from_slice(&msg.sent_at().to_le_bytes());
    match &msg.payload {
        Payload::Data { kind, page } => {
            out.push(0);
            out.push(match kind {
                DataKind::Raw => 0,
                DataKind::Partial => 1,
            });
            out.extend_from_slice(&(page.capacity() as u32).to_le_bytes());
            out.extend_from_slice(&(page.tuple_count() as u32).to_le_bytes());
            out.extend_from_slice(&(page.bytes_used() as u32).to_le_bytes());
            page.encode_into(out);
        }
        Payload::Control(c) => {
            out.push(1);
            match c {
                Control::EndOfStream => out.push(0),
                Control::EndOfPhase { groups_seen } => {
                    out.push(1);
                    out.extend_from_slice(&groups_seen.to_le_bytes());
                }
                Control::SamplingDecision {
                    use_repartitioning,
                    groups_in_sample,
                } => {
                    out.push(2);
                    out.push(u8::from(*use_repartitioning));
                    out.extend_from_slice(&groups_in_sample.to_le_bytes());
                }
                Control::Abort { origin, reason } => {
                    out.push(3);
                    out.extend_from_slice(&(*origin as u32).to_le_bytes());
                    put_bytes(out, reason.as_bytes());
                }
                Control::Job(payload) => {
                    out.push(4);
                    put_bytes(out, payload);
                }
            }
        }
    }
}

/// Decode a frame body. Total: every failure is a typed [`FrameError`].
pub fn decode_frame(buf: &[u8]) -> Result<WireFrame, FrameError> {
    let mut r = FrameReader::new(buf);
    let frame = match r.u8()? {
        TAG_HELLO => WireFrame::Hello {
            node: r.u32()?,
            nodes: r.u32()?,
        },
        TAG_HEARTBEAT => WireFrame::Heartbeat { node: r.u32()? },
        TAG_BYE => WireFrame::Bye { node: r.u32()? },
        TAG_MSG => WireFrame::Msg(decode_message(&mut r)?),
        _ => return Err(FrameError::Corrupt("frame tag")),
    };
    r.finish()?;
    Ok(frame)
}

fn decode_message(r: &mut FrameReader<'_>) -> Result<Message, FrameError> {
    let from = r.u32()? as usize;
    let seq = r.u64()?;
    let sent_at = r.u64()?;
    if sent_at > MAX_TICKS {
        return Err(FrameError::Corrupt("timestamp"));
    }
    let payload = match r.u8()? {
        0 => {
            let kind = match r.u8()? {
                0 => DataKind::Raw,
                1 => DataKind::Partial,
                _ => return Err(FrameError::Corrupt("data kind")),
            };
            let capacity = r.u32()? as usize;
            if capacity > MAX_FRAME_BYTES as usize {
                return Err(FrameError::Corrupt("page capacity"));
            }
            let tuples = r.u32()?;
            let data = r.bytes()?.to_vec();
            // `from_raw` re-validates that the bytes decode to exactly
            // `tuples` tuples spanning the whole buffer — a flipped bit
            // in the tuple encoding surfaces here, not in an operator.
            let page = Page::from_raw(capacity, data, tuples)
                .map_err(|_| FrameError::Corrupt("page tuples"))?;
            Payload::Data { kind, page }
        }
        1 => Payload::Control(match r.u8()? {
            0 => Control::EndOfStream,
            1 => Control::EndOfPhase {
                groups_seen: r.u64()?,
            },
            2 => Control::SamplingDecision {
                use_repartitioning: match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(FrameError::Corrupt("bool")),
                },
                groups_in_sample: r.u64()?,
            },
            3 => Control::Abort {
                origin: r.u32()? as usize,
                reason: r.str()?.to_string(),
            },
            4 => Control::Job(r.bytes()?.to_vec()),
            _ => return Err(FrameError::Corrupt("control tag")),
        }),
        _ => return Err(FrameError::Corrupt("payload tag")),
    };
    Ok(Message {
        from,
        seq,
        sent_at_ms: ticks_to_ms(sent_at),
        payload,
    })
}

/// Write one length-prefixed frame to a stream.
pub fn write_frame<W: Write>(w: &mut W, frame: &WireFrame) -> Result<(), NetError> {
    let body = encode_frame(frame);
    debug_assert!(body.len() <= MAX_FRAME_BYTES as usize);
    let mut buf = Vec::with_capacity(4 + body.len());
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.extend_from_slice(&body);
    // One write for prefix + body: a frame is never half-visible to the
    // kernel on this side (the reader still handles torn frames, e.g.
    // from a peer killed mid-write).
    w.write_all(&buf).map_err(|e| NetError::Io {
        op: "write frame",
        kind: e.kind(),
    })
}

/// Read one length-prefixed frame. `Ok(None)` is a clean end-of-stream
/// (EOF exactly at a frame boundary); EOF inside a frame is
/// [`FrameError::Truncated`]; a declared length above
/// [`MAX_FRAME_BYTES`] is rejected before any allocation.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<WireFrame>, NetError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(FrameError::Truncated.into());
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                return Err(NetError::Io {
                    op: "read frame length",
                    kind: e.kind(),
                })
            }
        }
    }
    let declared = u32::from_le_bytes(len_buf);
    if declared > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized {
            declared,
            max: MAX_FRAME_BYTES,
        }
        .into());
    }
    let mut body = vec![0u8; declared as usize];
    r.read_exact(&mut body).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => FrameError::Truncated.into(),
        kind => NetError::Io {
            op: "read frame body",
            kind,
        },
    })?;
    Ok(Some(decode_frame(&body)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_model::Value;

    fn sample_page() -> Page {
        let mut p = Page::new(2048);
        for i in 0..5 {
            assert!(p.try_push(&[Value::Int(i), Value::Str("abc".into())]).unwrap());
        }
        p
    }

    fn sample_frames() -> Vec<WireFrame> {
        vec![
            WireFrame::Hello { node: 2, nodes: 4 },
            WireFrame::Heartbeat { node: 1 },
            WireFrame::Bye { node: 3 },
            WireFrame::Msg(Message {
                from: 1,
                seq: 42,
                sent_at_ms: 13.25,
                payload: Payload::Data {
                    kind: DataKind::Partial,
                    page: sample_page(),
                },
            }),
            WireFrame::Msg(Message {
                from: 0,
                seq: 7,
                sent_at_ms: 0.0,
                payload: Payload::Control(Control::Abort {
                    origin: 2,
                    reason: "unit test".into(),
                }),
            }),
            WireFrame::Msg(Message {
                from: 3,
                seq: 0,
                sent_at_ms: 1.5,
                payload: Payload::Control(Control::Job(vec![9, 8, 7])),
            }),
            WireFrame::Msg(Message {
                from: 2,
                seq: 9,
                sent_at_ms: 2.0,
                payload: Payload::Control(Control::SamplingDecision {
                    use_repartitioning: true,
                    groups_in_sample: 11,
                }),
            }),
        ]
    }

    #[test]
    fn frames_round_trip() {
        for frame in sample_frames() {
            let body = encode_frame(&frame);
            assert_eq!(decode_frame(&body).unwrap(), frame);
        }
    }

    #[test]
    fn stream_round_trips_multiple_frames() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut r = &wire[..];
        for f in &frames {
            assert_eq!(read_frame(&mut r).unwrap().as_ref(), Some(f));
        }
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF at boundary");
    }

    #[test]
    fn every_truncation_point_is_a_typed_error() {
        for frame in sample_frames() {
            let body = encode_frame(&frame);
            for cut in 0..body.len() {
                let r = decode_frame(&body[..cut]);
                assert!(r.is_err(), "cut at {cut} must fail");
            }
        }
    }

    #[test]
    fn oversized_declaration_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let mut r = &wire[..];
        assert_eq!(
            read_frame(&mut r),
            Err(NetError::Frame(FrameError::Oversized {
                declared: u32::MAX,
                max: MAX_FRAME_BYTES,
            }))
        );
    }

    #[test]
    fn torn_stream_is_truncated_not_a_hang_or_panic() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &WireFrame::Heartbeat { node: 0 }).unwrap();
        // Kill the stream mid-frame (peer SIGKILLed mid-write).
        let cut = wire.len() - 2;
        let mut r = &wire[..cut];
        assert_eq!(
            read_frame(&mut r),
            Err(NetError::Frame(FrameError::Truncated))
        );
        // And mid-length-prefix too.
        let mut r = &wire[..2];
        assert_eq!(
            read_frame(&mut r),
            Err(NetError::Frame(FrameError::Truncated))
        );
    }

    #[test]
    fn corrupt_page_bytes_are_rejected_by_revalidation() {
        let frame = WireFrame::Msg(Message {
            from: 0,
            seq: 0,
            sent_at_ms: 1.0,
            payload: Payload::Data {
                kind: DataKind::Raw,
                page: sample_page(),
            },
        });
        let mut body = encode_frame(&frame);
        // Flip a byte inside the tuple encoding (near the end).
        let idx = body.len() - 3;
        body[idx] ^= 0xff;
        assert!(decode_frame(&body).is_err(), "bit flip must not decode");
    }

    #[test]
    fn unknown_tags_are_corrupt() {
        assert_eq!(decode_frame(&[99]), Err(FrameError::Corrupt("frame tag")));
        assert_eq!(decode_frame(&[]), Err(FrameError::Truncated));
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let mut body = encode_frame(&WireFrame::Heartbeat { node: 0 });
        body.push(0);
        assert_eq!(
            decode_frame(&body),
            Err(FrameError::Corrupt("trailing bytes"))
        );
    }
}
