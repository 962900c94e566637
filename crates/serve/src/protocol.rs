//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame is `[len: u32 LE][type: u8][payload]`, where `len` counts
//! the type byte plus the payload. All integers are little-endian. The
//! protocol is deliberately tiny — a session opens with [`Request::Hello`]
//! (model name + seed), then streams [`Request::Access`] frames (one
//! decision request each) interleaved with optional [`Request::Event`]
//! frames (cache feedback, applied in stream order), and ends with
//! [`Request::Bye`]. The server answers accesses with
//! [`Reply::Decision`], or [`Reply::Busy`] (bounded-queue backpressure) /
//! [`Reply::TimedOut`] (deadline expired before processing). See
//! DESIGN.md §8 for the frame layout table.

use resemble_trace::MemAccess;
use std::io::{self, Read, Write};

/// Frames larger than this are rejected as corrupt.
pub const MAX_FRAME: usize = 1 << 20;

/// Upper bound on prefetch addresses carried by one decision reply.
pub const MAX_DECISION_ADDRS: usize = u16::MAX as usize;

/// How far [`read_frame`] trusts a frame's declared length: the payload
/// buffer grows at most this many bytes ahead of the bytes that have
/// arrived, so a short stream that declares a [`MAX_FRAME`] frame costs
/// 64 KiB, not 1 MiB. Frames this size or smaller are read in one call.
pub const READ_CHUNK: usize = 64 * 1024;

// Request frame types.
const T_HELLO: u8 = 0x01;
const T_ACCESS: u8 = 0x02;
const T_EVENT: u8 = 0x03;
const T_BYE: u8 = 0x04;
// Reply frame types.
const T_ACCEPTED: u8 = 0x81;
const T_DECISION: u8 = 0x82;
const T_BUSY: u8 = 0x83;
const T_TIMED_OUT: u8 = 0x84;
const T_ERROR: u8 = 0x85;
const T_GOODBYE: u8 = 0x86;

/// Cache feedback a client streams between accesses, mirroring the
/// simulator's prefetcher hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A prefetched line arrived in the client's cache.
    PrefetchFill,
    /// A demand-missed line arrived.
    DemandFill,
    /// A line was evicted; the flag marks a never-used prefetch.
    Evict {
        /// `true` when the victim was a prefetched line never demanded.
        unused_prefetch: bool,
    },
}

/// A client → server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a session: build `model` (a serve-registry name like
    /// `"resemble"`) seeded with `seed`; `fast` selects the laptop-scale
    /// training configuration.
    Hello {
        /// Model registry name.
        model: String,
        /// Model seed.
        seed: u64,
        /// Laptop-scale training configuration.
        fast: bool,
    },
    /// One decision request: the next access of the session's stream.
    Access {
        /// Client-chosen correlation id, echoed in the reply.
        req_id: u32,
        /// Deadline in microseconds from enqueue (0 = none). Requests
        /// still queued past their deadline get [`Reply::TimedOut`] and
        /// are *not* applied to the session model.
        deadline_us: u32,
        /// The access itself.
        access: MemAccess,
        /// Whether the access hit in the client's cache.
        hit: bool,
    },
    /// Cache feedback, applied to the session model in stream order.
    Event {
        /// What happened.
        kind: EventKind,
        /// Block-aligned byte address.
        addr: u64,
    },
    /// Close the session after all queued requests drain.
    Bye,
}

/// A server → client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The session is open.
    Accepted {
        /// Server-assigned session id.
        session_id: u64,
    },
    /// The decision for one access: the prefetch addresses to issue.
    Decision {
        /// Echoed correlation id.
        req_id: u32,
        /// Prefetch byte addresses chosen by the ensemble.
        prefetches: Vec<u64>,
    },
    /// The session's bounded queue was full; the request was dropped.
    Busy {
        /// Echoed correlation id.
        req_id: u32,
    },
    /// The request's deadline expired before processing; it was dropped.
    TimedOut {
        /// Echoed correlation id.
        req_id: u32,
    },
    /// Protocol or session error; the connection will close.
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// Session closed; final decision count for the session.
    Goodbye {
        /// Decisions served over the session's lifetime.
        decisions: u64,
    },
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Cursor-style reader over a payload, with bounds-checked takes.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(bad("truncated frame"));
        };
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> io::Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> io::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> io::Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
    fn done(&self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad("trailing bytes in frame"))
        }
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Append one frame (`[len][type][payload]`) to `buf`; `payload` is
/// appended by the closure so encoders stay allocation-free.
fn frame_into(buf: &mut Vec<u8>, ty: u8, payload: impl FnOnce(&mut Vec<u8>)) {
    let len_at = buf.len();
    put_u32(buf, 0); // patched below
    buf.push(ty);
    payload(buf);
    let frame_len = buf.len() - len_at - 4;
    debug_assert!(frame_len <= MAX_FRAME, "oversized frame");
    let n = u32::try_from(frame_len).unwrap_or(0);
    buf[len_at..len_at + 4].copy_from_slice(&n.to_le_bytes());
}

impl Request {
    /// Append this request as one frame to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Hello { model, seed, fast } => frame_into(buf, T_HELLO, |b| {
                put_u16(b, u16::try_from(model.len()).unwrap_or(u16::MAX));
                b.extend_from_slice(model.as_bytes());
                put_u64(b, *seed);
                b.push(u8::from(*fast));
            }),
            Request::Access {
                req_id,
                deadline_us,
                access,
                hit,
            } => frame_into(buf, T_ACCESS, |b| {
                put_u32(b, *req_id);
                put_u32(b, *deadline_us);
                put_u64(b, access.instr_id);
                put_u64(b, access.pc);
                put_u64(b, access.addr);
                b.push(u8::from(access.is_write) | (u8::from(*hit) << 1));
            }),
            Request::Event { kind, addr } => frame_into(buf, T_EVENT, |b| {
                b.push(match kind {
                    EventKind::PrefetchFill => 0,
                    EventKind::DemandFill => 1,
                    EventKind::Evict {
                        unused_prefetch: false,
                    } => 2,
                    EventKind::Evict {
                        unused_prefetch: true,
                    } => 3,
                });
                put_u64(b, *addr);
            }),
            Request::Bye => frame_into(buf, T_BYE, |_| {}),
        }
    }

    /// Decode a request from a frame's type byte and payload.
    pub fn decode(ty: u8, payload: &[u8]) -> io::Result<Request> {
        let mut c = Cur::new(payload);
        let req = match ty {
            T_HELLO => {
                let n = c.u16()? as usize;
                let model = String::from_utf8(c.take(n)?.to_vec())
                    .map_err(|_| bad("model name is not UTF-8"))?;
                let seed = c.u64()?;
                let fast = c.u8()? != 0;
                Request::Hello { model, seed, fast }
            }
            T_ACCESS => {
                let req_id = c.u32()?;
                let deadline_us = c.u32()?;
                let instr_id = c.u64()?;
                let pc = c.u64()?;
                let addr = c.u64()?;
                let flags = c.u8()?;
                Request::Access {
                    req_id,
                    deadline_us,
                    access: MemAccess {
                        instr_id,
                        pc,
                        addr,
                        is_write: flags & 1 != 0,
                    },
                    hit: flags & 2 != 0,
                }
            }
            T_EVENT => {
                let kind = match c.u8()? {
                    0 => EventKind::PrefetchFill,
                    1 => EventKind::DemandFill,
                    2 => EventKind::Evict {
                        unused_prefetch: false,
                    },
                    3 => EventKind::Evict {
                        unused_prefetch: true,
                    },
                    _ => return Err(bad("unknown event kind")),
                };
                let addr = c.u64()?;
                Request::Event { kind, addr }
            }
            T_BYE => Request::Bye,
            _ => return Err(bad("unknown request frame type")),
        };
        c.done()?;
        Ok(req)
    }
}

/// Encode a decision reply straight from a slice (no intermediate `Vec`),
/// the server's per-decision hot path.
pub fn encode_decision_into(buf: &mut Vec<u8>, req_id: u32, prefetches: &[u64]) {
    debug_assert!(prefetches.len() <= MAX_DECISION_ADDRS);
    frame_into(buf, T_DECISION, |b| {
        put_u32(b, req_id);
        put_u16(b, u16::try_from(prefetches.len()).unwrap_or(u16::MAX));
        for &p in prefetches {
            put_u64(b, p);
        }
    });
}

impl Reply {
    /// Append this reply as one frame to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Reply::Accepted { session_id } => frame_into(buf, T_ACCEPTED, |b| {
                put_u64(b, *session_id);
            }),
            Reply::Decision { req_id, prefetches } => {
                encode_decision_into(buf, *req_id, prefetches);
            }
            Reply::Busy { req_id } => frame_into(buf, T_BUSY, |b| put_u32(b, *req_id)),
            Reply::TimedOut { req_id } => frame_into(buf, T_TIMED_OUT, |b| put_u32(b, *req_id)),
            Reply::Error { message } => frame_into(buf, T_ERROR, |b| {
                put_u16(b, u16::try_from(message.len()).unwrap_or(u16::MAX));
                b.extend_from_slice(message.as_bytes());
            }),
            Reply::Goodbye { decisions } => frame_into(buf, T_GOODBYE, |b| {
                put_u64(b, *decisions);
            }),
        }
    }

    /// Decode a reply from a frame's type byte and payload.
    pub fn decode(ty: u8, payload: &[u8]) -> io::Result<Reply> {
        let mut c = Cur::new(payload);
        let reply = match ty {
            T_ACCEPTED => Reply::Accepted {
                session_id: c.u64()?,
            },
            T_DECISION => {
                let req_id = c.u32()?;
                let n = c.u16()? as usize;
                // Take the addresses' bytes before sizing the vector, so a
                // count the payload does not back allocates nothing.
                let mut addrs = Cur::new(c.take(n * 8)?);
                let mut prefetches = Vec::with_capacity(n);
                for _ in 0..n {
                    prefetches.push(addrs.u64()?);
                }
                Reply::Decision { req_id, prefetches }
            }
            T_BUSY => Reply::Busy { req_id: c.u32()? },
            T_TIMED_OUT => Reply::TimedOut { req_id: c.u32()? },
            T_ERROR => {
                let n = c.u16()? as usize;
                let message = String::from_utf8(c.take(n)?.to_vec())
                    .map_err(|_| bad("error message is not UTF-8"))?;
                Reply::Error { message }
            }
            T_GOODBYE => Reply::Goodbye {
                decisions: c.u64()?,
            },
            _ => return Err(bad("unknown reply frame type")),
        };
        c.done()?;
        Ok(reply)
    }
}

/// Fill `buf` from `r` until it is full or the stream ends; returns the
/// number of bytes read.
fn fill(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

fn cut(part: &str) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, format!("stream ended {part}"))
}

/// Read one frame into `payload`, returning its type byte, or `None` on a
/// clean EOF at a frame boundary. A stream that ends anywhere else is an
/// `UnexpectedEof` error naming the part that was cut. `payload` is
/// reused across calls, and grows at most [`READ_CHUNK`] bytes ahead of
/// the bytes that have arrived.
pub fn read_frame(r: &mut impl Read, payload: &mut Vec<u8>) -> io::Result<Option<u8>> {
    let mut len_buf = [0u8; 4];
    match fill(r, &mut len_buf)? {
        0 => return Ok(None),
        4 => {}
        _ => return Err(cut("inside a frame's length prefix")),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(bad("frame length out of range"));
    }
    let mut ty = [0u8; 1];
    if fill(r, &mut ty)? == 0 {
        return Err(cut("before a frame's type byte"));
    }
    payload.clear();
    while payload.len() < len - 1 {
        let start = payload.len();
        let end = (len - 1).min(start + READ_CHUNK);
        // Grow exactly: amortized doubling would reserve ahead of bytes
        // that may never arrive.
        payload.reserve_exact(end - start);
        payload.resize(end, 0);
        if fill(r, &mut payload[start..])? < end - start {
            return Err(cut("inside a frame's payload"));
        }
    }
    Ok(Some(ty[0]))
}

/// Write pre-encoded frames and flush.
pub fn write_all(w: &mut impl Write, buf: &[u8]) -> io::Result<()> {
    w.write_all(buf)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let mut buf = Vec::new();
        req.encode_into(&mut buf);
        let mut r = &buf[..];
        let mut payload = Vec::new();
        let ty = read_frame(&mut r, &mut payload).unwrap().unwrap();
        assert_eq!(Request::decode(ty, &payload).unwrap(), req);
        assert!(r.is_empty());
    }

    fn roundtrip_reply(reply: Reply) {
        let mut buf = Vec::new();
        reply.encode_into(&mut buf);
        let mut r = &buf[..];
        let mut payload = Vec::new();
        let ty = read_frame(&mut r, &mut payload).unwrap().unwrap();
        assert_eq!(Reply::decode(ty, &payload).unwrap(), reply);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Hello {
            model: "resemble".into(),
            seed: 0xDEAD_BEEF,
            fast: true,
        });
        roundtrip_req(Request::Access {
            req_id: 7,
            deadline_us: 1500,
            access: MemAccess::load(10, 0x400100, 0x7FFF_1234_5678),
            hit: true,
        });
        roundtrip_req(Request::Access {
            req_id: u32::MAX,
            deadline_us: 0,
            access: MemAccess::store(11, 0x400104, 0x40),
            hit: false,
        });
        for kind in [
            EventKind::PrefetchFill,
            EventKind::DemandFill,
            EventKind::Evict {
                unused_prefetch: false,
            },
            EventKind::Evict {
                unused_prefetch: true,
            },
        ] {
            roundtrip_req(Request::Event { kind, addr: 0x1000 });
        }
        roundtrip_req(Request::Bye);
    }

    #[test]
    fn replies_roundtrip() {
        roundtrip_reply(Reply::Accepted { session_id: 3 });
        roundtrip_reply(Reply::Decision {
            req_id: 9,
            prefetches: vec![0x40, 0x80, u64::MAX],
        });
        roundtrip_reply(Reply::Decision {
            req_id: 10,
            prefetches: vec![],
        });
        roundtrip_reply(Reply::Busy { req_id: 11 });
        roundtrip_reply(Reply::TimedOut { req_id: 12 });
        roundtrip_reply(Reply::Error {
            message: "unknown model".into(),
        });
        roundtrip_reply(Reply::Goodbye { decisions: 12345 });
    }

    #[test]
    fn pipelined_frames_decode_in_order() {
        let mut buf = Vec::new();
        for i in 0..50u32 {
            Request::Access {
                req_id: i,
                deadline_us: 0,
                access: MemAccess::load(i as u64, 0x400, 0x1000 + 64 * i as u64),
                hit: false,
            }
            .encode_into(&mut buf);
        }
        let mut r = &buf[..];
        let mut payload = Vec::new();
        for i in 0..50u32 {
            let ty = read_frame(&mut r, &mut payload).unwrap().unwrap();
            match Request::decode(ty, &payload).unwrap() {
                Request::Access { req_id, .. } => assert_eq!(req_id, i),
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(read_frame(&mut r, &mut payload).unwrap(), None);
    }

    #[test]
    fn frames_larger_than_the_read_chunk_round_trip() {
        let prefetches: Vec<u64> = (0..MAX_DECISION_ADDRS as u64).collect();
        let reply = Reply::Decision {
            req_id: 3,
            prefetches,
        };
        let mut buf = Vec::new();
        reply.encode_into(&mut buf);
        assert!(buf.len() > 8 * READ_CHUNK);
        let mut payload = Vec::new();
        let ty = read_frame(&mut &buf[..], &mut payload).unwrap().unwrap();
        assert!(payload.capacity() <= buf.len() + READ_CHUNK);
        assert_eq!(Reply::decode(ty, &payload).unwrap(), reply);
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        // Oversized length.
        let mut buf = Vec::new();
        put_u32(&mut buf, (MAX_FRAME + 2) as u32);
        buf.push(T_BYE);
        assert!(read_frame(&mut &buf[..], &mut Vec::new()).is_err());
        // Zero length.
        let buf = 0u32.to_le_bytes().to_vec();
        assert!(read_frame(&mut &buf[..], &mut Vec::new()).is_err());
        // Unknown type.
        assert!(Request::decode(0x7F, &[]).is_err());
        assert!(Reply::decode(0x7F, &[]).is_err());
        // Truncated payload.
        assert!(Request::decode(T_ACCESS, &[1, 2, 3]).is_err());
        // Trailing garbage.
        let mut buf = Vec::new();
        Request::Bye.encode_into(&mut buf);
        assert!(Request::decode(T_BYE, &[0xAA]).is_err());
    }

    #[test]
    fn encode_decision_matches_reply_encoder() {
        let mut a = Vec::new();
        encode_decision_into(&mut a, 42, &[1, 2, 3]);
        let mut b = Vec::new();
        Reply::Decision {
            req_id: 42,
            prefetches: vec![1, 2, 3],
        }
        .encode_into(&mut b);
        assert_eq!(a, b);
    }
}
