//! Fuzzes `read_frame` and the two decoders with damaged copies of a
//! stream that holds one valid encoding of every `Request` and `Reply`
//! variant: every truncation, 512 single-byte flips, and 512 short
//! frames that declare a random length. No case may panic. A cut stream
//! may read as a clean end (`Ok(None)`) only where the cut falls on a
//! frame boundary; any other cut must fail with an error naming the part
//! that was cut. Whatever length a frame declares, the payload buffer's
//! capacity stays within the bytes the read consumed plus `READ_CHUNK`
//! (64 KiB) of slack.

use proptest::prelude::*;
use resemble_serve::protocol::{read_frame, EventKind, Reply, Request, MAX_FRAME, READ_CHUNK};
use resemble_trace::MemAccess;
use std::io;

/// One valid encoding of every request and reply variant, back to back,
/// and the offset where each frame ends.
fn stream() -> (Vec<u8>, Vec<usize>) {
    let requests = [
        Request::Hello {
            model: "resemble_frozen".into(),
            seed: 7,
            fast: true,
        },
        Request::Access {
            req_id: 1,
            deadline_us: 500,
            access: MemAccess::load(3, 0x40_1000, 0x7FFF_0040),
            hit: false,
        },
        Request::Event {
            kind: EventKind::Evict {
                unused_prefetch: true,
            },
            addr: 0x7FFF_0080,
        },
        Request::Bye,
    ];
    let replies = [
        Reply::Accepted { session_id: 9 },
        Reply::Decision {
            req_id: 1,
            prefetches: vec![0x7FFF_00C0, 0x7FFF_0100],
        },
        Reply::Busy { req_id: 2 },
        Reply::TimedOut { req_id: 3 },
        Reply::Error {
            message: "unknown model".into(),
        },
        Reply::Goodbye { decisions: 42 },
    ];
    let mut buf = Vec::new();
    let mut ends = Vec::new();
    for req in &requests {
        req.encode_into(&mut buf);
        ends.push(buf.len());
    }
    for reply in &replies {
        reply.encode_into(&mut buf);
        ends.push(buf.len());
    }
    (buf, ends)
}

/// Read one frame into a fresh buffer, run both decoders over it, and
/// check the buffer's capacity against the bytes the read consumed.
fn read_checked(r: &mut &[u8]) -> io::Result<Option<u8>> {
    let before = r.len();
    let mut payload = Vec::new();
    let got = read_frame(r, &mut payload);
    let consumed = before - r.len();
    assert!(
        payload.capacity() <= consumed + READ_CHUNK,
        "payload capacity {} after reading {consumed} bytes",
        payload.capacity()
    );
    if let Ok(Some(ty)) = got {
        let _ = Request::decode(ty, &payload);
        let _ = Reply::decode(ty, &payload);
    }
    got
}

/// Read `full[..cut]` frame by frame: every frame before the cut reads
/// whole, then the stream ends cleanly if the cut is on a boundary and
/// fails naming the cut part otherwise.
fn check_cut(full: &[u8], ends: &[usize], cut: usize) {
    let mut r = &full[..cut];
    let mut start = 0;
    for &end in ends.iter().take_while(|&&end| end <= cut) {
        assert!(
            matches!(read_checked(&mut r), Ok(Some(_))),
            "frame {start}..{end} before the cut at {cut} did not read"
        );
        start = end;
    }
    match read_checked(&mut r) {
        Ok(None) => assert_eq!(start, cut, "cut at {cut} read as a clean end"),
        Ok(Some(ty)) => panic!("cut at {cut} read a frame of type {ty:#x}"),
        Err(e) => {
            let part = match cut - start {
                0 => panic!("cut on the boundary at {cut} failed: {e}"),
                1..=3 => "length prefix",
                4 => "type byte",
                _ => "payload",
            };
            assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}: {e}");
            assert!(
                e.to_string().contains(part),
                "cut at {cut} ({part}): `{e}` does not say which part was cut"
            );
        }
    }
}

/// The stream is a few hundred bytes, so every cut is checked rather
/// than a random sample of them.
#[test]
fn truncated_stream_ends_cleanly_only_on_a_frame_boundary() {
    let (full, ends) = stream();
    for cut in 0..=full.len() {
        check_cut(&full, &ends, cut);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn flipped_stream_reads_without_panic_or_overallocation(
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let (mut bytes, _) = stream();
        let at = at % bytes.len();
        bytes[at] ^= mask;
        let mut r = bytes.as_slice();
        let left_at_clean_end = loop {
            let before = r.len();
            match read_checked(&mut r) {
                Ok(Some(_)) => {}
                Ok(None) => break before,
                Err(_) => break 0,
            }
        };
        prop_assert_eq!(left_at_clean_end, 0, "flip at {} read as a clean end", at);
    }

    #[test]
    fn declared_length_is_trusted_only_as_far_as_bytes_arrive(
        len in 1usize..=MAX_FRAME,
        have in 0usize..256,
        ty in any::<u8>(),
    ) {
        let mut bytes = u32::try_from(len).unwrap().to_le_bytes().to_vec();
        bytes.push(ty);
        bytes.resize(5 + have, 0xA5);
        match read_checked(&mut bytes.as_slice()) {
            Ok(Some(got)) => prop_assert!(got == ty && have + 1 >= len),
            Ok(None) => panic!("a {len}-byte frame header read as a clean end"),
            Err(e) => prop_assert!(
                have + 1 < len && e.to_string().contains("payload"),
                "len {} with {} payload bytes: {}",
                len,
                have,
                e
            ),
        }
    }
}
