//! Property-based equivalence between the two SPN1 frame decoders.
//!
//! The reactor decodes incrementally ([`FrameDecoder`]) from whatever
//! byte runs the kernel hands it; the router and the clients
//! decode whole frames from a blocking stream ([`read_frame`]). The
//! protocol is only sound if the two agree on *every* byte stream —
//! including streams split at arbitrary points (TCP makes no framing
//! promises) and streams that are malformed partway in. These
//! properties pin that equivalence: for generated frame sequences we
//! split the serialized bytes at every byte boundary and at random
//! chunkings and require the incremental decoder to produce exactly
//! the frames (or exactly the rejection) the whole-frame decoder does.

use proptest::prelude::*;
use spn_server::protocol::{
    read_frame, write_frame, Frame, FrameDecoder, Opcode, Status, WireError, HEADER_LEN,
    MAX_PAYLOAD,
};
use std::io::Cursor;

/// Decode as many frames as `bytes` holds via the incremental
/// decoder, feeding `chunks`-sized slices (the chunking is the test
/// input — equivalence must hold for all of them). Returns the frames
/// plus the error that stopped decoding, if any.
fn decode_chunked(bytes: &[u8], chunks: &[usize]) -> (Vec<Frame>, Option<String>) {
    let mut dec = FrameDecoder::new();
    let mut frames = Vec::new();
    let mut at = 0usize;
    let mut chunk_iter = chunks.iter().copied().cycle();
    while at < bytes.len() {
        let want = chunk_iter.next().unwrap_or(1).max(1);
        let end = (at + want).min(bytes.len());
        let mut slice = &bytes[at..end];
        // `feed` stops at frame boundaries; drain the slice fully.
        while !slice.is_empty() {
            match dec.feed(slice) {
                Ok((consumed, frame)) => {
                    slice = &slice[consumed..];
                    if let Some(f) = frame {
                        frames.push(f);
                    }
                }
                Err(WireError::Malformed(m)) => return (frames, Some(m)),
                Err(WireError::Io(e)) => panic!("feed cannot do i/o: {e}"),
            }
        }
        at = end;
    }
    (frames, None)
}

/// Decode the same bytes with the blocking whole-frame reader.
fn decode_whole(bytes: &[u8], expect: usize) -> (Vec<Frame>, Option<String>) {
    let mut cursor = Cursor::new(bytes);
    let mut frames = Vec::new();
    for _ in 0..expect {
        match read_frame(&mut cursor) {
            Ok(f) => frames.push(f),
            Err(WireError::Malformed(m)) => return (frames, Some(m)),
            // A truncated tail surfaces as UnexpectedEof here; the
            // incremental decoder just stays mid-frame. Callers only
            // pass complete streams, so this is unreachable in the
            // valid-stream properties.
            Err(WireError::Io(e)) => panic!("unexpected i/o error: {e}"),
        }
    }
    (frames, None)
}

fn serialize(frames: &[Frame]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for f in frames {
        write_frame(&mut bytes, f).expect("Vec write cannot fail");
    }
    bytes
}

fn arb_opcode() -> impl Strategy<Value = Opcode> {
    (0u8..4).prop_map(|i| match i {
        0 => Opcode::Infer,
        1 => Opcode::Ping,
        2 => Opcode::Stats,
        _ => Opcode::Shutdown,
    })
}

fn arb_status() -> impl Strategy<Value = Status> {
    (0u8..8).prop_map(|i| match i {
        0 => Status::Ok,
        1 => Status::UnknownModel,
        2 => Status::Malformed,
        3 => Status::ShapeMismatch,
        4 => Status::ServerBusy,
        5 => Status::ShuttingDown,
        6 => Status::DeadlineExceeded,
        _ => Status::Internal,
    })
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        arb_opcode(),
        arb_status(),
        prop::collection::vec(any::<u8>(), 0..300),
    )
        .prop_map(|(opcode, status, payload)| Frame::response(opcode, status, payload))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Splitting a valid multi-frame stream at *every* byte boundary
    /// (two feeds: `[..i]` then `[i..]`) yields exactly the frames the
    /// whole-frame decoder reads.
    #[test]
    fn every_split_point_decodes_identically(
        frames in prop::collection::vec(arb_frame(), 1..4),
    ) {
        let bytes = serialize(&frames);
        let (want, err) = decode_whole(&bytes, frames.len());
        prop_assert!(err.is_none());
        prop_assert_eq!(&want, &frames);
        for i in 0..=bytes.len() {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for mut part in [&bytes[..i], &bytes[i..]] {
                while !part.is_empty() {
                    let (consumed, frame) =
                        dec.feed(part).expect("valid stream must decode");
                    part = &part[consumed..];
                    if let Some(f) = frame {
                        got.push(f);
                    }
                }
            }
            prop_assert_eq!(&got, &want, "split at byte {}", i);
            prop_assert!(dec.is_frame_boundary(), "split at byte {}", i);
        }
    }

    /// Arbitrary chunkings (including pathological 1-byte drips)
    /// decode identically to the whole-frame decoder.
    #[test]
    fn random_chunking_decodes_identically(
        frames in prop::collection::vec(arb_frame(), 1..5),
        chunks in prop::collection::vec(1usize..40, 1..20),
    ) {
        let bytes = serialize(&frames);
        let (want, _) = decode_whole(&bytes, frames.len());
        let (got, err) = decode_chunked(&bytes, &chunks);
        prop_assert!(err.is_none());
        prop_assert_eq!(got, want);
    }

    /// A header corrupted at any position is rejected by both
    /// decoders with the same diagnostic, for every split point of
    /// the stream — i.e. incremental decoding cannot be tricked into
    /// accepting (or mis-locating) a malformed frame by packet
    /// boundaries. Preceding valid frames still decode.
    #[test]
    fn malformed_headers_reject_identically_at_every_split(
        prefix in prop::collection::vec(arb_frame(), 0..3),
        corrupt_at in 0usize..HEADER_LEN,
        corrupt_to in any::<u8>(),
        payload in prop::collection::vec(any::<u8>(), 0..50),
    ) {
        let mut bytes = serialize(&prefix);
        let bad_start = bytes.len();
        let bad = Frame::request(Opcode::Ping, payload);
        write_frame(&mut bytes, &bad).unwrap();
        // Force a genuinely malformed header byte (magic, version,
        // opcode, status or an over-cap length are all reachable).
        let idx = bad_start + corrupt_at;
        // No `prop_assume` in the vendored shim: nudge a no-op
        // corruption into a real one instead of discarding the case.
        let corrupt_to = if bytes[idx] == corrupt_to {
            corrupt_to.wrapping_add(1)
        } else {
            corrupt_to
        };
        if (8..HEADER_LEN).contains(&corrupt_at) {
            // Make the length field decisively illegal rather than
            // merely large-but-valid.
            bytes[bad_start + 8..bad_start + HEADER_LEN]
                .copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        } else {
            bytes[idx] = corrupt_to;
        }
        let (want_frames, want_err) = decode_whole(&bytes, prefix.len() + 1);
        // Corrupting opcode/status to another *valid* value is legal;
        // then both decoders simply succeed and must still agree.
        for i in 0..=bytes.len() {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            let mut got_err = None;
            'outer: for mut part in [&bytes[..i], &bytes[i..]] {
                while !part.is_empty() {
                    match dec.feed(part) {
                        Ok((consumed, frame)) => {
                            part = &part[consumed..];
                            if let Some(f) = frame {
                                got.push(f);
                            }
                        }
                        Err(WireError::Malformed(m)) => {
                            got_err = Some(m);
                            break 'outer;
                        }
                        Err(WireError::Io(e)) => panic!("feed cannot do i/o: {e}"),
                    }
                }
            }
            prop_assert_eq!(&got, &want_frames, "split at byte {}", i);
            prop_assert_eq!(&got_err, &want_err, "split at byte {}", i);
            if got_err.is_some() {
                // Poisoned decoders must keep rejecting.
                prop_assert!(dec.feed(&[0u8; 4]).is_err());
            }
        }
    }
}
