//! The 4-byte big-endian length-prefixed JSON frame codec.
//!
//! Every socket surface of the tool speaks the same wire unit: a
//! 4-byte big-endian payload length followed by that many bytes of
//! UTF-8 JSON. The serve daemon (schema `sunmap-serve/1`, see
//! [`crate::serve`]) and the distributed batch coordinator/worker pair
//! (schema `sunmap-shard/1`, see [`crate::shard`]) both build on this
//! module, so framing bugs can only be fixed in one place.
//!
//! [`write_frame`] / [`read_frame`] are the blocking pair used by
//! clients and tests. [`read_frame_draining`] is the daemon-side
//! variant for timeout-armed sockets: it retries reads that time out
//! and gives up cleanly when a drain flag is raised *between* frames,
//! which is what makes graceful shutdown graceful — a frame whose
//! length prefix has arrived is always read and answered.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Frames above this size are rejected rather than allocated.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// How many consecutive read timeouts a half-sent payload survives
/// once the drain flag is up before the connection is abandoned (see
/// [`read_frame_draining`]).
const STALL_CAP: u32 = 50;

/// Writes one length-prefixed frame (client side and tests; the
/// daemons use it too).
///
/// The length prefix and the payload go out in a single write, so a
/// socket never holds a lone 4-byte segment back waiting for the
/// peer's delayed ACK (Nagle). Every socket the tool opens or accepts
/// also sets `TCP_NODELAY`, so each frame leaves as soon as it is
/// written.
///
/// # Errors
///
/// Propagates socket errors; frames over [`MAX_FRAME_BYTES`] are
/// rejected with [`io::ErrorKind::InvalidInput`].
pub fn write_frame<W: Write>(writer: &mut W, payload: &str) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame too large",
        ));
    }
    let len = u32::try_from(payload.len()).expect("bounded above");
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    writer.write_all(&frame)?;
    writer.flush()
}

/// Reads one length-prefixed frame from a *blocking* stream. Returns
/// `Ok(None)` on a clean end-of-stream before the length prefix.
///
/// # Errors
///
/// Truncated frames, oversized lengths and non-UTF-8 payloads are
/// [`io::ErrorKind::InvalidData`]; socket errors propagate.
pub fn read_frame<R: Read>(reader: &mut R) -> io::Result<Option<String>> {
    let mut prefix = [0u8; 4];
    match reader.read(&mut prefix) {
        Ok(0) => return Ok(None),
        Ok(n) => reader.read_exact(&mut prefix[n..])?,
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// Like [`read_frame`] but for a daemon's timeout-armed sockets:
/// retries reads that time out, and gives up cleanly (`Ok(None)`) when
/// `drain` is raised while *between* frames — a frame whose length
/// prefix has arrived is always read and answered.
///
/// A half-sent payload may never finish and must not hold the drain
/// hostage forever: after a bounded number of consecutive timeouts
/// with `drain` up, the read is abandoned (`Ok(None)`) and
/// `stalled_writes` — the peer never finished writing — is
/// incremented, so the drop is visible in metrics instead of silent.
///
/// # Errors
///
/// Truncated frames, oversized lengths and non-UTF-8 payloads are
/// [`io::ErrorKind::InvalidData`]; socket errors propagate.
pub fn read_frame_draining(
    stream: &mut TcpStream,
    drain: &AtomicBool,
    stalled_writes: Option<&AtomicU64>,
) -> io::Result<Option<String>> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match stream.read(&mut prefix[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(None)
                } else {
                    Err(io::ErrorKind::UnexpectedEof.into())
                };
            }
            Ok(n) => got += n,
            Err(e) if is_timeout(&e) => {
                if got == 0 && drain.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    let mut payload = vec![0u8; len];
    let mut got = 0;
    let mut stalled_draining = 0u32;
    while got < len {
        match stream.read(&mut payload[got..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                got += n;
                stalled_draining = 0;
            }
            Err(e) if is_timeout(&e) => {
                if drain.load(Ordering::SeqCst) {
                    stalled_draining += 1;
                    if stalled_draining > STALL_CAP {
                        if let Some(counter) = stalled_writes {
                            counter.fetch_add(1, Ordering::Relaxed);
                        }
                        return Ok(None);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"ping\"}").unwrap();
        write_frame(&mut buf, "second").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some("{\"op\":\"ping\"}")
        );
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some("second"));
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    /// Counts `write` calls; accepts every byte it is offered.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        let mut w = CountingWriter::default();
        write_frame(&mut w, "{\"op\":\"ping\"}").unwrap();
        assert_eq!(w.writes, 1, "prefix and payload must leave together");
        write_frame(&mut w, "").unwrap();
        assert_eq!(w.writes, 2);
        let mut cursor = &w.bytes[..];
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some("{\"op\":\"ping\"}")
        );
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some(""));
    }

    #[test]
    fn oversized_frames_are_rejected_on_both_sides() {
        let big = "x".repeat(MAX_FRAME_BYTES + 1);
        let mut buf = Vec::new();
        assert_eq!(
            write_frame(&mut buf, &big).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        // A forged oversized length prefix is rejected before the
        // allocation, not after.
        let forged = (MAX_FRAME_BYTES as u32 + 1).to_be_bytes();
        let mut cursor = &forged[..];
        assert_eq!(
            read_frame(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn truncated_and_non_utf8_frames_are_invalid_data() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        let mut cursor = &buf[..buf.len() - 2];
        assert!(read_frame(&mut cursor).is_err(), "truncated payload");
        let mut bad = Vec::new();
        bad.extend_from_slice(&2u32.to_be_bytes());
        bad.extend_from_slice(&[0xff, 0xfe]);
        let mut cursor = &bad[..];
        assert_eq!(
            read_frame(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }
}
