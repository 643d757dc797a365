//! Shutdown-aware blocking reads for the router's client-facing
//! connection threads.
//!
//! Each thread sits blocked on a socket read, but must notice a
//! shutdown request between (and during) frames. The pattern is a
//! short read-timeout on the socket plus a poll of a stop predicate on
//! every timeout tick.

use std::io::{self, Read};
use std::net::TcpStream;

/// Outcome of a polled blocking read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadOutcome {
    /// Buffer filled.
    Full,
    /// Clean EOF at a frame boundary.
    Eof,
    /// The stop predicate fired while waiting.
    Shutdown,
}

/// `read_exact` with a read-timeout poll so the calling thread can
/// observe `stop()` between retries — the stream must have a read
/// timeout set, or the poll never runs. A clean EOF is only "clean"
/// before the first byte of the buffer; a torn read mid-buffer is an
/// error.
pub(crate) fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    stop: impl Fn() -> bool,
) -> io::Result<ReadOutcome> {
    let mut at = 0usize;
    while at < buf.len() {
        if stop() {
            return Ok(ReadOutcome::Shutdown);
        }
        match stream.read(&mut buf[at..]) {
            Ok(0) => {
                return if at == 0 {
                    Ok(ReadOutcome::Eof)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                };
            }
            Ok(n) => at += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;
    use std::time::Duration;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn fills_across_partial_writes() {
        let (mut tx, mut rx) = pair();
        rx.set_read_timeout(Some(Duration::from_millis(5))).unwrap();
        let writer = std::thread::spawn(move || {
            for chunk in [&b"he"[..], &b"llo"[..]] {
                tx.write_all(chunk).unwrap();
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let mut buf = [0u8; 5];
        assert!(matches!(
            read_full(&mut rx, &mut buf, || false).unwrap(),
            ReadOutcome::Full
        ));
        assert_eq!(&buf, b"hello");
        writer.join().unwrap();
    }

    #[test]
    fn clean_eof_only_at_boundary() {
        let (mut tx, mut rx) = pair();
        rx.set_read_timeout(Some(Duration::from_millis(5))).unwrap();
        tx.write_all(b"ab").unwrap();
        drop(tx);
        let mut buf = [0u8; 2];
        assert!(matches!(
            read_full(&mut rx, &mut buf, || false).unwrap(),
            ReadOutcome::Full
        ));
        // Next read hits EOF with nothing buffered: clean.
        assert!(matches!(
            read_full(&mut rx, &mut buf, || false).unwrap(),
            ReadOutcome::Eof
        ));
    }

    #[test]
    fn torn_frame_is_an_error() {
        let (mut tx, mut rx) = pair();
        rx.set_read_timeout(Some(Duration::from_millis(5))).unwrap();
        tx.write_all(b"x").unwrap();
        drop(tx);
        let mut buf = [0u8; 4];
        let err = read_full(&mut rx, &mut buf, || false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn stop_predicate_interrupts_the_wait() {
        let (_tx, mut rx) = pair();
        rx.set_read_timeout(Some(Duration::from_millis(5))).unwrap();
        let mut buf = [0u8; 4];
        assert!(matches!(
            read_full(&mut rx, &mut buf, || true).unwrap(),
            ReadOutcome::Shutdown
        ));
    }
}
