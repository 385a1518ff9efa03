//! Length-prefixed framing for the wire protocol.
//!
//! Every message is `[u32 big-endian payload length][payload bytes]`; the
//! payload is one canonical-JSON document. The length header makes torn
//! input detectable: a reader either gets a whole frame, a clean EOF on
//! the frame boundary ([`FrameError::Closed`]), or a typed error naming
//! what went wrong. Oversized lengths are refused **before** allocating,
//! so a hostile or desynchronized peer cannot balloon server memory.

use std::io::{Read, Write};

/// Default cap on a single frame's payload (16 MiB) — far above any
/// legitimate request, far below an allocation attack.
pub const DEFAULT_MAX_FRAME: usize = 16 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly on a frame boundary.
    Closed,
    /// The stream ended mid-frame: `got` of `want` bytes arrived.
    Torn {
        /// Bytes actually read.
        got: usize,
        /// Bytes the header (or the length prefix itself) promised.
        want: usize,
    },
    /// The header declared a payload larger than the reader's cap.
    TooLarge {
        /// Declared payload length.
        len: usize,
        /// The reader's cap.
        max: usize,
    },
    /// An underlying I/O error.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Torn { got, want } => {
                write!(f, "torn frame: got {got} of {want} bytes")
            }
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
        }
    }
}

/// Writes one frame: length header, then the payload, in a single write
/// (on a `TCP_NODELAY` socket two writes would cost two segments).
///
/// # Errors
///
/// [`FrameError::TooLarge`] when the payload exceeds `u32`, otherwise
/// I/O errors from the writer.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    let len = u32::try_from(payload.len()).map_err(|_| FrameError::TooLarge {
        len: payload.len(),
        max: u32::MAX as usize,
    })?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame).map_err(FrameError::Io)?;
    w.flush().map_err(FrameError::Io)
}

/// Reads one frame's payload, enforcing `max_frame`.
///
/// # Errors
///
/// [`FrameError::Closed`] on clean EOF before any header byte;
/// [`FrameError::Torn`] when the stream ends inside the header or
/// payload; [`FrameError::TooLarge`] on an oversized declared length
/// (nothing is read past the header in that case — the stream is
/// desynchronized and should be dropped); I/O errors otherwise.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 4];
    let mut filled = 0usize;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Torn {
                    got: filled,
                    want: header.len(),
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max_frame {
        return Err(FrameError::TooLarge {
            len,
            max: max_frame,
        });
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(FrameError::Torn {
                    got: filled,
                    want: len,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        for payload in [&b""[..], b"x", b"{\"id\":1}", &[0xffu8; 5000]] {
            let mut buf = Vec::new();
            write_frame(&mut buf, payload).unwrap();
            assert_eq!(buf.len(), 4 + payload.len());
            let back = read_frame(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(back, payload);
        }
    }

    #[test]
    fn clean_eof_is_closed_and_partial_is_torn() {
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut Cursor::new(empty), 64),
            Err(FrameError::Closed)
        ));
        // Torn header.
        assert!(matches!(
            read_frame(&mut Cursor::new(&[0u8, 0][..]), 64),
            Err(FrameError::Torn { got: 2, want: 4 })
        ));
        // Torn payload.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello world").unwrap();
        buf.truncate(buf.len() - 4);
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf), 64),
            Err(FrameError::Torn { got: 7, want: 11 })
        ));
    }

    #[test]
    fn oversized_header_is_refused_without_reading_payload() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.extend_from_slice(b"whatever");
        let err = read_frame(&mut Cursor::new(&buf), 1024);
        assert!(matches!(err, Err(FrameError::TooLarge { max: 1024, .. })));
    }
}
