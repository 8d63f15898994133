//! Length-prefixed framing and the connection handshake used on TCP links.
//!
//! The paper's testbed runs one node per Docker container and uses plain TCP sockets as
//! authenticated channels (Sec. 7.1). Framing is therefore deliberately minimal: every
//! protocol message travels as a 4-byte big-endian length followed by the encoded
//! [`brb_core::wire::WireMessage`] bytes, and every connection starts with a fixed-size
//! handshake that announces the connecting process's identifier.

use std::io::{self, BufRead, BufReader, Read, Write};

use bytes::Bytes;

/// Maximum accepted frame size, in bytes.
///
/// Protocol messages are small (a path of at most `N` 4-byte identifiers plus a payload);
/// the cap protects a node from a Byzantine peer announcing a multi-gigabyte frame and
/// exhausting its memory.
pub const MAX_FRAME_BYTES: usize = 1 << 22; // 4 MiB

/// Magic byte opening every handshake, to fail fast on foreign traffic.
pub const HANDSHAKE_MAGIC: u8 = 0xB7;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Returns any I/O error of the underlying writer, or [`io::ErrorKind::InvalidInput`] if
/// `bytes` exceeds [`MAX_FRAME_BYTES`].
pub fn write_frame<W: Write>(writer: &mut W, bytes: &[u8]) -> io::Result<()> {
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME_BYTES} byte cap",
                bytes.len()
            ),
        ));
    }
    writer.write_all(&(bytes.len() as u32).to_be_bytes())?;
    writer.write_all(bytes)?;
    writer.flush()
}

/// Reads one length-prefixed frame.
///
/// # Errors
///
/// Returns [`io::ErrorKind::UnexpectedEof`] when the peer closed the connection, and
/// [`io::ErrorKind::InvalidData`] when the announced length exceeds [`MAX_FRAME_BYTES`].
pub fn read_frame<R: Read>(reader: &mut R) -> io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    reader.read_exact(&mut len_bytes)?;
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer announced a {len} byte frame, above the {MAX_FRAME_BYTES} byte cap"),
        ));
    }
    let mut buf = vec![0u8; len];
    reader.read_exact(&mut buf)?;
    Ok(buf)
}

/// Reads one length-prefixed frame, then drains every *complete* frame already sitting in
/// the reader's buffer — without blocking for more network data — into a single pooled
/// allocation. The returned [`Bytes`] are zero-copy slices of that one buffer, so a burst
/// of `k` frames costs one `Vec` allocation instead of `k`.
///
/// Under load (a peer's batched write landing as one TCP segment) this turns per-frame
/// heap traffic into per-burst heap traffic; when traffic is sparse it degenerates to
/// exactly [`read_frame`] (a one-frame burst).
///
/// # Errors
///
/// Returns [`io::ErrorKind::UnexpectedEof`] when the peer closed the connection, and
/// [`io::ErrorKind::InvalidData`] when an announced length exceeds [`MAX_FRAME_BYTES`].
/// An oversized length seen mid-drain is left unconsumed and surfaces on the next call.
pub fn read_frame_burst<R: Read>(reader: &mut BufReader<R>) -> io::Result<Vec<Bytes>> {
    // First frame: block until it arrives, exactly like read_frame.
    let mut len_bytes = [0u8; 4];
    reader.read_exact(&mut len_bytes)?;
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer announced a {len} byte frame, above the {MAX_FRAME_BYTES} byte cap"),
        ));
    }
    let mut staging = vec![0u8; len];
    reader.read_exact(&mut staging)?;
    let mut marks = vec![(0, len)];

    // Drain: take every complete frame already buffered, never touching the socket.
    loop {
        let buffered = reader.buffer();
        if buffered.len() < 4 {
            break;
        }
        let next =
            u32::from_be_bytes([buffered[0], buffered[1], buffered[2], buffered[3]]) as usize;
        if next > MAX_FRAME_BYTES || buffered.len() < 4 + next {
            // Oversized or incomplete: leave it for the next (blocking) call.
            break;
        }
        let start = staging.len();
        staging.extend_from_slice(&buffered[4..4 + next]);
        marks.push((start, staging.len()));
        reader.consume(4 + next);
    }

    let pooled = Bytes::from(staging);
    Ok(marks
        .into_iter()
        .map(|(start, end)| pooled.slice(start..end))
        .collect())
}

/// Writes the connection handshake: magic byte plus the connecting process's identifier.
///
/// # Errors
///
/// Returns any I/O error of the underlying writer.
pub fn write_handshake<W: Write>(writer: &mut W, id: usize) -> io::Result<()> {
    writer.write_all(&[HANDSHAKE_MAGIC])?;
    writer.write_all(&(id as u32).to_be_bytes())?;
    writer.flush()
}

/// Reads and validates a connection handshake, returning the announced process identifier.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] if the magic byte does not match, and any I/O
/// error of the underlying reader.
pub fn read_handshake<R: Read>(reader: &mut R) -> io::Result<usize> {
    let mut magic = [0u8; 1];
    reader.read_exact(&mut magic)?;
    if magic[0] != HANDSHAKE_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "handshake magic byte mismatch",
        ));
    }
    let mut id_bytes = [0u8; 4];
    reader.read_exact(&mut id_bytes)?;
    Ok(u32::from_be_bytes(id_bytes) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello frame").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello frame");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
        assert_eq!(
            read_frame(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn oversized_frames_are_rejected_on_both_sides() {
        let big = vec![0u8; MAX_FRAME_BYTES + 1];
        let mut buf = Vec::new();
        assert_eq!(
            write_frame(&mut buf, &big).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        // A peer announcing an oversized length is rejected before allocation.
        let mut forged = Vec::new();
        forged.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut cursor = Cursor::new(forged);
        assert_eq!(
            read_frame(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn truncated_frame_reports_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"full message").unwrap();
        buf.truncate(buf.len() - 3);
        let mut cursor = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn burst_read_drains_buffered_frames_zero_copy() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"third frame").unwrap();
        let mut reader = BufReader::new(Cursor::new(buf));
        let burst = read_frame_burst(&mut reader).unwrap();
        assert_eq!(burst.len(), 3, "all complete buffered frames drain at once");
        assert_eq!(&burst[0][..], b"first");
        assert_eq!(&burst[1][..], b"");
        assert_eq!(&burst[2][..], b"third frame");
        assert_eq!(
            read_frame_burst(&mut reader).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn burst_read_leaves_incomplete_tail_for_the_next_call() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"whole").unwrap();
        write_frame(&mut buf, b"truncated tail").unwrap();
        buf.truncate(buf.len() - 3);
        let mut reader = BufReader::new(Cursor::new(buf));
        let burst = read_frame_burst(&mut reader).unwrap();
        assert_eq!(burst.len(), 1);
        assert_eq!(&burst[0][..], b"whole");
        // The truncated frame surfaces as EOF on the next blocking read.
        assert_eq!(
            read_frame_burst(&mut reader).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn handshake_roundtrip_and_magic_check() {
        let mut buf = Vec::new();
        write_handshake(&mut buf, 42).unwrap();
        let mut cursor = Cursor::new(buf.clone());
        assert_eq!(read_handshake(&mut cursor).unwrap(), 42);

        buf[0] = 0x00;
        let mut cursor = Cursor::new(buf);
        assert_eq!(
            read_handshake(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }
}
