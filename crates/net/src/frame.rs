//! Length-prefixed framing and the connection handshake used on TCP links.
//!
//! The paper's testbed runs one node per Docker container and uses plain TCP sockets as
//! authenticated channels (Sec. 7.1). Framing is therefore deliberately minimal: every
//! protocol message travels as a 4-byte big-endian length followed by the encoded
//! [`brb_core::wire::WireMessage`] bytes, and every connection starts with a fixed-size
//! handshake that announces the connecting process's identifier. A length-prefixed run
//! of frames is the [`brb_core::wire::encode_batch`] layout without its leading count,
//! which is how [`read_batch_into`] turns a read's worth of frames into one batch.

use std::io::{self, BufRead, BufReader, Read, Write};

use brb_core::wire::split_batch;
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

/// Reads one length-prefixed frame, then every *complete* frame already sitting in the
/// reader's buffer — without blocking for more network data — into `batch`, which is
/// cleared first and left in the [`brb_core::wire::encode_batch`] layout: a `u32` frame
/// count, then each frame as it came off the wire (`u32` length, bytes). Returns the
/// frame count, at least 1.
///
/// The TCP framing is the batch framing without its count, so the buffered frames are
/// copied in one piece. Reusing `batch` across calls makes a burst cost no allocation
/// here; the caller freezes it once ([`bytes::Bytes::copy_from_slice`]) and hands the
/// whole burst on as one message. When traffic is sparse a burst is one frame.
///
/// # Errors
///
/// Returns [`io::ErrorKind::UnexpectedEof`] when the peer closed the connection, and
/// [`io::ErrorKind::InvalidData`] when an announced length exceeds [`MAX_FRAME_BYTES`].
/// An oversized length seen mid-drain is left unconsumed and surfaces on the next call.
pub fn read_batch_into<R: Read>(
    reader: &mut BufReader<R>,
    batch: &mut Vec<u8>,
) -> io::Result<usize> {
    // The frame count comes first and is written last.
    batch.clear();
    batch.extend_from_slice(&[0; 4]);
    // First frame: block until it arrives.
    let mut header = [0u8; 4];
    reader.read_exact(&mut header)?;
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer announced a {len} byte frame, above the {MAX_FRAME_BYTES} byte cap"),
        ));
    }
    batch.extend_from_slice(&header);
    let body = batch.len();
    batch.resize(body + len, 0);
    reader.read_exact(&mut batch[body..])?;

    // Drain: take every complete frame already buffered, never touching the socket.
    let buffered = reader.buffer();
    let (mut taken, mut count) = (0, 1u32);
    while let Some(&header) = buffered[taken..].first_chunk::<4>() {
        let next = u32::from_be_bytes(header) as usize;
        if next > MAX_FRAME_BYTES || buffered.len() - taken - 4 < next {
            // Oversized or incomplete: leave it for the next (blocking) call.
            break;
        }
        taken += 4 + next;
        count += 1;
    }
    batch.extend_from_slice(&buffered[..taken]);
    reader.consume(taken);
    batch[..4].copy_from_slice(&count.to_be_bytes());
    Ok(count as usize)
}

/// [`read_batch_into`] a fresh buffer, split back into its frames
/// ([`brb_core::wire::split_batch`]): zero-copy views of one allocation, so a burst of
/// `k` frames costs one buffer instead of `k`.
///
/// # Errors
///
/// As [`read_batch_into`].
pub fn read_frame_burst<R: Read>(reader: &mut BufReader<R>) -> io::Result<Vec<Bytes>> {
    let mut batch = Vec::new();
    read_batch_into(reader, &mut batch)?;
    Ok(split_batch(&Bytes::from(batch)).expect("read_batch_into writes the batch layout"))
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
        let mut reader = BufReader::new(Cursor::new(buf));
        let burst = read_frame_burst(&mut reader).unwrap();
        assert_eq!(burst, [Bytes::from_static(b"hello frame"), Bytes::new()]);
        assert_eq!(
            read_frame_burst(&mut reader).unwrap_err().kind(),
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
        let mut reader = BufReader::new(Cursor::new(forged));
        assert_eq!(
            read_frame_burst(&mut reader).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn truncated_frame_reports_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"full message").unwrap();
        buf.truncate(buf.len() - 3);
        let mut reader = BufReader::new(Cursor::new(buf));
        assert_eq!(
            read_frame_burst(&mut reader).unwrap_err().kind(),
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
    fn batch_read_writes_the_batch_layout_into_a_reused_buffer() {
        let frames = [b"one".as_slice(), b"", b"three"].map(Bytes::from_static);
        let mut wire = Vec::new();
        for frame in &frames {
            write_frame(&mut wire, frame).unwrap();
        }
        let mut reader = BufReader::new(Cursor::new(wire));
        let mut batch = Vec::new();
        // Everything is buffered after the first read, so one call takes every frame.
        assert_eq!(read_batch_into(&mut reader, &mut batch).unwrap(), 3);
        assert_eq!(batch, &brb_core::wire::encode_batch(&frames)[..]);

        // A shorter burst reuses the buffer and leaves no trace of the last one.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"solo").unwrap();
        let mut reader = BufReader::new(Cursor::new(wire));
        let (capacity, ptr) = (batch.capacity(), batch.as_ptr());
        assert_eq!(read_batch_into(&mut reader, &mut batch).unwrap(), 1);
        assert_eq!((batch.capacity(), batch.as_ptr()), (capacity, ptr));
        assert_eq!(
            batch,
            &brb_core::wire::encode_batch(&[Bytes::from_static(b"solo")])[..]
        );
        assert_eq!(
            read_batch_into(&mut reader, &mut batch).unwrap_err().kind(),
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
