//! The length-prefixed frame layer: how requests and responses travel
//! over a TCP stream, independent of what the payload bytes mean.
//!
//! Every frame is `[u32 len LE][body]`, where `len` counts the body
//! bytes only. A request body is `[u8 version][u8 opcode][u64 generation
//! LE][u64 slot LE][payload]`; a response body is `[u8 version][u8
//! status][payload]`. See `PROTOCOL.md` for the full layout and the
//! opcode table.

use std::io::{self, Read, Write};

/// Wire protocol version carried in every frame. Peers reject frames
/// whose version they do not speak instead of guessing at the layout.
pub(crate) const WIRE_VERSION: u8 = 1;

/// Upper bound on a frame body, so a corrupt or hostile length prefix
/// cannot trigger an unbounded allocation. Checkpoint sections dominate
/// frame sizes; 1 GiB leaves generous headroom over any real fleet.
pub const MAX_FRAME: usize = 1 << 30;

/// Response status: the payload is the requested value.
pub const STATUS_OK: u8 = 0;
/// Response status: the payload is an encoded [`tgs_core::TgsError`].
pub(crate) const STATUS_ERR: u8 = 1;

/// Request header: everything before the opcode-specific payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The operation (see the opcode table in `PROTOCOL.md`).
    pub opcode: u8,
    /// Topology generation the caller routed with (0 where exempt).
    pub generation: u64,
    /// The engine slot on the server this request addresses.
    pub slot: u64,
    /// Opcode-specific payload bytes.
    pub payload: Vec<u8>,
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Size of a frame body's first read; each later read doubles the body.
const FIRST_READ: usize = 4096;

/// Reads a `len`-byte body into a buffer that grows with the bytes
/// received, never ahead of them by more than the bytes already read (or
/// [`FIRST_READ`]): a length prefix alone cannot make the reader allocate
/// what the peer never sends.
fn read_body(r: &mut impl Read, len: usize) -> io::Result<Vec<u8>> {
    if len > MAX_FRAME {
        return Err(bad_data(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte bound"
        )));
    }
    let mut body = Vec::new();
    let mut end = len.min(FIRST_READ);
    while body.len() < len {
        let start = body.len();
        body.reserve_exact(end - start);
        body.resize(end, 0);
        r.read_exact(&mut body[start..])?;
        end = (2 * end).min(len);
    }
    Ok(body)
}

/// Reads the 4-byte length prefix, distinguishing a clean EOF before the
/// first byte (`Ok(None)`, the peer hung up between frames) from a
/// truncation mid-prefix (an error).
fn read_len(r: &mut impl Read) -> io::Result<Option<usize>> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid frame-length prefix",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(Some(u32::from_le_bytes(prefix) as usize))
}

/// Writes one request frame and flushes it.
pub fn write_request(
    w: &mut impl Write,
    opcode: u8,
    generation: u64,
    slot: u64,
    payload: &[u8],
) -> io::Result<()> {
    let body_len = 1 + 1 + 8 + 8 + payload.len();
    if body_len > MAX_FRAME {
        return Err(bad_data(format!(
            "request payload of {} bytes exceeds the frame bound",
            payload.len()
        )));
    }
    let mut frame = Vec::with_capacity(4 + body_len);
    frame.extend_from_slice(&(body_len as u32).to_le_bytes());
    frame.push(WIRE_VERSION);
    frame.push(opcode);
    frame.extend_from_slice(&generation.to_le_bytes());
    frame.extend_from_slice(&slot.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one request frame. `Ok(None)` when the peer closed the
/// connection cleanly between frames.
pub fn read_request(r: &mut impl Read) -> io::Result<Option<Request>> {
    let Some(len) = read_len(r)? else {
        return Ok(None);
    };
    if len < 18 {
        return Err(bad_data(format!(
            "request body of {len} bytes is too short"
        )));
    }
    let body = read_body(r, len)?;
    if body[0] != WIRE_VERSION {
        return Err(bad_data(format!(
            "unsupported wire version {} (this peer speaks {WIRE_VERSION})",
            body[0]
        )));
    }
    Ok(Some(Request {
        opcode: body[1],
        generation: u64::from_le_bytes(body[2..10].try_into().expect("length checked")),
        slot: u64::from_le_bytes(body[10..18].try_into().expect("length checked")),
        payload: body[18..].to_vec(),
    }))
}

/// Writes one response frame and flushes it.
pub fn write_response(w: &mut impl Write, status: u8, payload: &[u8]) -> io::Result<()> {
    let body_len = 1 + 1 + payload.len();
    if body_len > MAX_FRAME {
        return Err(bad_data(format!(
            "response payload of {} bytes exceeds the frame bound",
            payload.len()
        )));
    }
    let mut frame = Vec::with_capacity(4 + body_len);
    frame.extend_from_slice(&(body_len as u32).to_le_bytes());
    frame.push(WIRE_VERSION);
    frame.push(status);
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one response frame as `(status, payload)`.
pub fn read_response(r: &mut impl Read) -> io::Result<(u8, Vec<u8>)> {
    let len = read_len(r)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed while awaiting a response",
        )
    })?;
    if len < 2 {
        return Err(bad_data(format!(
            "response body of {len} bytes is too short"
        )));
    }
    let body = read_body(r, len)?;
    if body[0] != WIRE_VERSION {
        return Err(bad_data(format!(
            "unsupported wire version {} (this peer speaks {WIRE_VERSION})",
            body[0]
        )));
    }
    Ok((body[1], body[2..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_frames_roundtrip() {
        let mut wire = Vec::new();
        write_request(&mut wire, 7, 3, 11, b"payload").unwrap();
        write_request(&mut wire, 2, 0, 0, b"").unwrap();
        let mut r = wire.as_slice();
        let first = read_request(&mut r).unwrap().unwrap();
        assert_eq!(
            first,
            Request {
                opcode: 7,
                generation: 3,
                slot: 11,
                payload: b"payload".to_vec(),
            }
        );
        let second = read_request(&mut r).unwrap().unwrap();
        assert_eq!(second.opcode, 2);
        assert!(second.payload.is_empty());
        assert!(read_request(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn response_frames_roundtrip() {
        let mut wire = Vec::new();
        write_response(&mut wire, STATUS_OK, &[1, 2, 3]).unwrap();
        let (status, payload) = read_response(&mut wire.as_slice()).unwrap();
        assert_eq!((status, payload.as_slice()), (STATUS_OK, &[1u8, 2, 3][..]));
    }

    #[test]
    fn truncation_and_version_skew_are_errors() {
        let mut wire = Vec::new();
        write_request(&mut wire, 7, 3, 11, b"payload").unwrap();
        // Mid-prefix truncation.
        assert!(read_request(&mut &wire[..2]).is_err());
        // Mid-body truncation.
        assert!(read_request(&mut &wire[..wire.len() - 1]).is_err());
        // Version byte the reader does not speak.
        let mut skewed = wire.clone();
        skewed[4] = 99;
        assert!(read_request(&mut skewed.as_slice()).is_err());
        // A hostile length prefix is rejected before allocating.
        let mut huge = wire;
        huge[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_request(&mut huge.as_slice()).is_err());
    }
}
