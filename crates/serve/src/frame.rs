//! The length-prefixed JSON framing protocol.
//!
//! Every message on a `sidr-serve` connection is one *frame*: a
//! little-endian `u32` payload length followed by exactly that many
//! bytes of UTF-8 JSON. The format mirrors the shuffle's
//! `WireFormat` discipline (`crates/mapreduce/src/wire.rs`): reads
//! never trust the peer — a short length prefix, a payload cut off
//! mid-byte, a length past [`MAX_FRAME`] or bytes that are not the
//! expected JSON all surface as typed [`FrameError`]s, never as a
//! panic and never as an over-read.
//!
//! Clean connection teardown is distinguishable from corruption:
//! [`read_frame`] returns `Ok(None)` only when EOF lands exactly on a
//! frame boundary. EOF anywhere inside a frame is
//! [`FrameError::Truncated`].

use std::io::{ErrorKind, IoSlice, Read, Write};

use serde::{Deserialize, Serialize};

/// Upper bound on a frame's payload, chosen to comfortably hold the
/// largest legitimate message (a `Done` frame carrying a full result
/// set) while bounding what a hostile length prefix can make the
/// server allocate.
pub const MAX_FRAME: u32 = 32 << 20;

/// Version of the coordinator/worker/client wire protocol. Bumped on
/// every incompatible message-shape change; the [`Hello`] handshake
/// compares it so a mismatched pair of builds fails with a typed
/// [`FrameError::VersionMismatch`] instead of deserialization garbage.
/// The fetched SMOF partitions and keyblock frames are part of the
/// contract: v6 is the version whose partition CRC covers the header,
/// v7 the one whose `KeyblockBin` CRC does; v8's `MapDone` names each
/// partition's rows beside its reducer; v9's `SubmitOptions` has no
/// annotation-validation switch; v10's partitions are run-grouped SMOF
/// v4, so a v9 peer would read every fetched partition as corrupt.
pub const PROTOCOL_VERSION: u32 = 10;

/// Fixed magic carried by every [`Hello`]: distinguishes a handshake
/// frame from whatever else a stray dialer might send first.
pub const HELLO_MAGIC: &str = "sidr";

/// Payload bytes are read in chunks of at most this size into a
/// growing buffer, so a connection's memory tracks bytes *actually
/// received*: a client that sends a `MAX_FRAME` length prefix and
/// then stalls pins one chunk, not 32 MiB.
pub const READ_CHUNK: usize = 64 << 10;

/// Everything that can go wrong at the framing layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(String),
    /// The peer hung up inside a frame (length prefix or payload).
    Truncated { expected: usize, got: usize },
    /// The length prefix exceeds [`MAX_FRAME`]; the stream cannot be
    /// resynchronized and must be closed.
    Oversized { len: u32, max: u32 },
    /// The payload was delivered whole but is not the expected JSON.
    Malformed(String),
    /// The [`Hello`] handshake failed: the peer speaks a different
    /// protocol version, or is the wrong kind of endpoint entirely
    /// (e.g. a client dialing a worker's task port).
    VersionMismatch { detail: String },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Malformed(e) => write!(f, "malformed frame payload: {e}"),
            FrameError::VersionMismatch { detail } => {
                write!(f, "protocol handshake failed: {detail}")
            }
        }
    }
}

/// What an endpoint *is*, exchanged in the [`Hello`] handshake so a
/// dialer that reached the wrong kind of port finds out immediately.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// A `sidr-submit`-style client.
    Client,
    /// The coordinator (`sidr-serve`): planning, admission, dispatch.
    Coordinator,
    /// A `sidr-worker`: runs task attempts, serves shuffle fetches.
    Worker,
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Role::Client => write!(f, "client"),
            Role::Coordinator => write!(f, "coordinator"),
            Role::Worker => write!(f, "worker"),
        }
    }
}

/// The version/role handshake frame. The dialer sends one `Hello`
/// first; the listener validates it and answers with its own. Every
/// connection — client, coordinator or worker — opens with one.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Hello {
    pub magic: String,
    pub version: u32,
    pub role: Role,
}

impl Hello {
    /// A handshake frame announcing this endpoint's role at the
    /// current protocol version.
    pub fn new(role: Role) -> Self {
        Hello {
            magic: HELLO_MAGIC.to_string(),
            version: PROTOCOL_VERSION,
            role,
        }
    }

    /// Validates a received `Hello` against our version. Role is
    /// checked separately by the side that cares.
    pub fn check(&self) -> Result<(), FrameError> {
        if self.magic != HELLO_MAGIC {
            return Err(FrameError::VersionMismatch {
                detail: format!("bad handshake magic {:?}", self.magic),
            });
        }
        if self.version != PROTOCOL_VERSION {
            return Err(FrameError::VersionMismatch {
                detail: format!(
                    "peer speaks protocol v{}, this build speaks v{PROTOCOL_VERSION}",
                    self.version
                ),
            });
        }
        Ok(())
    }
}

/// Dialer-side handshake: announce `ours`, read the listener's reply,
/// and require the peer to be `expect_peer` at our protocol version.
pub fn handshake_dial<S: Read + Write>(
    stream: &mut S,
    ours: Role,
    expect_peer: Role,
) -> Result<(), FrameError> {
    send(stream, &Hello::new(ours))?;
    let hello: Hello = match recv(stream)? {
        Some(h) => h,
        None => {
            return Err(FrameError::VersionMismatch {
                detail: "peer closed the connection during the handshake".into(),
            })
        }
    };
    hello.check()?;
    if hello.role != expect_peer {
        return Err(FrameError::VersionMismatch {
            detail: format!("dialed a {} port, expected a {expect_peer}", hello.role),
        });
    }
    Ok(())
}

/// Listener-side handshake completion: validate the dialer's `Hello`
/// (already read off the stream) and answer with our own role.
pub fn handshake_accept<W: Write>(
    writer: &mut W,
    theirs: &Hello,
    ours: Role,
) -> Result<Role, FrameError> {
    theirs.check()?;
    send(writer, &Hello::new(ours))?;
    Ok(theirs.role)
}

impl std::error::Error for FrameError {}

/// Writes one frame: `u32` little-endian length, then the payload —
/// one vectored write, so prefix and payload leave in a single
/// syscall with no intermediate copy into a combined buffer.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    write_frames(w, &[payload])
}

/// Writes consecutive frames as one gathered write
/// (`[len, payload, len, payload, …]`): the bytes on the wire are those
/// of one [`write_frame`] per payload, but a reply and the raw frame
/// after it leave in one syscall instead of two writes a peer's
/// delayed ACK can hold apart.
pub fn write_frames(w: &mut impl Write, payloads: &[&[u8]]) -> Result<(), FrameError> {
    let prefixes = payloads
        .iter()
        .map(|p| length_prefix(p))
        .collect::<Result<Vec<_>, _>>()?;
    let mut bufs: Vec<IoSlice<'_>> = prefixes
        .iter()
        .zip(payloads)
        .flat_map(|(len, payload)| [IoSlice::new(len), IoSlice::new(payload)])
        .collect();
    write_all_vectored(w, &mut bufs)
        .and_then(|()| w.flush())
        .map_err(|e| FrameError::Io(e.to_string()))
}

/// A payload's `u32` little-endian length prefix, or `Oversized`.
fn length_prefix(payload: &[u8]) -> Result<[u8; 4], FrameError> {
    let len = u32::try_from(payload.len()).map_err(|_| FrameError::Oversized {
        len: u32::MAX,
        max: MAX_FRAME,
    })?;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized {
            len,
            max: MAX_FRAME,
        });
    }
    Ok(len.to_le_bytes())
}

/// Writes every slice completely, in order, preferring gathered
/// writes. Short writes resume mid-slice; `Ok(0)` from a non-empty
/// request is reported as `WriteZero`, mirroring `write_all`.
fn write_all_vectored(w: &mut impl Write, mut rest: &mut [IoSlice<'_>]) -> std::io::Result<()> {
    // advance_slices drops leading empty/consumed slices, so the loop
    // terminates exactly when every slice is fully written.
    IoSlice::advance_slices(&mut rest, 0);
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one frame's payload. `Ok(None)` means the peer closed the
/// connection cleanly, exactly on a frame boundary.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    match read_fill(r, &mut prefix)? {
        0 => return Ok(None),
        4 => {}
        got => return Err(FrameError::Truncated { expected: 4, got }),
    }
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME {
        return Err(FrameError::Oversized {
            len,
            max: MAX_FRAME,
        });
    }
    let len = len as usize;
    // Never allocate the prefix's claim up front: grow by bounded
    // chunks as bytes arrive (see [`READ_CHUNK`]).
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    while payload.len() < len {
        let chunk = (len - payload.len()).min(READ_CHUNK);
        let start = payload.len();
        payload.resize(start + chunk, 0);
        let got = read_fill(r, &mut payload[start..])?;
        payload.truncate(start + got);
        if got < chunk {
            return Err(FrameError::Truncated {
                expected: len,
                got: payload.len(),
            });
        }
    }
    Ok(Some(payload))
}

/// Reads until `buf` is full or EOF; returns bytes read. Interrupted
/// reads are retried, any other error is transport failure.
fn read_fill(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    Ok(got)
}

/// Serializes a message and writes it as one frame.
pub fn send<T: Serialize>(w: &mut impl Write, msg: &T) -> Result<(), FrameError> {
    write_frame(w, to_json(msg)?.as_bytes())
}

/// A message's frame payload: its JSON text.
pub fn to_json<T: Serialize>(msg: &T) -> Result<String, FrameError> {
    serde_json::to_string(msg).map_err(|e| FrameError::Malformed(e.to_string()))
}

/// Reads one frame and decodes it as `T`. `Ok(None)` on clean EOF.
pub fn recv<T: Deserialize>(r: &mut impl Read) -> Result<Option<T>, FrameError> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    decode_json(&payload).map(Some)
}

/// Decodes one already-read frame payload as JSON (callers that peek
/// at the payload first — e.g. for a binary tag — finish with this).
pub fn decode_json<T: Deserialize>(payload: &[u8]) -> Result<T, FrameError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| FrameError::Malformed(format!("payload is not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| FrameError::Malformed(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn eof_inside_a_frame_is_truncation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        for cut in 1..buf.len() {
            let mut r = &buf[..cut];
            match read_frame(&mut r) {
                Err(FrameError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected truncation, got {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected_without_allocating() {
        let mut buf = (MAX_FRAME + 1).to_le_bytes().to_vec();
        buf.extend_from_slice(b"xx");
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r),
            Err(FrameError::Oversized {
                len: MAX_FRAME + 1,
                max: MAX_FRAME
            })
        );
    }
}
