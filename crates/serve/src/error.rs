//! Structured errors for the frame service.
//!
//! Every failure mode a client or server can hit on the wire — transport
//! errors, framing corruption, protocol violations, and errors the server
//! reports back in-band — is a variant here. Corrupt input must surface as
//! an error, never a panic: the decode paths are written against this
//! enum and `tests/decoders_total.rs` holds them to it.

use accelviz_math::ReadError;
use accelviz_store::codec::CodecError;
use std::fmt;
use std::io;

/// Anything that can go wrong speaking the accelviz-serve protocol.
#[derive(Debug)]
pub enum ServeError {
    /// An underlying transport error (connect, read, write).
    Io(io::Error),
    /// The stream did not start with the `AVWF` envelope magic.
    BadMagic([u8; 4]),
    /// The peer speaks an envelope version we do not.
    UnsupportedVersion(u16),
    /// The envelope kind byte names no known message.
    UnknownKind(u8),
    /// The envelope checksum did not match the received bytes.
    ChecksumMismatch {
        /// Checksum carried by the envelope.
        expected: u64,
        /// Checksum recomputed over the received bytes.
        actual: u64,
    },
    /// The stream ended mid-envelope.
    Truncated {
        /// Bytes the decoder still needed.
        needed: u64,
        /// Bytes actually available.
        got: u64,
    },
    /// The envelope framed correctly but its payload does not decode.
    Corrupt(String),
    /// The server answered with an in-band error reply.
    Remote {
        /// Machine-readable error code (one of the `ERR_*` constants in
        /// [`crate::protocol`]).
        code: u16,
        /// Human-readable server message.
        message: String,
    },
    /// The peer sent a well-formed message that violates the protocol
    /// state machine (e.g. a response where a request belongs).
    Protocol(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "transport error: {e}"),
            ServeError::BadMagic(m) => {
                write!(f, "bad envelope magic {m:?} (expected \"AVWF\")")
            }
            ServeError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v}")
            }
            ServeError::UnknownKind(k) => write!(f, "unknown message kind 0x{k:02x}"),
            ServeError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: envelope says {expected:#018x}, stream hashes to {actual:#018x}"
            ),
            ServeError::Truncated { needed, got } => {
                write!(f, "truncated stream: needed {needed} more bytes, got {got}")
            }
            ServeError::Corrupt(why) => write!(f, "corrupt payload: {why}"),
            ServeError::Remote { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ServeError::Protocol(why) => write!(f, "protocol violation: {why}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl ServeError {
    /// Whether a retry (possibly over a fresh connection) has a real
    /// chance of succeeding. Transport hiccups and framing desync are
    /// transient — the strict request/reply protocol makes a reconnect +
    /// re-handshake + replay safe. A version mismatch or a server-side
    /// rejection of the request itself is not going to change on retry;
    /// the one retryable in-band error is `ERR_BUSY`, the server's
    /// explicit "come back shortly".
    pub fn is_transient(&self) -> bool {
        match self {
            ServeError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::TimedOut
                    | io::ErrorKind::WouldBlock
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::ConnectionRefused
                    | io::ErrorKind::BrokenPipe
                    | io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::Interrupted
                    | io::ErrorKind::NotConnected
            ),
            // Stream desync or corruption: the connection is gone, but a
            // reconnect starts from a clean envelope boundary.
            ServeError::Truncated { .. }
            | ServeError::ChecksumMismatch { .. }
            | ServeError::Corrupt(_)
            | ServeError::BadMagic(_)
            | ServeError::UnknownKind(_)
            | ServeError::Protocol(_) => true,
            ServeError::UnsupportedVersion(_) => false,
            ServeError::Remote { code, .. } => *code == crate::protocol::ERR_BUSY,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

/// A payload read past its end, or with bytes left over, is corrupt.
impl From<ReadError> for ServeError {
    fn from(e: ReadError) -> ServeError {
        ServeError::Corrupt(match e.wanted {
            0 => format!("{} trailing bytes after payload", e.have),
            _ => format!("payload overrun: {e}"),
        })
    }
}

/// A codec block or progressive record that does not decode is corrupt.
impl From<CodecError> for ServeError {
    fn from(e: CodecError) -> ServeError {
        ServeError::Corrupt(e.to_string())
    }
}

/// Maps onto the closest [`io::ErrorKind`] instead of flattening
/// everything to one kind, so `FrameSource` callers and the retry
/// classifier can tell a timeout from corruption from a server
/// rejection. The original [`ServeError`] rides along as the error's
/// source, downcastable via [`io::Error::get_ref`].
impl From<ServeError> for io::Error {
    fn from(e: ServeError) -> io::Error {
        let kind = match &e {
            ServeError::Io(_) => {
                let ServeError::Io(inner) = e else {
                    unreachable!()
                };
                return inner;
            }
            ServeError::Truncated { .. } => io::ErrorKind::UnexpectedEof,
            ServeError::UnsupportedVersion(_) => io::ErrorKind::Unsupported,
            ServeError::Remote { .. } => io::ErrorKind::Other,
            ServeError::BadMagic(_)
            | ServeError::UnknownKind(_)
            | ServeError::ChecksumMismatch { .. }
            | ServeError::Corrupt(_)
            | ServeError::Protocol(_) => io::ErrorKind::InvalidData,
        };
        io::Error::new(kind, e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ServeError::ChecksumMismatch {
            expected: 1,
            actual: 2,
        };
        let s = e.to_string();
        assert!(s.contains("checksum"), "{s}");
        assert!(ServeError::BadMagic(*b"HTTP").to_string().contains("AVWF"));
        assert!(ServeError::Remote {
            code: 2,
            message: "no such frame".into()
        }
        .to_string()
        .contains("no such frame"));
    }

    #[test]
    fn io_conversion_roundtrip_preserves_message() {
        let e = ServeError::Truncated { needed: 8, got: 3 };
        let io: io::Error = e.into();
        assert_eq!(io.kind(), io::ErrorKind::UnexpectedEof);
        assert!(io.to_string().contains("truncated"));
    }

    #[test]
    fn io_conversion_preserves_kinds() {
        let timeout = ServeError::Io(io::Error::new(io::ErrorKind::TimedOut, "slow link"));
        let io: io::Error = timeout.into();
        assert_eq!(io.kind(), io::ErrorKind::TimedOut);

        let cases: [(ServeError, io::ErrorKind); 4] = [
            (
                ServeError::ChecksumMismatch {
                    expected: 1,
                    actual: 2,
                },
                io::ErrorKind::InvalidData,
            ),
            (
                ServeError::Truncated { needed: 4, got: 0 },
                io::ErrorKind::UnexpectedEof,
            ),
            (
                ServeError::UnsupportedVersion(9),
                io::ErrorKind::Unsupported,
            ),
            (
                ServeError::Remote {
                    code: 3,
                    message: "boom".into(),
                },
                io::ErrorKind::Other,
            ),
        ];
        for (err, kind) in cases {
            let io: io::Error = err.into();
            assert_eq!(io.kind(), kind, "{io}");
            // The structured error survives as the source.
            assert!(io.get_ref().map(|s| s.is::<ServeError>()).unwrap_or(false));
        }
    }

    #[test]
    fn transient_classification_matches_the_retry_contract() {
        assert!(ServeError::Io(io::Error::new(io::ErrorKind::TimedOut, "t")).is_transient());
        assert!(ServeError::Io(io::Error::new(io::ErrorKind::ConnectionReset, "r")).is_transient());
        assert!(ServeError::Truncated { needed: 1, got: 0 }.is_transient());
        assert!(ServeError::ChecksumMismatch {
            expected: 1,
            actual: 2
        }
        .is_transient());
        assert!(!ServeError::UnsupportedVersion(2).is_transient());
        assert!(!ServeError::Remote {
            code: crate::protocol::ERR_NO_SUCH_FRAME,
            message: "gone".into()
        }
        .is_transient());
        assert!(ServeError::Remote {
            code: crate::protocol::ERR_BUSY,
            message: "shed".into()
        }
        .is_transient());
        // Permission-style local errors are fatal.
        assert!(
            !ServeError::Io(io::Error::new(io::ErrorKind::PermissionDenied, "p")).is_transient()
        );
    }
}
