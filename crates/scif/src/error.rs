//! SCIF error codes.
//!
//! libscif surfaces errno values; we mirror the ones the documented API
//! can produce so upper layers (and the vPHI wire protocol) can round-trip
//! them.

/// Result alias used across the crate.
pub type ScifResult<T> = Result<T, ScifError>;

/// The errno-style failures of the SCIF API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScifError {
    /// ECONNREFUSED — no listener on the destination port.
    ConnRefused,
    /// EADDRINUSE — port already bound.
    AddrInUse,
    /// ENOTCONN — operation requires a connected endpoint.
    NotConn,
    /// EISCONN — endpoint already connected/bound where it must not be.
    IsConn,
    /// EINVAL — bad argument (flags, lengths, states).
    Inval,
    /// ECONNRESET — peer closed underneath us.
    ConnReset,
    /// ENODEV — no such node, or node offline.
    NoDev,
    /// ENOMEM — out of memory (device GDDR or window space).
    NoMem,
    /// ENXIO — RMA offset not covered by a registered window.
    OutOfRange,
    /// EACCES — window protection forbids the access.
    Access,
    /// EAGAIN — non-blocking operation would block.
    Again,
    /// Invalid listener backlog or endpoint listening misuse.
    OpNotSupported,
    /// EIO — device I/O error (uncorrectable ECC, DMA engine fault).
    Io,
    /// ECANCELED — the submission's token was reaped after its endpoint
    /// closed or its card was reset; the operation was drained, not run
    /// to completion on the caller's behalf.
    Canceled,
}

/// How callers should react to a [`ScifError`].  Retry loops and tests
/// branch on this instead of string-matching variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorClass {
    /// Transient: the same call may succeed if reissued (possibly after
    /// backoff or waiting for the peer).
    Retryable,
    /// Permanent for this endpoint/request: retrying the identical call
    /// cannot succeed without outside intervention (reset, reconnect).
    Fatal,
}

impl ScifError {
    /// The errno number libscif would report, for protocol encoding.
    pub fn errno(self) -> i32 {
        match self {
            ScifError::ConnRefused => 111,
            ScifError::AddrInUse => 98,
            ScifError::NotConn => 107,
            ScifError::IsConn => 106,
            ScifError::Inval => 22,
            ScifError::ConnReset => 104,
            ScifError::NoDev => 19,
            ScifError::NoMem => 12,
            ScifError::OutOfRange => 6,
            ScifError::Access => 13,
            ScifError::Again => 11,
            ScifError::OpNotSupported => 95,
            ScifError::Io => 5,
            ScifError::Canceled => 125,
        }
    }

    /// Retryable/Fatal classification (see [`ErrorClass`]).
    pub fn class(self) -> ErrorClass {
        match self {
            // Would-block and no-listener-yet are worth reissuing.
            ScifError::Again | ScifError::ConnRefused => ErrorClass::Retryable,
            ScifError::AddrInUse
            | ScifError::NotConn
            | ScifError::IsConn
            | ScifError::Inval
            | ScifError::ConnReset
            | ScifError::NoDev
            | ScifError::NoMem
            | ScifError::OutOfRange
            | ScifError::Access
            | ScifError::OpNotSupported
            | ScifError::Io
            // Reissuing the identical call cannot un-cancel a reaped
            // token: the endpoint is gone or the card was reset.
            | ScifError::Canceled => ErrorClass::Fatal,
        }
    }

    pub fn is_retryable(self) -> bool {
        self.class() == ErrorClass::Retryable
    }

    /// Inverse of [`errno`](ScifError::errno) for protocol decoding.
    pub fn from_errno(e: i32) -> Option<ScifError> {
        Some(match e {
            111 => ScifError::ConnRefused,
            98 => ScifError::AddrInUse,
            107 => ScifError::NotConn,
            106 => ScifError::IsConn,
            22 => ScifError::Inval,
            104 => ScifError::ConnReset,
            19 => ScifError::NoDev,
            12 => ScifError::NoMem,
            6 => ScifError::OutOfRange,
            13 => ScifError::Access,
            11 => ScifError::Again,
            95 => ScifError::OpNotSupported,
            5 => ScifError::Io,
            125 => ScifError::Canceled,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ScifError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (name, msg) = match self {
            ScifError::ConnRefused => ("ECONNREFUSED", "connection refused"),
            ScifError::AddrInUse => ("EADDRINUSE", "port already bound"),
            ScifError::NotConn => ("ENOTCONN", "endpoint not connected"),
            ScifError::IsConn => ("EISCONN", "endpoint already connected"),
            ScifError::Inval => ("EINVAL", "invalid argument"),
            ScifError::ConnReset => ("ECONNRESET", "connection reset by peer"),
            ScifError::NoDev => ("ENODEV", "no such SCIF node"),
            ScifError::NoMem => ("ENOMEM", "out of memory"),
            ScifError::OutOfRange => ("ENXIO", "offset not in a registered window"),
            ScifError::Access => ("EACCES", "window protection violation"),
            ScifError::Again => ("EAGAIN", "operation would block"),
            ScifError::OpNotSupported => ("EOPNOTSUPP", "operation not supported"),
            ScifError::Io => ("EIO", "device I/O error"),
            ScifError::Canceled => ("ECANCELED", "operation canceled"),
        };
        write!(f, "{name}: {msg}")
    }
}

impl std::error::Error for ScifError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errno_round_trips() {
        for e in [
            ScifError::ConnRefused,
            ScifError::AddrInUse,
            ScifError::NotConn,
            ScifError::IsConn,
            ScifError::Inval,
            ScifError::ConnReset,
            ScifError::NoDev,
            ScifError::NoMem,
            ScifError::OutOfRange,
            ScifError::Access,
            ScifError::Again,
            ScifError::OpNotSupported,
            ScifError::Io,
            ScifError::Canceled,
        ] {
            assert_eq!(ScifError::from_errno(e.errno()), Some(e));
        }
        assert_eq!(ScifError::from_errno(0), None);
        assert_eq!(ScifError::from_errno(-1), None);
    }

    #[test]
    fn classification_separates_transient_from_permanent() {
        assert!(ScifError::Again.is_retryable());
        assert!(ScifError::ConnRefused.is_retryable());
        for fatal in [
            ScifError::AddrInUse,
            ScifError::NotConn,
            ScifError::IsConn,
            ScifError::Inval,
            ScifError::ConnReset,
            ScifError::NoDev,
            ScifError::NoMem,
            ScifError::OutOfRange,
            ScifError::Access,
            ScifError::OpNotSupported,
            ScifError::Io,
            ScifError::Canceled,
        ] {
            assert_eq!(fatal.class(), ErrorClass::Fatal, "{fatal}");
        }
    }

    #[test]
    fn display_uses_errno_names() {
        assert!(ScifError::ConnRefused.to_string().contains("ECONNREFUSED"));
        assert!(ScifError::OutOfRange.to_string().contains("registered window"));
        assert!(ScifError::Canceled.to_string().contains("ECANCELED"));
    }
}
