//! Error types for TTKV persistence.

use std::fmt;
use std::io;

/// Error returned by TTKV persistence operations.
#[derive(Debug)]
pub enum TtkvError {
    /// The underlying reader or writer failed.
    Io(io::Error),
    /// A line-oriented text input (a trace file) was malformed.
    Parse {
        /// 1-based line number where parsing failed.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The persisted binary (v2) representation was malformed.
    Corrupt {
        /// Byte offset into the segment where decoding failed.
        offset: usize,
        /// Description of the problem.
        message: String,
    },
}

impl TtkvError {
    pub(crate) fn corrupt(offset: usize, message: impl Into<String>) -> Self {
        TtkvError::Corrupt {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for TtkvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TtkvError::Io(e) => write!(f, "i/o error: {e}"),
            TtkvError::Parse { line, message } => {
                write!(f, "malformed ttkv data at line {line}: {message}")
            }
            TtkvError::Corrupt { offset, message } => {
                write!(f, "corrupt ttkv segment at byte {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for TtkvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TtkvError::Io(e) => Some(e),
            TtkvError::Parse { .. } | TtkvError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for TtkvError {
    fn from(e: io::Error) -> Self {
        TtkvError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_is_informative() {
        let e = TtkvError::Parse {
            line: 3,
            message: "bad token".into(),
        };
        assert_eq!(e.to_string(), "malformed ttkv data at line 3: bad token");
        let c = TtkvError::corrupt(17, "checksum mismatch");
        assert_eq!(
            c.to_string(),
            "corrupt ttkv segment at byte 17: checksum mismatch"
        );
        let io_err = TtkvError::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(io_err.to_string().contains("gone"));
        assert!(io_err.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TtkvError>();
    }
}
