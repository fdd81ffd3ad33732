//! Error type shared by all dataframe operations.

use std::fmt;

use crate::heap::HeapSize;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by dataframe construction, access, and I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A column name was requested that does not exist in the frame.
    ColumnNotFound(String),
    /// Two columns with the same name were supplied to one frame.
    DuplicateColumn(String),
    /// Columns supplied to one frame have differing lengths.
    LengthMismatch {
        /// Name of the offending column.
        column: String,
        /// Its length.
        got: usize,
        /// The length of the first column in the frame.
        expected: usize,
    },
    /// An operation required a specific column type.
    TypeMismatch {
        /// Name or description of the operand.
        context: String,
        /// The type that was required.
        expected: &'static str,
        /// The type that was found.
        got: &'static str,
    },
    /// A row index was out of bounds.
    IndexOutOfBounds {
        /// The requested index.
        index: usize,
        /// The container length.
        len: usize,
    },
    /// CSV parsing failed.
    Csv {
        /// 1-based line number where the problem occurred.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// Input was structurally malformed (ragged rows, invalid encoding,
    /// a field contradicting its inferred column type). Unlike
    /// [`Error::Csv`] this pinpoints the offending column when known.
    Malformed {
        /// 1-based line number where the problem occurred (0 when the
        /// problem is not tied to a line, e.g. bad encoding).
        line: usize,
        /// Absolute byte offset into the source where the offending
        /// record (or first bad byte) starts, when known. Survives
        /// chunked ingestion: chunk-local offsets are rebased onto the
        /// whole file before the error escapes.
        offset: Option<u64>,
        /// The offending column's name, when known.
        column: Option<String>,
        /// Human-readable description.
        message: String,
    },
    /// Underlying I/O failure (message only, to keep the error `Clone`).
    Io(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ColumnNotFound(name) => write!(f, "column not found: {name:?}"),
            Error::DuplicateColumn(name) => write!(f, "duplicate column name: {name:?}"),
            Error::LengthMismatch { column, got, expected } => write!(
                f,
                "column {column:?} has length {got} but the frame has {expected} rows"
            ),
            Error::TypeMismatch { context, expected, got } => {
                write!(f, "{context}: expected {expected} column, got {got}")
            }
            Error::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            Error::Csv { line, message } => write!(f, "csv parse error at line {line}: {message}"),
            Error::Malformed { line, offset, column, message } => {
                write!(f, "malformed input")?;
                if *line > 0 {
                    write!(f, " at line {line}")?;
                }
                if let Some(o) = offset {
                    write!(f, " (byte {o})")?;
                }
                if let Some(c) = column {
                    write!(f, " (column {c:?})")?;
                }
                write!(f, ": {message}")
            }
            Error::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

/// Its messages, for a failed ingest chunk's payload.
impl HeapSize for Error {
    fn heap_bytes(&self) -> usize {
        match self {
            Error::ColumnNotFound(text)
            | Error::DuplicateColumn(text)
            | Error::Io(text)
            | Error::LengthMismatch { column: text, .. }
            | Error::TypeMismatch { context: text, .. }
            | Error::Csv { message: text, .. } => text.heap_bytes(),
            Error::Malformed { column, message, .. } => column.heap_bytes() + message.heap_bytes(),
            Error::IndexOutOfBounds { .. } => 0,
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_column_not_found() {
        let e = Error::ColumnNotFound("price".into());
        assert_eq!(e.to_string(), "column not found: \"price\"");
    }

    #[test]
    fn display_length_mismatch() {
        let e = Error::LengthMismatch { column: "a".into(), got: 3, expected: 5 };
        assert!(e.to_string().contains("length 3"));
        assert!(e.to_string().contains("5 rows"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e: Error = io.into();
        assert!(matches!(e, Error::Io(_)));
        assert!(e.to_string().contains("nope"));
    }

    #[test]
    fn display_malformed_variants() {
        let full = Error::Malformed {
            line: 4,
            offset: Some(31),
            column: Some("price".into()),
            message: "field \"x\" does not parse as float64".into(),
        };
        assert_eq!(
            full.to_string(),
            "malformed input at line 4 (byte 31) (column \"price\"): field \"x\" does not parse as float64"
        );
        let bare =
            Error::Malformed { line: 0, offset: None, column: None, message: "not valid UTF-8".into() };
        assert_eq!(bare.to_string(), "malformed input: not valid UTF-8");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            Error::ColumnNotFound("x".into()),
            Error::ColumnNotFound("x".into())
        );
        assert_ne!(
            Error::ColumnNotFound("x".into()),
            Error::ColumnNotFound("y".into())
        );
    }
}
