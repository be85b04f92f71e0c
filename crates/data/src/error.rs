//! Error type for the data substrate.

use std::fmt;

/// Errors produced while parsing or manipulating data-lake content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// A CSV document was structurally malformed (e.g. unterminated quote).
    Csv { line: usize, message: String },
    /// A value could not be coerced to the requested type.
    TypeMismatch {
        expected: &'static str,
        found: String,
    },
    /// A referenced field does not exist in the schema.
    UnknownField(String),
    /// Row arity did not match the table schema.
    ArityMismatch { expected: usize, found: usize },
    /// An I/O failure while loading documents from disk.
    Io(String),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::Csv { line, message } => {
                write!(f, "csv parse error at line {line}: {message}")
            }
            DataError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            DataError::UnknownField(name) => write!(f, "unknown field: {name}"),
            DataError::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "arity mismatch: expected {expected} columns, found {found}"
                )
            }
            DataError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for DataError {}

impl From<std::io::Error> for DataError {
    fn from(err: std::io::Error) -> Self {
        DataError::Io(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = DataError::Csv {
            line: 3,
            message: "unterminated quote".into(),
        };
        assert_eq!(
            err.to_string(),
            "csv parse error at line 3: unterminated quote"
        );
        let err = DataError::TypeMismatch {
            expected: "int",
            found: "str(\"x\")".into(),
        };
        assert!(err.to_string().contains("expected int"));
        let err = DataError::UnknownField("year".into());
        assert!(err.to_string().contains("year"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let err: DataError = io.into();
        assert!(matches!(err, DataError::Io(_)));
    }
}
