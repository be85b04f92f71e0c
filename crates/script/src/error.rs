//! Script errors.

use std::fmt;

/// An error raised while lexing, parsing, or executing a script.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptError {
    /// Tokenization failure.
    Lex {
        line: usize,
        col: usize,
        message: String,
    },
    /// Parse failure.
    Parse {
        line: usize,
        col: usize,
        message: String,
    },
    /// Runtime type error.
    Type { line: usize, message: String },
    /// Reference to an undefined name.
    Name { line: usize, name: String },
    /// Index/key error.
    Index { line: usize, message: String },
    /// Division by zero and friends.
    Arithmetic { line: usize, message: String },
    /// The fuel budget was exhausted (runaway program).
    FuelExhausted,
    /// The run's byte allowance was exhausted
    /// ([`crate::interp::MAX_RUN_BYTES`]).
    BytesExhausted,
    /// Call-stack depth exceeded.
    RecursionLimit,
    /// A host function (tool) failed.
    Host { message: String },
    /// The static checker rejected the program before execution.
    Static { line: usize, message: String },
}

impl ScriptError {
    /// A host-side error (for tool implementations).
    pub fn host(message: impl Into<String>) -> Self {
        ScriptError::Host {
            message: message.into(),
        }
    }

    /// The source column the error was raised at (1-based), when known.
    /// Only lexer- and parser-raised errors carry a column; a value of
    /// zero means "unknown" and is omitted from display.
    pub fn col(&self) -> Option<usize> {
        match self {
            ScriptError::Lex { col, .. } | ScriptError::Parse { col, .. } if *col > 0 => Some(*col),
            _ => None,
        }
    }

    /// The source line the error was raised at, when known.
    pub fn line(&self) -> Option<usize> {
        match self {
            ScriptError::Lex { line, .. }
            | ScriptError::Parse { line, .. }
            | ScriptError::Type { line, .. }
            | ScriptError::Name { line, .. }
            | ScriptError::Index { line, .. }
            | ScriptError::Arithmetic { line, .. }
            | ScriptError::Static { line, .. } => Some(*line),
            _ => None,
        }
    }
}

/// Renders a `line N` / `line N, col M` span fragment.
fn span(line: usize, col: usize) -> String {
    if col > 0 {
        format!("line {line}, col {col}")
    } else {
        format!("line {line}")
    }
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptError::Lex { line, col, message } => {
                write!(f, "lex error ({}): {message}", span(*line, *col))
            }
            ScriptError::Parse { line, col, message } => {
                write!(f, "syntax error ({}): {message}", span(*line, *col))
            }
            ScriptError::Type { line, message } => {
                write!(f, "type error (line {line}): {message}")
            }
            ScriptError::Name { line, name } => {
                write!(f, "name error (line {line}): '{name}' is not defined")
            }
            ScriptError::Index { line, message } => {
                write!(f, "index error (line {line}): {message}")
            }
            ScriptError::Arithmetic { line, message } => {
                write!(f, "arithmetic error (line {line}): {message}")
            }
            ScriptError::FuelExhausted => write!(f, "execution budget exhausted"),
            ScriptError::BytesExhausted => write!(f, "byte allowance exhausted"),
            ScriptError::RecursionLimit => write!(f, "maximum recursion depth exceeded"),
            ScriptError::Host { message } => write!(f, "tool error: {message}"),
            ScriptError::Static { line, message } => {
                write!(f, "static error (line {line}): {message}")
            }
        }
    }
}

impl std::error::Error for ScriptError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_line_numbers() {
        let e = ScriptError::Parse {
            line: 3,
            col: 0,
            message: "unexpected token".into(),
        };
        assert!(e.to_string().contains("line 3"));
        assert_eq!(e.line(), Some(3));
        assert_eq!(e.col(), None);
        assert_eq!(ScriptError::FuelExhausted.line(), None);
    }

    #[test]
    fn display_mentions_columns_when_known() {
        let e = ScriptError::Lex {
            line: 2,
            col: 7,
            message: "stray '@'".into(),
        };
        assert_eq!(e.to_string(), "lex error (line 2, col 7): stray '@'");
        assert_eq!(e.col(), Some(7));
        let p = ScriptError::Parse {
            line: 4,
            col: 11,
            message: "expected ':'".into(),
        };
        assert!(p.to_string().contains("line 4, col 11"));
    }

    #[test]
    fn host_constructor() {
        let e = ScriptError::host("boom");
        assert_eq!(e.to_string(), "tool error: boom");
    }
}
