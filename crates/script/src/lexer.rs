//! Indentation-sensitive tokenizer.
//!
//! Produces a flat token stream with explicit `Indent`/`Dedent`/`Newline`
//! tokens, Python-style: a stack of indentation widths is maintained, blank
//! lines and `#` comments are skipped, and brackets suppress newline
//! significance so multi-line calls and literals work.

use crate::error::ScriptError;

/// A lexical token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Token kind/payload.
    pub kind: Tok,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column (character offset) of the token start.
    /// Layout tokens report the column the layout change takes effect at.
    pub col: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    // Literals and names
    Int(i64),
    Float(f64),
    Str(String),
    Name(String),
    // Keywords
    Def,
    Return,
    If,
    Elif,
    Else,
    For,
    While,
    In,
    Break,
    Continue,
    Pass,
    And,
    Or,
    Not,
    True,
    False,
    None,
    // Operators & punctuation
    Plus,
    Minus,
    Star,
    Slash,
    DoubleSlash,
    Percent,
    Eq,      // =
    PlusEq,  // +=
    MinusEq, // -=
    EqEq,    // ==
    NotEq,   // !=
    Lt,
    LtEq,
    Gt,
    GtEq,
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Colon,
    Dot,
    // Layout
    Newline,
    Indent,
    Dedent,
    Eof,
}

/// Tokenizes Pyrite source.
pub fn lex(source: &str) -> Result<Vec<Token>, ScriptError> {
    let mut tokens = Vec::new();
    let mut indents: Vec<usize> = vec![0];
    let mut depth = 0usize; // bracket nesting
    let mut line_no = 0usize;

    for raw_line in source.split('\n') {
        line_no += 1;
        if depth == 0 {
            // Measure indentation; skip blank/comment-only lines.
            let trimmed = raw_line.trim_start();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let indent = raw_line.len() - trimmed.len();
            if raw_line[..indent].contains('\t') {
                return Err(ScriptError::Lex {
                    line: line_no,
                    col: 1,
                    message: "tabs are not allowed in indentation".into(),
                });
            }
            let current = *indents.last().expect("indent stack never empty");
            if indent > current {
                indents.push(indent);
                tokens.push(Token {
                    kind: Tok::Indent,
                    line: line_no,
                    col: indent + 1,
                });
            } else if indent < current {
                while *indents.last().unwrap() > indent {
                    indents.pop();
                    tokens.push(Token {
                        kind: Tok::Dedent,
                        line: line_no,
                        col: indent + 1,
                    });
                }
                if *indents.last().unwrap() != indent {
                    return Err(ScriptError::Lex {
                        line: line_no,
                        col: indent + 1,
                        message: "inconsistent indentation".into(),
                    });
                }
            }
        }

        lex_line(raw_line, line_no, &mut tokens, &mut depth)?;

        if depth == 0 {
            // Emit a newline if the line produced any real tokens.
            if tokens
                .last()
                .is_some_and(|t| !matches!(t.kind, Tok::Newline | Tok::Indent | Tok::Dedent))
            {
                tokens.push(Token {
                    kind: Tok::Newline,
                    line: line_no,
                    col: raw_line.chars().count() + 1,
                });
            }
        }
    }

    if depth > 0 {
        return Err(ScriptError::Lex {
            line: line_no,
            col: 0,
            message: "unclosed bracket".into(),
        });
    }
    while indents.len() > 1 {
        indents.pop();
        tokens.push(Token {
            kind: Tok::Dedent,
            line: line_no,
            col: 1,
        });
    }
    tokens.push(Token {
        kind: Tok::Eof,
        line: line_no,
        col: 1,
    });
    Ok(tokens)
}

/// Tokenizes one logical line into `tokens`; `depth` tracks open
/// brackets across lines.
fn lex_line(
    line: &str,
    line_no: usize,
    tokens: &mut Vec<Token>,
    depth: &mut usize,
) -> Result<(), ScriptError> {
    let chars: Vec<char> = line.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let (kind, next) = match chars[i] {
            ' ' | '\t' | '\r' => {
                i += 1;
                continue;
            }
            '#' => break,
            '0'..='9' => number(&chars, i, line_no)?,
            '"' | '\'' => string(&chars, i, line_no)?,
            c if c.is_alphabetic() || c == '_' => word(&chars, i),
            _ => symbol(&chars, i, line_no, depth)?,
        };
        tokens.push(Token {
            kind,
            line: line_no,
            col: i + 1,
        });
        i = next;
    }
    Ok(())
}

/// A lex error at 0-based character `at`.
fn lex_err(line_no: usize, at: usize, message: String) -> ScriptError {
    ScriptError::Lex {
        line: line_no,
        col: at + 1,
        message,
    }
}

/// An int or float literal starting at `start`, and the index after it.
fn number(chars: &[char], start: usize, line_no: usize) -> Result<(Tok, usize), ScriptError> {
    let mut i = start;
    let mut saw_dot = false;
    while i < chars.len() && (chars[i].is_ascii_digit() || (chars[i] == '.' && !saw_dot)) {
        // A dot followed by a non-digit is method syntax, not a float.
        if chars[i] == '.' {
            if i + 1 >= chars.len() || !chars[i + 1].is_ascii_digit() {
                break;
            }
            saw_dot = true;
        }
        i += 1;
    }
    let text: String = chars[start..i].iter().collect();
    let kind = if saw_dot {
        let f = text.parse::<f64>();
        Tok::Float(f.map_err(|_| lex_err(line_no, start, format!("bad float literal '{text}'")))?)
    } else {
        let v = text.parse::<i64>();
        Tok::Int(v.map_err(|_| lex_err(line_no, start, format!("bad int literal '{text}'")))?)
    };
    Ok((kind, i))
}

/// A quoted string literal starting at `start`, and the index after it.
fn string(chars: &[char], start: usize, line_no: usize) -> Result<(Tok, usize), ScriptError> {
    let quote = chars[start];
    let mut i = start + 1;
    let mut text = String::new();
    while i < chars.len() {
        let ch = chars[i];
        if ch == '\\' && i + 1 < chars.len() {
            text.push(match chars[i + 1] {
                'n' => '\n',
                't' => '\t',
                'r' => '\r',
                other => other,
            });
            i += 2;
        } else if ch == quote {
            return Ok((Tok::Str(text), i + 1));
        } else {
            text.push(ch);
            i += 1;
        }
    }
    Err(lex_err(
        line_no,
        start,
        "unterminated string literal".into(),
    ))
}

/// The token a keyword lexes to; `None` for a plain name.
fn keyword(word: &str) -> Option<Tok> {
    Some(match word {
        "def" => Tok::Def,
        "return" => Tok::Return,
        "if" => Tok::If,
        "elif" => Tok::Elif,
        "else" => Tok::Else,
        "for" => Tok::For,
        "while" => Tok::While,
        "in" => Tok::In,
        "break" => Tok::Break,
        "continue" => Tok::Continue,
        "pass" => Tok::Pass,
        "and" => Tok::And,
        "or" => Tok::Or,
        "not" => Tok::Not,
        "True" => Tok::True,
        "False" => Tok::False,
        "None" => Tok::None,
        _ => return None,
    })
}

/// A keyword or name starting at `start`, and the index after it.
fn word(chars: &[char], start: usize) -> (Tok, usize) {
    let mut i = start;
    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
        i += 1;
    }
    let word: String = chars[start..i].iter().collect();
    (keyword(&word).unwrap_or(Tok::Name(word)), i)
}

/// An operator or punctuation token starting at `at`, and the index
/// after it. Brackets open and close a `depth` level.
fn symbol(
    chars: &[char],
    at: usize,
    line_no: usize,
    depth: &mut usize,
) -> Result<(Tok, usize), ScriptError> {
    let two: String = chars[at..chars.len().min(at + 2)].iter().collect();
    let kind = match two.as_str() {
        "==" => Tok::EqEq,
        "!=" => Tok::NotEq,
        "<=" => Tok::LtEq,
        ">=" => Tok::GtEq,
        "+=" => Tok::PlusEq,
        "-=" => Tok::MinusEq,
        "//" => Tok::DoubleSlash,
        _ => {
            let kind = match chars[at] {
                '+' => Tok::Plus,
                '-' => Tok::Minus,
                '*' => Tok::Star,
                '/' => Tok::Slash,
                '%' => Tok::Percent,
                '=' => Tok::Eq,
                '<' => Tok::Lt,
                '>' => Tok::Gt,
                '(' => Tok::LParen,
                ')' => Tok::RParen,
                '[' => Tok::LBracket,
                ']' => Tok::RBracket,
                '{' => Tok::LBrace,
                '}' => Tok::RBrace,
                ',' => Tok::Comma,
                ':' => Tok::Colon,
                '.' => Tok::Dot,
                other => {
                    return Err(lex_err(
                        line_no,
                        at,
                        format!("unexpected character '{other}'"),
                    ))
                }
            };
            match kind {
                Tok::LParen | Tok::LBracket | Tok::LBrace => *depth += 1,
                Tok::RParen | Tok::RBracket | Tok::RBrace => *depth = depth.saturating_sub(1),
                _ => {}
            }
            return Ok((kind, at + 1));
        }
    };
    Ok((kind, at + 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_assignment() {
        assert_eq!(
            kinds("x = 42"),
            vec![
                Tok::Name("x".into()),
                Tok::Eq,
                Tok::Int(42),
                Tok::Newline,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lexes_floats_and_method_dots() {
        assert_eq!(
            kinds("y = 3.5"),
            vec![
                Tok::Name("y".into()),
                Tok::Eq,
                Tok::Float(3.5),
                Tok::Newline,
                Tok::Eof
            ]
        );
        // `5.lower` style never appears, but `x.lower` must not eat the dot.
        let toks = kinds("s.lower()");
        assert!(toks.contains(&Tok::Dot));
    }

    #[test]
    fn lexes_strings_with_escapes() {
        assert_eq!(
            kinds(r#"s = "a\nb""#),
            vec![
                Tok::Name("s".into()),
                Tok::Eq,
                Tok::Str("a\nb".into()),
                Tok::Newline,
                Tok::Eof
            ]
        );
        assert_eq!(kinds("t = 'hi'")[2], Tok::Str("hi".into()));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("s = \"oops").is_err());
    }

    #[test]
    fn indentation_produces_indent_dedent() {
        let toks = kinds("if x:\n    y = 1\nz = 2");
        let indents = toks.iter().filter(|t| matches!(t, Tok::Indent)).count();
        let dedents = toks.iter().filter(|t| matches!(t, Tok::Dedent)).count();
        assert_eq!(indents, 1);
        assert_eq!(dedents, 1);
    }

    #[test]
    fn trailing_block_dedents_at_eof() {
        let toks = kinds("if x:\n    y = 1");
        assert!(matches!(toks[toks.len() - 2], Tok::Dedent));
        assert!(matches!(toks[toks.len() - 1], Tok::Eof));
    }

    #[test]
    fn blank_lines_and_comments_skipped() {
        let toks = kinds("x = 1\n\n# comment\n   \ny = 2");
        let newlines = toks.iter().filter(|t| matches!(t, Tok::Newline)).count();
        assert_eq!(newlines, 2);
    }

    #[test]
    fn brackets_allow_multiline() {
        let toks = kinds("x = [1,\n     2,\n     3]");
        let newlines = toks.iter().filter(|t| matches!(t, Tok::Newline)).count();
        assert_eq!(newlines, 1);
        assert!(!toks.contains(&Tok::Indent));
    }

    #[test]
    fn unclosed_bracket_errors() {
        assert!(lex("x = (1, 2").is_err());
    }

    #[test]
    fn inconsistent_indentation_errors() {
        assert!(lex("if x:\n    y = 1\n  z = 2").is_err());
    }

    #[test]
    fn two_char_operators() {
        let toks = kinds("a == b != c <= d >= e // f");
        assert!(toks.contains(&Tok::EqEq));
        assert!(toks.contains(&Tok::NotEq));
        assert!(toks.contains(&Tok::LtEq));
        assert!(toks.contains(&Tok::GtEq));
        assert!(toks.contains(&Tok::DoubleSlash));
    }

    #[test]
    fn keywords_are_not_names() {
        let toks = kinds("for x in items:\n    pass");
        assert!(toks.contains(&Tok::For));
        assert!(toks.contains(&Tok::In));
        assert!(toks.contains(&Tok::Pass));
        assert!(toks.contains(&Tok::Name("items".into())));
    }

    #[test]
    fn columns_are_tracked() {
        let toks = lex("x = 41 + y").unwrap();
        let y = toks
            .iter()
            .find(|t| t.kind == Tok::Name("y".into()))
            .unwrap();
        assert_eq!((y.line, y.col), (1, 10));
        let err = lex("x = 1 @").unwrap_err();
        assert_eq!(err.col(), Some(7));
    }

    #[test]
    fn line_numbers_are_tracked() {
        let toks = lex("x = 1\ny = 2").unwrap();
        let y = toks
            .iter()
            .find(|t| t.kind == Tok::Name("y".into()))
            .unwrap();
        assert_eq!(y.line, 2);
    }
}
