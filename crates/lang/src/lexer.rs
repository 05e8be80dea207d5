//! Hand-written lexer for MiniHPC.
//!
//! Supports `//` line comments and `/* ... */` block comments, decimal
//! integer and float literals, identifiers/keywords and the operator set in
//! [`crate::token::TokenKind`].

use crate::error::{LangError, Result};
use crate::intern::Interner;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Tokenize `source` into a vector ending with an `Eof` token.
pub fn lex(source: &str) -> Result<Vec<Token>> {
    Lexer::new(source).run()
}

struct Lexer<'s> {
    src: &'s [u8],
    pos: usize,
    line: u32,
    col: u32,
    tokens: Vec<Token>,
    interner: Interner,
}

impl<'s> Lexer<'s> {
    fn new(source: &'s str) -> Self {
        Lexer {
            src: source.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            tokens: Vec::new(),
            interner: Interner::new(),
        }
    }

    fn run(mut self) -> Result<Vec<Token>> {
        loop {
            self.skip_trivia()?;
            let start = self.pos;
            let (line, col) = (self.line, self.col);
            let Some(c) = self.peek() else {
                self.tokens.push(Token {
                    kind: TokenKind::Eof,
                    span: Span::new(start as u32, start as u32, line, col),
                });
                return Ok(self.tokens);
            };
            let kind = match c {
                b'0'..=b'9' => self.number()?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident()?,
                _ => self.operator(c)?,
            };
            let span = Span::new(start as u32, self.pos as u32, line, col);
            self.tokens.push(Token { kind, span });
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn here(&self) -> Span {
        Span::new(self.pos as u32, self.pos as u32 + 1, self.line, self.col)
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match (self.peek(), self.peek2()) {
                (Some(c), _) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                (Some(b'/'), Some(b'/')) => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                (Some(b'/'), Some(b'*')) => {
                    let open = self.here();
                    self.bump();
                    self.bump();
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => {
                                return Err(LangError::lex("unterminated block comment", open))
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn number(&mut self) -> Result<TokenKind> {
        let start = self.pos;
        let span = self.here();
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.bump();
        }
        let mut is_float = false;
        // A `.` followed by a digit continues a float literal.
        if self.peek() == Some(b'.') && matches!(self.peek2(), Some(b'0'..=b'9')) {
            is_float = true;
            self.bump();
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.bump();
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.bump();
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(LangError::lex("malformed exponent", span));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        let text = self.text(start, span)?;
        if is_float {
            text.parse::<f64>()
                .map(TokenKind::Float)
                .map_err(|_| LangError::lex(format!("bad float literal `{text}`"), span))
        } else {
            text.parse::<i64>()
                .map(TokenKind::Int)
                .map_err(|_| LangError::lex(format!("integer literal overflow `{text}`"), span))
        }
    }

    fn ident(&mut self) -> Result<TokenKind> {
        let start = self.pos;
        let span = self.here();
        while matches!(
            self.peek(),
            Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
        ) {
            self.bump();
        }
        let text = self.text(start, span)?;
        Ok(
            TokenKind::keyword(text)
                .unwrap_or_else(|| TokenKind::Ident(self.interner.intern(text))),
        )
    }

    /// The source from `start` to the cursor. Literals and identifiers
    /// scan ASCII bytes only, so this never fails; the error stands in for
    /// a panic.
    fn text(&self, start: usize, span: Span) -> Result<&'s str> {
        std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| LangError::lex("non-ASCII token", span))
    }

    /// The operator starting with `c`, the byte under the cursor.
    fn operator(&mut self, c: u8) -> Result<TokenKind> {
        let span = self.here();
        self.bump();
        let two = |this: &mut Self, next: u8, yes: TokenKind, no: TokenKind| {
            if this.peek() == Some(next) {
                this.bump();
                yes
            } else {
                no
            }
        };
        Ok(match c {
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b';' => TokenKind::Semi,
            b',' => TokenKind::Comma,
            b'+' => TokenKind::Plus,
            b'-' => two(self, b'>', TokenKind::Arrow, TokenKind::Minus),
            b'*' => TokenKind::Star,
            b'/' => TokenKind::Slash,
            b'%' => TokenKind::Percent,
            b'<' => two(self, b'=', TokenKind::Le, TokenKind::Lt),
            b'>' => two(self, b'=', TokenKind::Ge, TokenKind::Gt),
            b'=' => two(self, b'=', TokenKind::EqEq, TokenKind::Assign),
            b'!' => two(self, b'=', TokenKind::Ne, TokenKind::Bang),
            b'&' => {
                if self.peek() == Some(b'&') {
                    self.bump();
                    TokenKind::AndAnd
                } else {
                    return Err(LangError::lex("expected `&&`", span));
                }
            }
            b'|' => {
                if self.peek() == Some(b'|') {
                    self.bump();
                    TokenKind::OrOr
                } else {
                    return Err(LangError::lex("expected `||`", span));
                }
            }
            other => {
                return Err(LangError::lex(
                    format!("unexpected character `{}`", other as char),
                    span,
                ))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_simple_statement() {
        assert_eq!(
            kinds("int x = 42;"),
            vec![
                TokenKind::KwInt,
                TokenKind::Ident("x".into()),
                TokenKind::Assign,
                TokenKind::Int(42),
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_operators_maximal_munch() {
        assert_eq!(
            kinds("<= < >= > == != = && || ! ->"),
            vec![
                TokenKind::Le,
                TokenKind::Lt,
                TokenKind::Ge,
                TokenKind::Gt,
                TokenKind::EqEq,
                TokenKind::Ne,
                TokenKind::Assign,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Bang,
                TokenKind::Arrow,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_floats_and_ints() {
        assert_eq!(
            kinds("1 2.5 3e2 4.5e-1"),
            vec![
                TokenKind::Int(1),
                TokenKind::Float(2.5),
                TokenKind::Float(300.0),
                TokenKind::Float(0.45),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn dot_without_digit_is_error() {
        // `1.x` — the dot is not part of the number, and `.` alone is
        // rejected as an unexpected character.
        assert!(lex("1 . 2").is_err());
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("1 // line\n2 /* block\nstill */ 3"),
            vec![
                TokenKind::Int(1),
                TokenKind::Int(2),
                TokenKind::Int(3),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn unterminated_block_comment_errors() {
        let err = lex("1 /* oops").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn tracks_line_and_column() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[0].span.col, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[1].span.col, 3);
    }

    #[test]
    fn single_ampersand_is_error() {
        assert!(lex("a & b").is_err());
        assert!(lex("a | b").is_err());
    }

    #[test]
    fn integer_overflow_is_error() {
        assert!(lex("99999999999999999999999").is_err());
    }

    #[test]
    fn keywords_vs_identifiers() {
        assert_eq!(
            kinds("for fork"),
            vec![
                TokenKind::For,
                TokenKind::Ident("fork".into()),
                TokenKind::Eof
            ]
        );
    }
}
