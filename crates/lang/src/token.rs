//! Token definitions for the MiniHPC lexer.

use crate::intern::Name;
use crate::span::Span;
use std::fmt;

/// A lexical token with its source span.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Where it sits in the source.
    pub span: Span,
}

/// The kinds of tokens MiniHPC recognizes.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind {
    // Literals and identifiers
    /// Integer literal, e.g. `42`.
    Int(i64),
    /// Floating-point literal, e.g. `3.5`.
    Float(f64),
    /// Identifier, e.g. `foo` (interned at lex time).
    Ident(Name),

    // Keywords
    /// `fn`
    Fn,
    /// `global`
    Global,
    /// `int`
    KwInt,
    /// `float`
    KwFloat,
    /// `for`
    For,
    /// `while`
    While,
    /// `if`
    If,
    /// `else`
    Else,
    /// `return`
    Return,
    /// `break`
    Break,
    /// `continue`
    Continue,

    // Punctuation
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `->`
    Arrow,

    // Operators
    /// `=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,

    /// End of input sentinel.
    Eof,
}

impl TokenKind {
    /// Map an identifier to its keyword kind, if it is one.
    pub fn keyword(ident: &str) -> Option<TokenKind> {
        Some(match ident {
            "fn" => TokenKind::Fn,
            "global" => TokenKind::Global,
            "int" => TokenKind::KwInt,
            "float" => TokenKind::KwFloat,
            "for" => TokenKind::For,
            "while" => TokenKind::While,
            "if" => TokenKind::If,
            "else" => TokenKind::Else,
            "return" => TokenKind::Return,
            "break" => TokenKind::Break,
            "continue" => TokenKind::Continue,
            _ => return None,
        })
    }

    /// Short human-readable name for diagnostics.
    pub fn describe(&self) -> String {
        let symbol = match self {
            TokenKind::Int(v) => return format!("integer `{v}`"),
            TokenKind::Float(v) => return format!("float `{v}`"),
            TokenKind::Ident(s) => return format!("identifier `{s}`"),
            TokenKind::Eof => return "end of input".to_string(),
            TokenKind::Fn => "fn",
            TokenKind::Global => "global",
            TokenKind::KwInt => "int",
            TokenKind::KwFloat => "float",
            TokenKind::For => "for",
            TokenKind::While => "while",
            TokenKind::If => "if",
            TokenKind::Else => "else",
            TokenKind::Return => "return",
            TokenKind::Break => "break",
            TokenKind::Continue => "continue",
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::LBrace => "{",
            TokenKind::RBrace => "}",
            TokenKind::LBracket => "[",
            TokenKind::RBracket => "]",
            TokenKind::Semi => ";",
            TokenKind::Comma => ",",
            TokenKind::Arrow => "->",
            TokenKind::Assign => "=",
            TokenKind::Plus => "+",
            TokenKind::Minus => "-",
            TokenKind::Star => "*",
            TokenKind::Slash => "/",
            TokenKind::Percent => "%",
            TokenKind::Lt => "<",
            TokenKind::Le => "<=",
            TokenKind::Gt => ">",
            TokenKind::Ge => ">=",
            TokenKind::EqEq => "==",
            TokenKind::Ne => "!=",
            TokenKind::AndAnd => "&&",
            TokenKind::OrOr => "||",
            TokenKind::Bang => "!",
        };
        format!("`{symbol}`")
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_resolve() {
        assert_eq!(TokenKind::keyword("for"), Some(TokenKind::For));
        assert_eq!(TokenKind::keyword("fn"), Some(TokenKind::Fn));
        assert_eq!(TokenKind::keyword("banana"), None);
    }

    #[test]
    fn describe_is_stable() {
        assert_eq!(TokenKind::Arrow.describe(), "`->`");
        assert_eq!(TokenKind::Int(7).describe(), "integer `7`");
        assert_eq!(TokenKind::Eof.describe(), "end of input");
    }
}
