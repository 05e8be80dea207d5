//! Source locations.
//!
//! vSensor's "map to source" step (Figure 2, step 3) needs every IR entity to
//! carry its origin in the source text so that instrumentation can be applied
//! to the original program. A [`Span`] is a byte range plus a 1-based
//! line/column for human-readable diagnostics.

use std::fmt;

/// A half-open byte range `[start, end)` in the source, with the 1-based line
/// and column of `start`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based column of `start`.
    pub col: u32,
}

impl Span {
    /// A span covering nothing, used for synthesized IR (e.g. inserted
    /// Tick/Tock statements).
    pub const SYNTHETIC: Span = Span {
        start: 0,
        end: 0,
        line: 0,
        col: 0,
    };

    /// Create a span from raw parts.
    pub fn new(start: u32, end: u32, line: u32, col: u32) -> Self {
        Span {
            start,
            end,
            line,
            col,
        }
    }

    /// True if this span was synthesized rather than parsed.
    pub(crate) fn is_synthetic(&self) -> bool {
        self.line == 0
    }

    /// Smallest span covering both `self` and `other`.
    ///
    /// Synthetic spans are absorbed: joining with a synthetic span returns
    /// the other operand unchanged.
    pub fn join(self, other: Span) -> Span {
        if self.is_synthetic() {
            return other;
        }
        if other.is_synthetic() {
            return self;
        }
        let (line, col) = if self.start <= other.start {
            (self.line, self.col)
        } else {
            (other.line, other.col)
        };
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
            line,
            col,
        }
    }

    /// Extract the spanned slice from the original source text.
    pub fn slice<'s>(&self, source: &'s str) -> &'s str {
        &source[self.start as usize..self.end as usize]
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_synthetic() {
            write!(f, "<synthetic>")
        } else {
            write!(f, "{}:{}", self.line, self.col)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_takes_union() {
        let a = Span::new(4, 10, 1, 5);
        let b = Span::new(8, 20, 2, 1);
        let j = a.join(b);
        assert_eq!(j.start, 4);
        assert_eq!(j.end, 20);
        assert_eq!(j.line, 1);
        assert_eq!(j.col, 5);
    }

    #[test]
    fn join_with_synthetic_keeps_real() {
        let a = Span::new(4, 10, 1, 5);
        assert_eq!(a.join(Span::SYNTHETIC), a);
        assert_eq!(Span::SYNTHETIC.join(a), a);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Span::new(0, 1, 3, 7).to_string(), "3:7");
        assert_eq!(Span::SYNTHETIC.to_string(), "<synthetic>");
    }

    #[test]
    fn slice_extracts_text() {
        let src = "hello world";
        let s = Span::new(6, 11, 1, 7);
        assert_eq!(s.slice(src), "world");
    }
}
