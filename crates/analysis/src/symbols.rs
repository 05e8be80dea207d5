//! Base symbols of the dependency analysis.
//!
//! The use-define closure resolves every variable that influences a
//! snippet's workload down to a set of *base symbols*: things whose
//! variability can be judged directly. Local variable names are kept
//! alongside (see [`UseSet`]) because the intra-procedural judgment
//! intersects them with the set of variables assigned inside a loop.
//!
//! Inside the analysis both halves are `Bits`: names by their dense
//! per-function slot, symbols by *atom* (see [`crate::deps`]). A
//! [`UseSet`] is the string form handed out with each verdict.

use std::collections::BTreeSet;
use std::fmt;
use vsensor_lang::Name;

/// A base influence on a snippet's quantity of work.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Symbol {
    /// The `i`-th parameter of the snippet's enclosing function.
    Param(usize),
    /// A global variable.
    Global(Name),
    /// Process identity (MPI rank / hostname) — §3.4.
    Rank,
    /// An un-analyzable influence: unknown extern call, data received from
    /// communication, recursion. Presence makes a snippet never-fixed.
    Unknown,
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Symbol::Param(i) => write!(f, "param#{i}"),
            Symbol::Global(g) => write!(f, "global:{g}"),
            Symbol::Rank => write!(f, "rank"),
            Symbol::Unknown => write!(f, "unknown"),
        }
    }
}

/// The workload-dependency set of a snippet: local variable names whose
/// values at snippet entry influence the workload, plus resolved base
/// symbols.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UseSet {
    /// Influencing local/parameter/global *names* (used for the
    /// assigned-within-loop intersection).
    pub names: BTreeSet<Name>,
    /// Resolved base symbols (used for inter-procedural and global-scope
    /// judgments).
    pub symbols: BTreeSet<Symbol>,
}

impl UseSet {
    /// Empty set: a snippet with constant workload.
    pub fn new() -> Self {
        UseSet::default()
    }

    /// Whether the set contains [`Symbol::Unknown`].
    pub fn has_unknown(&self) -> bool {
        self.symbols.contains(&Symbol::Unknown)
    }

    /// Whether the set contains [`Symbol::Rank`].
    pub fn has_rank(&self) -> bool {
        self.symbols.contains(&Symbol::Rank)
    }
}

/// A growable set of small integers (slots and atoms), combined a word at
/// a time. The first word is inline, so a set of elements below 64 — the
/// common case for one function's names and a program's symbols — never
/// allocates.
#[derive(Clone, Debug, Default)]
pub(crate) struct Bits {
    low: u64,
    high: Vec<u64>,
}

impl Bits {
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::once(self.low).chain(self.high.iter().copied())
    }

    /// Insert `i`; returns whether it was absent.
    pub fn insert(&mut self, i: u32) -> bool {
        let (w, bit) = ((i / 64) as usize, 1u64 << (i % 64));
        if w > self.high.len() {
            self.high.resize(w, 0);
        }
        let word = if w == 0 {
            &mut self.low
        } else {
            &mut self.high[w - 1]
        };
        let absent = *word & bit == 0;
        *word |= bit;
        absent
    }

    /// Whether `i` is in the set.
    pub fn contains(&self, i: u32) -> bool {
        let word = self.words().nth((i / 64) as usize).unwrap_or(0);
        word & (1u64 << (i % 64)) != 0
    }

    /// Union `other` into `self`.
    pub fn union_with(&mut self, other: &Bits) {
        self.low |= other.low;
        if other.high.len() > self.high.len() {
            self.high.resize(other.high.len(), 0);
        }
        for (a, b) in self.high.iter_mut().zip(&other.high) {
            *a |= b;
        }
    }

    /// Whether the two sets share an element.
    pub fn intersects(&self, other: &Bits) -> bool {
        self.words().zip(other.words()).any(|(a, b)| a & b != 0)
    }

    /// The elements, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words().enumerate().flat_map(|(w, mut rest)| {
            std::iter::from_fn(move || {
                let bit = (rest != 0).then_some(rest.trailing_zeros())?;
                rest &= rest - 1;
                Some(w as u32 * 64 + bit)
            })
        })
    }
}

impl FromIterator<u32> for Bits {
    fn from_iter<I: IntoIterator<Item = u32>>(items: I) -> Self {
        let mut bits = Bits::default();
        for i in items {
            bits.insert(i);
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_insert_union_intersect_iterate() {
        let mut a = Bits::default();
        assert!(a.insert(3));
        assert!(!a.insert(3), "second insert is a no-op");
        assert!(a.insert(130));
        let mut b = Bits::default();
        b.insert(64);
        assert!(!a.intersects(&b));
        a.union_with(&b);
        assert!(a.intersects(&b) && a.contains(64) && !a.contains(65));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 64, 130]);
        assert!(!Bits::default().contains(1_000));
    }

    #[test]
    fn queries_see_symbols() {
        let mut u = UseSet::new();
        u.symbols.insert(Symbol::Param(2));
        u.symbols.insert(Symbol::Global("G".into()));
        assert!(!u.has_unknown() && !u.has_rank());
        u.symbols.insert(Symbol::Rank);
        assert!(u.has_rank());
    }

    #[test]
    fn symbol_display() {
        assert_eq!(Symbol::Param(1).to_string(), "param#1");
        assert_eq!(Symbol::Global("N".into()).to_string(), "global:N");
        assert_eq!(Symbol::Rank.to_string(), "rank");
        assert_eq!(Symbol::Unknown.to_string(), "unknown");
    }
}
