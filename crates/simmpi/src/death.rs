//! Fail-stop rank deaths.
//!
//! A rank scheduled to die by the cluster's [`cluster_sim::FaultPlan`]
//! halts at its death instant: the [`crate::Proc`] raises a
//! [`DeathUnwind`] panic payload the moment an operation would start at or
//! after the death time, freezing its clock and charging no further work.
//! The scheduler catches the unwind where it resumed the rank and turns it
//! into a normal "this rank died" outcome (`on_death`).
//!
//! Survivors must never hang on a dead peer. The [`DeathBoard`] is the
//! world's failure detector, owned by the scheduler: it marks a rank dead
//! when it commits the death — after delivering the rank's pre-death
//! sends, so "flag set and no matching message" is a final verdict — and
//! then re-examines every blocked receive and open rendezvous.

use cluster_sim::time::VirtualTime;
use std::any::Any;
use std::sync::Once;

/// Panic payload raised when a rank reaches its fail-stop instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeathUnwind {
    /// The rank that died.
    pub rank: usize,
    /// The scheduled virtual death instant.
    pub at: VirtualTime,
}

/// Inspect a caught panic payload for a [`DeathUnwind`].
pub(crate) fn death_in_payload(payload: &(dyn Any + Send)) -> Option<DeathUnwind> {
    payload.downcast_ref::<DeathUnwind>().copied()
}

/// Keep the global panic hook from printing a backtrace for the
/// deliberate [`DeathUnwind`] control-flow unwind (the scheduler always
/// catches it). Every other payload still reaches whatever hook was
/// installed before.
pub(crate) fn silence_death_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<DeathUnwind>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Liveness flags, one per world rank. Flags only ever go from alive to
/// dead.
#[derive(Debug)]
pub struct DeathBoard {
    dead: Vec<bool>,
    /// Append-only log of dead ranks, in the order their flags flipped.
    /// Consumers keep a cursor into this log and fold only the *new*
    /// deaths into local alive counters ([`Self::deaths_since`]), turning
    /// "how many members are still alive" from an O(members) rescan into
    /// an O(deaths delta) update.
    log: Vec<usize>,
}

impl DeathBoard {
    /// A board with every rank alive.
    pub fn new(ranks: usize) -> Self {
        DeathBoard {
            dead: vec![false; ranks],
            log: Vec::new(),
        }
    }

    /// Mark `rank` dead. Idempotent: only the first call appends to the
    /// death log, so counters folding the log never double-count.
    pub fn mark_dead(&mut self, rank: usize) {
        if let Some(flag) = self.dead.get_mut(rank) {
            if !std::mem::replace(flag, true) {
                self.log.push(rank);
            }
        }
    }

    /// Feed every death recorded after log position `cursor` to `f` and
    /// return the new cursor.
    pub fn deaths_since(&self, cursor: usize, f: impl FnMut(usize)) -> usize {
        self.log[cursor..].iter().copied().for_each(f);
        self.log.len()
    }

    /// Whether `rank` has fail-stopped.
    pub fn is_dead(&self, rank: usize) -> bool {
        self.dead.get(rank).is_some_and(|&d| d)
    }

    /// Whether every rank except `rank` is dead.
    pub fn all_peers_dead(&self, rank: usize) -> bool {
        self.dead.iter().enumerate().all(|(r, &d)| r == rank || d)
    }

    /// Is the peer side of `me`'s receive from `src` gone for good
    /// ([`crate::ANY_SOURCE`]: every possible sender)?
    pub fn peer_gone(&self, me: usize, src: usize) -> bool {
        if src == crate::p2p::ANY_SOURCE {
            self.all_peers_dead(me)
        } else {
            self.is_dead(src)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_tracks_membership() {
        let mut b = DeathBoard::new(4);
        assert!(!b.is_dead(1));
        b.mark_dead(1);
        b.mark_dead(3);
        assert!(b.is_dead(1));
        assert!(b.peer_gone(0, 1) && !b.peer_gone(0, 2));
        assert!(!b.all_peers_dead(0));
        b.mark_dead(2);
        assert!(b.peer_gone(0, crate::p2p::ANY_SOURCE));
    }

    #[test]
    fn death_log_is_idempotent_and_cursored() {
        let mut b = DeathBoard::new(8);
        b.mark_dead(5);
        b.mark_dead(5); // duplicate: must not re-log
        b.mark_dead(2);
        let mut seen = Vec::new();
        let cur = b.deaths_since(0, |r| seen.push(r));
        assert_eq!(seen, vec![5, 2]);
        assert_eq!(cur, 2);
        // Nothing new: cursor unchanged, no callbacks.
        let cur2 = b.deaths_since(cur, |_| panic!("no new deaths"));
        assert_eq!(cur2, 2);
        b.mark_dead(7);
        let mut tail = Vec::new();
        assert_eq!(b.deaths_since(cur2, |r| tail.push(r)), 3);
        assert_eq!(tail, vec![7]);
    }
}
