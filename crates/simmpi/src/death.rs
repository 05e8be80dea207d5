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
    /// Flags flipped so far: the world collective counts its alive ranks
    /// off this instead of rescanning the flags.
    deaths: usize,
}

impl DeathBoard {
    /// A board with every rank alive.
    pub fn new(ranks: usize) -> Self {
        DeathBoard {
            dead: vec![false; ranks],
            deaths: 0,
        }
    }

    /// Mark `rank` dead. Idempotent: only the first call counts, so the
    /// death count never double-counts.
    pub fn mark_dead(&mut self, rank: usize) {
        if let Some(flag) = self.dead.get_mut(rank) {
            if !std::mem::replace(flag, true) {
                self.deaths += 1;
            }
        }
    }

    /// How many ranks have fail-stopped.
    pub fn deaths(&self) -> usize {
        self.deaths
    }

    /// Is the peer side of `me`'s receive from `src` gone for good
    /// ([`crate::ANY_SOURCE`]: every possible sender)?
    pub fn peer_gone(&self, me: usize, src: usize) -> bool {
        if src == crate::p2p::ANY_SOURCE {
            // Every rank but `me` is dead.
            self.deaths + usize::from(!self.dead[me]) == self.dead.len()
        } else {
            self.dead.get(src).is_some_and(|&d| d)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_tracks_membership() {
        let mut b = DeathBoard::new(4);
        assert!(!b.peer_gone(0, 1));
        b.mark_dead(1);
        b.mark_dead(3);
        assert!(b.peer_gone(0, 1) && !b.peer_gone(0, 2));
        assert!(!b.peer_gone(0, crate::p2p::ANY_SOURCE));
        b.mark_dead(2);
        assert!(b.peer_gone(0, crate::p2p::ANY_SOURCE));
        // A dead receiver's own flag does not count as a peer.
        assert!(!b.peer_gone(1, crate::p2p::ANY_SOURCE));
    }

    #[test]
    fn death_count_is_idempotent() {
        let mut b = DeathBoard::new(8);
        b.mark_dead(5);
        b.mark_dead(5); // duplicate: must not re-count
        b.mark_dead(2);
        assert_eq!(b.deaths(), 2);
        b.mark_dead(7);
        b.mark_dead(9); // out of range: ignored
        assert_eq!(b.deaths(), 3);
    }
}
