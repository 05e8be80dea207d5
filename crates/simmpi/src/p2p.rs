//! Point-to-point messaging.
//!
//! Sends are *eager*: the sender stamps the message with its virtual clock
//! plus the network cost at the send instant, leaves it in its own outbox
//! and moves on (after a fixed software overhead); the scheduler's commit
//! step moves it into the receiver's [`Mailbox`]. A receive completes at
//! virtual time `max(post_time, arrival_time)` of the best match.

use cluster_sim::time::VirtualTime;
use std::collections::VecDeque;

/// Wildcard source for [`crate::Proc::recv`].
pub const ANY_SOURCE: usize = usize::MAX;
/// Wildcard tag for [`crate::Proc::recv`].
pub const ANY_TAG: i64 = i64::MIN;

/// An in-flight message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// User tag.
    pub tag: i64,
    /// Message size in bytes (drives network cost).
    pub bytes: u64,
    /// Virtual instant the message reaches the receiver's NIC.
    pub arrives_at: VirtualTime,
    /// Optional scalar payload (MiniHPC messages carry one value).
    pub value: i64,
}

impl Message {
    /// Whether a receive posted for `(src, tag)` (wildcards allowed) takes
    /// this message.
    pub fn matches(&self, src: usize, tag: i64) -> bool {
        (src == ANY_SOURCE || self.src == src) && (tag == ANY_TAG || self.tag == tag)
    }
}

/// What a completed receive reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvInfo {
    /// Actual source rank.
    pub src: usize,
    /// Actual tag.
    pub tag: i64,
    /// Message size.
    pub bytes: u64,
    /// Scalar payload.
    pub value: i64,
    /// Virtual completion time of the receive.
    pub completed_at: VirtualTime,
}

/// A rank's incoming-message queue: plain data inside the receiver's
/// [`crate::Proc`], written by the scheduler between resumes and read by
/// the rank during them.
#[derive(Debug, Default)]
pub struct Mailbox {
    queue: VecDeque<Message>,
}

impl Mailbox {
    /// Deposit a message.
    pub fn push(&mut self, msg: Message) {
        self.queue.push_back(msg);
    }

    /// Remove and return the message a receive for `(src, tag)` takes, or
    /// `None` if nothing matches. Wildcards [`ANY_SOURCE`] / [`ANY_TAG`]
    /// match anything; among multiple matches the one with the earliest
    /// `(arrives_at, src)` wins, which keeps wildcard receives as
    /// deterministic as eager delivery allows.
    pub fn take_matching(&mut self, src: usize, tag: i64) -> Option<Message> {
        let best = self
            .queue
            .iter()
            .enumerate()
            .filter(|(_, m)| m.matches(src, tag))
            .min_by_key(|(_, m)| (m.arrives_at, m.src))
            .map(|(i, _)| i)?;
        self.queue.remove(best)
    }

    /// Arrival instant of the message [`Self::take_matching`] would return,
    /// without removing it. The scheduler uses this to decide *when* a
    /// blocked receive can complete.
    pub fn best_arrival(&self, src: usize, tag: i64) -> Option<VirtualTime> {
        self.queue
            .iter()
            .filter(|m| m.matches(src, tag))
            .map(|m| m.arrives_at)
            .min()
    }

    /// Number of queued messages (diagnostics).
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: usize, tag: i64, arrives_ns: u64) -> Message {
        Message {
            src,
            tag,
            bytes: 8,
            arrives_at: VirtualTime(arrives_ns),
            value: 0,
        }
    }

    #[test]
    fn exact_match_takes_only_matching() {
        let mut mb = Mailbox::default();
        mb.push(msg(1, 7, 100));
        mb.push(msg(2, 7, 50));
        assert_eq!(mb.take_matching(1, 7).unwrap().src, 1);
        assert_eq!(mb.len(), 1);
        assert_eq!(mb.take_matching(1, 7), None);
    }

    #[test]
    fn any_source_takes_earliest_arrival() {
        let mut mb = Mailbox::default();
        mb.push(msg(1, 7, 100));
        mb.push(msg(2, 7, 50));
        assert_eq!(mb.best_arrival(ANY_SOURCE, 7), Some(VirtualTime(50)));
        assert_eq!(mb.take_matching(ANY_SOURCE, 7).unwrap().src, 2);
    }

    #[test]
    fn any_tag_matches_any() {
        let mut mb = Mailbox::default();
        mb.push(msg(3, 42, 10));
        assert_eq!(mb.take_matching(3, ANY_TAG).unwrap().tag, 42);
        assert!(mb.is_empty());
    }

    #[test]
    fn ties_broken_by_source() {
        let mut mb = Mailbox::default();
        mb.push(msg(5, 1, 50));
        mb.push(msg(2, 1, 50));
        assert_eq!(mb.take_matching(ANY_SOURCE, 1).unwrap().src, 2);
    }
}
