//! Microbatch formation: turning a session's queued commands into a
//! drain plan of decision requests, position-tagged events, and expired
//! requests.
//!
//! A shard visit calls `drain_session` on each session it serves, into
//! that session's own plan (it only moves queue entries — no model work,
//! no I/O), then executes the plan. The plan preserves the queue's stream
//! order exactly: live accesses collect into one run, in the
//! `(MemAccess, bool)` rows the model reads, and each cache event is
//! tagged with the index in that run of the access it precedes, so the
//! model can apply it between the accesses it arrived between. Requests
//! whose deadline already passed are pulled out for `TimedOut` replies
//! without touching the model, and without moving any event. This file is
//! on the decision hot path (`panic-in-hot-path` scope): no panics, no
//! literal indexing.

use resemble_prefetch::CacheEvent;
use resemble_trace::MemAccess;
use std::collections::VecDeque;
use std::time::Instant;

/// A queued decision request.
#[derive(Debug, Clone)]
pub struct AccessReq {
    /// Client correlation id, echoed in the reply.
    pub req_id: u32,
    /// The access to decide on.
    pub access: MemAccess,
    /// Whether it hit in the client's cache.
    pub hit: bool,
    /// When the reader enqueued it (latency measurement origin).
    pub enqueued: Instant,
    /// Absolute expiry; `None` means no deadline.
    pub deadline: Option<Instant>,
}

/// One queued command of a session, in stream order.
#[derive(Debug, Clone)]
pub enum SessionCmd {
    /// A decision request.
    Access(AccessReq),
    /// Cache feedback to apply between accesses.
    Event(CacheEvent),
    /// End of session: flush, reply Goodbye, drop the model.
    Bye,
}

/// The result of draining one session's queue: the live accesses in
/// stream order, the cache events between them, the expired requests, and
/// whether the session said goodbye. Reused across drains (all `Vec`s are
/// cleared, capacity kept).
#[derive(Debug, Default)]
pub struct DrainPlan {
    /// Every live access drained, in stream order, as the model reads it.
    pub run: Vec<(MemAccess, bool)>,
    /// Per entry of `run`, its request id and enqueue time, for its reply.
    pub replies: Vec<(u32, Instant)>,
    /// `(index in run of the access it precedes, event)`, in stream order;
    /// events after the last access carry `run.len()`.
    pub events: Vec<(usize, CacheEvent)>,
    /// Requests whose deadline passed while queued (never reach the model).
    pub timed_out: Vec<AccessReq>,
    /// The session's `Bye` was reached.
    pub saw_bye: bool,
}

impl DrainPlan {
    /// Reset for the next drain, keeping allocations.
    pub fn clear(&mut self) {
        self.run.clear();
        self.replies.clear();
        self.events.clear();
        self.timed_out.clear();
        self.saw_bye = false;
    }
}

/// Drain up to `max_accesses` live decision requests (plus any number of
/// interleaved events) from the front of `queue` into `plan`. Entries
/// past the cutoff stay queued for the next visit; everything up to and
/// including a `Bye` is consumed when one is reached first.
pub fn drain_session(
    queue: &mut VecDeque<SessionCmd>,
    max_accesses: usize,
    now: Instant,
    plan: &mut DrainPlan,
) {
    plan.clear();
    let max = max_accesses.max(1);
    while plan.run.len() < max {
        let Some(cmd) = queue.pop_front() else { break };
        match cmd {
            SessionCmd::Access(req) => {
                if req.deadline.is_some_and(|d| d <= now) {
                    plan.timed_out.push(req);
                } else {
                    plan.run.push((req.access, req.hit));
                    plan.replies.push((req.req_id, req.enqueued));
                }
            }
            SessionCmd::Event(e) => plan.events.push((plan.run.len(), e)),
            SessionCmd::Bye => {
                plan.saw_bye = true;
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn req(id: u32, deadline: Option<Instant>) -> SessionCmd {
        SessionCmd::Access(AccessReq {
            req_id: id,
            access: MemAccess::load(u64::from(id), 0x400, 0x1000 + u64::from(id) * 64),
            hit: false,
            enqueued: Instant::now(),
            deadline,
        })
    }

    fn run_ids(plan: &DrainPlan) -> Vec<u32> {
        plan.replies.iter().map(|&(id, _)| id).collect()
    }

    #[test]
    fn coalesces_consecutive_accesses_into_one_run() {
        let mut q: VecDeque<SessionCmd> = (0..5).map(|i| req(i, None)).collect();
        let mut plan = DrainPlan::default();
        drain_session(&mut q, 64, Instant::now(), &mut plan);
        assert_eq!(run_ids(&plan), vec![0, 1, 2, 3, 4]);
        assert!(plan.events.is_empty());
        assert!(q.is_empty());
        assert!(!plan.saw_bye);
    }

    #[test]
    fn respects_max_accesses_and_leaves_the_rest() {
        let mut q: VecDeque<SessionCmd> = (0..10).map(|i| req(i, None)).collect();
        let mut plan = DrainPlan::default();
        drain_session(&mut q, 4, Instant::now(), &mut plan);
        assert_eq!(run_ids(&plan), vec![0, 1, 2, 3]);
        assert_eq!(q.len(), 6);
        drain_session(&mut q, 4, Instant::now(), &mut plan);
        assert_eq!(run_ids(&plan), vec![4, 5, 6, 7]);
    }

    #[test]
    fn events_are_tagged_with_the_access_they_precede() {
        let mut q = VecDeque::new();
        q.push_back(SessionCmd::Event(CacheEvent::PrefetchFill { addr: 0x80 }));
        q.push_back(req(0, None));
        q.push_back(req(1, None));
        q.push_back(SessionCmd::Event(CacheEvent::DemandFill { addr: 0x40 }));
        q.push_back(req(2, None));
        q.push_back(SessionCmd::Event(CacheEvent::Evict {
            addr: 0xc0,
            unused_prefetch: true,
        }));
        let mut plan = DrainPlan::default();
        drain_session(&mut q, 64, Instant::now(), &mut plan);
        assert_eq!(run_ids(&plan), vec![0, 1, 2]);
        assert_eq!(
            plan.events,
            vec![
                (0, CacheEvent::PrefetchFill { addr: 0x80 }),
                (2, CacheEvent::DemandFill { addr: 0x40 }),
                (
                    3,
                    CacheEvent::Evict {
                        addr: 0xc0,
                        unused_prefetch: true
                    }
                ),
            ]
        );
    }

    #[test]
    fn events_past_the_cutoff_stay_queued() {
        let mut q = VecDeque::new();
        q.push_back(req(0, None));
        q.push_back(req(1, None));
        q.push_back(SessionCmd::Event(CacheEvent::DemandFill { addr: 0x40 }));
        q.push_back(req(2, None));
        let mut plan = DrainPlan::default();
        drain_session(&mut q, 2, Instant::now(), &mut plan);
        assert_eq!(run_ids(&plan), vec![0, 1]);
        assert!(plan.events.is_empty());
        assert_eq!(q.len(), 2, "the event and the third access wait");
        drain_session(&mut q, 2, Instant::now(), &mut plan);
        assert_eq!(run_ids(&plan), vec![2]);
        assert_eq!(
            plan.events,
            vec![(0, CacheEvent::DemandFill { addr: 0x40 })]
        );
    }

    #[test]
    fn expired_requests_are_pulled_without_breaking_the_run() {
        let now = Instant::now();
        let past = now.checked_sub(Duration::from_millis(5));
        let future = now.checked_add(Duration::from_secs(60));
        let mut q = VecDeque::new();
        q.push_back(req(0, future));
        q.push_back(req(1, past)); // expired in queue
        q.push_back(SessionCmd::Event(CacheEvent::DemandFill { addr: 0x40 }));
        q.push_back(req(2, None));
        let mut plan = DrainPlan::default();
        drain_session(&mut q, 64, now, &mut plan);
        // The two live accesses still batch as one contiguous run.
        assert_eq!(run_ids(&plan), vec![0, 2]);
        assert_eq!(
            plan.timed_out.iter().map(|r| r.req_id).collect::<Vec<_>>(),
            vec![1]
        );
        // The expired request does not move the event: it still precedes
        // access 2, the run's second entry.
        assert_eq!(
            plan.events,
            vec![(1, CacheEvent::DemandFill { addr: 0x40 })]
        );
    }

    #[test]
    fn bye_terminates_the_drain() {
        let mut q = VecDeque::new();
        q.push_back(req(0, None));
        q.push_back(SessionCmd::Bye);
        let mut plan = DrainPlan::default();
        drain_session(&mut q, 64, Instant::now(), &mut plan);
        assert!(plan.saw_bye);
        assert_eq!(run_ids(&plan), vec![0]);
        assert!(q.is_empty());
    }

    #[test]
    fn empty_queue_drains_to_empty_plan() {
        let mut q = VecDeque::new();
        let mut plan = DrainPlan::default();
        drain_session(&mut q, 8, Instant::now(), &mut plan);
        assert!(plan.run.is_empty() && plan.events.is_empty() && plan.timed_out.is_empty());
        assert!(!plan.saw_bye);
    }
}
