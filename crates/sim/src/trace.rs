//! Bounded instruction-issue tracing, for debugging kernels and validating
//! scheduler behavior. A [`Trace`] is a [`TraceSink`]: share one through
//! `Arc<Mutex<Trace>>`, attach a clone with
//! [`Gpu::set_trace_sink`](crate::Gpu::set_trace_sink), launch, and read
//! the events back from the retained clone.

use crate::replay::{LaunchInfo, ReplayKind, TraceSink};
use gcl_mem::Cycle;

/// One issued warp instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Issue cycle.
    pub cycle: Cycle,
    /// SM that issued.
    pub sm: u16,
    /// Warp slot within the SM.
    pub warp_slot: u16,
    /// Linearized CTA id of the warp.
    pub cta: u64,
    /// Program counter of the instruction.
    pub pc: u32,
    /// Active-lane mask at issue.
    pub active: u32,
}

/// A bounded issue trace: once `capacity` events are recorded, further
/// events are counted but dropped.
///
/// # Examples
///
/// ```
/// use gcl_sim::{Trace, TraceEvent};
/// let ev = |pc| TraceEvent { cycle: 0, sm: 0, warp_slot: 0, cta: 0, pc, active: 0xF };
/// let mut t = Trace::new(2);
/// t.record_event(ev(0));
/// t.record_event(ev(1));
/// t.record_event(ev(2)); // dropped
/// assert_eq!(t.events().len(), 2);
/// assert_eq!(t.dropped(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// A trace that keeps at most `capacity` events.
    pub fn new(capacity: usize) -> Trace {
        Trace {
            events: Vec::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Record one issue event.
    pub fn record_event(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events, in issue order (per SM; cross-SM events at the
    /// same cycle appear in SM-id order).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events that did not fit in `capacity`.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// The debug trace keeps the issue event and ignores the replay payload;
/// events of successive launches accumulate in one buffer.
impl TraceSink for Trace {
    fn begin_launch(&mut self, _info: &LaunchInfo) {}

    fn issue(&mut self, _stream: u64, ev: &TraceEvent, _kind: &ReplayKind) {
        self.record_event(*ev);
    }

    fn end_launch(&mut self) {}

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: Cycle, pc: u32) -> TraceEvent {
        TraceEvent {
            cycle,
            sm: 0,
            warp_slot: 0,
            cta: 0,
            pc,
            active: 1,
        }
    }

    #[test]
    fn bounded_capacity_counts_drops() {
        let mut t = Trace::new(3);
        for i in 0..5 {
            t.record_event(ev(i, i as u32));
        }
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.events()[2].pc, 2);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut t = Trace::new(0);
        t.record_event(ev(0, 0));
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 1);
    }
}
