//! Crossbar interconnect between SMs and memory partitions.
//!
//! Two independent directions (requests toward partitions, responses toward
//! SMs), each a crossbar with bounded per-port input queues, per-output
//! round-robin arbitration (one packet per output per cycle) and a fixed hop
//! latency. The bounded input queues are what produce the paper's
//! *reservation fail by interconnection* back-pressure, and the per-output
//! serialization produces the Figure 7 "gap at L2-icnt" spread.

use crate::wire::{Dec, Enc, Wire, WireError};
use crate::{Cycle, MemRequest};
use std::collections::VecDeque;

/// Interconnect configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcntConfig {
    /// Cycles a packet spends in flight once arbitrated.
    pub hop_latency: u32,
    /// Capacity of each input queue.
    pub input_queue_len: usize,
    /// Packets each output port can accept per cycle.
    pub output_bandwidth: usize,
}

impl IcntConfig {
    /// Fermi-like defaults.
    pub fn fermi() -> IcntConfig {
        IcntConfig {
            hop_latency: 8,
            input_queue_len: 8,
            output_bandwidth: 1,
        }
    }
}

/// One direction of the crossbar.
#[derive(Debug)]
struct Xbar {
    cfg: IcntConfig,
    /// Per-input queues of (dest, request).
    inputs: Vec<VecDeque<(usize, MemRequest)>>,
    /// Per-output delivery queues of (ready_cycle, request).
    outputs: Vec<VecDeque<(Cycle, MemRequest)>>,
    /// Round-robin arbitration pointer per output.
    rr: Vec<usize>,
    /// Packets transferred (for utilization stats).
    transferred: u64,
    /// Which input queues are non-empty, one bit per input port. Derived
    /// from `inputs` (never serialised) so arbitration can skip idle ports.
    occupied: Vec<u64>,
}

/// Lowest set bit of `words` at or above `from`.
fn next_set(words: &[u64], from: usize) -> Option<usize> {
    let mut keep = !0u64 << (from % 64);
    for (w, &word) in words.iter().enumerate().skip(from / 64) {
        if word & keep != 0 {
            return Some(w * 64 + (word & keep).trailing_zeros() as usize);
        }
        keep = !0;
    }
    None
}

impl Xbar {
    fn new(cfg: IcntConfig, n_in: usize, n_out: usize) -> Xbar {
        Xbar::from_parts(
            cfg,
            (0..n_in).map(|_| VecDeque::new()).collect(),
            (0..n_out).map(|_| VecDeque::new()).collect(),
            vec![0; n_out],
            0,
        )
    }

    fn from_parts(
        cfg: IcntConfig,
        inputs: Vec<VecDeque<(usize, MemRequest)>>,
        outputs: Vec<VecDeque<(Cycle, MemRequest)>>,
        rr: Vec<usize>,
        transferred: u64,
    ) -> Xbar {
        let mut occupied = vec![0u64; inputs.len().div_ceil(64)];
        for (i, q) in inputs.iter().enumerate() {
            if !q.is_empty() {
                occupied[i / 64] |= 1 << (i % 64);
            }
        }
        Xbar {
            cfg,
            inputs,
            outputs,
            rr,
            transferred,
            occupied,
        }
    }

    fn can_inject(&self, port: usize) -> bool {
        self.inputs[port].len() < self.cfg.input_queue_len
    }

    fn inject(&mut self, port: usize, dest: usize, req: MemRequest) -> bool {
        if !self.can_inject(port) {
            return false;
        }
        self.inputs[port].push_back((dest, req));
        self.occupied[port / 64] |= 1 << (port % 64);
        true
    }

    /// If `input`'s head-of-line packet is bound for `out`, move it across.
    fn try_transfer(&mut self, input: usize, out: usize, cycle: Cycle) -> bool {
        if !matches!(self.inputs[input].front(), Some(&(dest, _)) if dest == out) {
            return false;
        }
        let (_, req) = self.inputs[input].pop_front().expect("head just seen");
        if self.inputs[input].is_empty() {
            self.occupied[input / 64] &= !(1 << (input % 64));
        }
        self.outputs[out].push_back((cycle + Cycle::from(self.cfg.hop_latency), req));
        self.transferred += 1;
        true
    }

    fn tick(&mut self, cycle: Cycle) {
        let n_in = self.inputs.len();
        if self.occupied.iter().any(|w| *w != 0) {
            for out in 0..self.outputs.len() {
                // Round-robin from `rr[out]` (wrapping once) over the
                // non-empty inputs; accept up to output_bandwidth packets
                // whose head-of-line destination is this output.
                let start = self.rr[out];
                let mut accepted = 0;
                for (mut from, end) in [(start, n_in), (0, start)] {
                    while accepted < self.cfg.output_bandwidth {
                        let Some(input) = next_set(&self.occupied, from).filter(|&i| i < end)
                        else {
                            break;
                        };
                        accepted += usize::from(self.try_transfer(input, out, cycle));
                        from = input + 1;
                    }
                }
            }
        }
        // The pointers advance every tick, traffic or not, so arbitration
        // order (and checkpoint bytes) never depend on when ports were idle.
        for r in &mut self.rr {
            *r = if *r + 1 == n_in { 0 } else { *r + 1 };
        }
    }

    /// The arbitration loop `tick` replaced — probe every input head for
    /// every output — kept as the oracle `tick` is tested against.
    #[cfg(test)]
    fn tick_probing(&mut self, cycle: Cycle) {
        let n_in = self.inputs.len();
        for out in 0..self.outputs.len() {
            let mut accepted = 0;
            for k in 0..n_in {
                if accepted >= self.cfg.output_bandwidth {
                    break;
                }
                let input = (self.rr[out] + k) % n_in;
                accepted += usize::from(self.try_transfer(input, out, cycle));
            }
            self.rr[out] = (self.rr[out] + 1) % n_in;
        }
    }

    fn pop_ready(&mut self, port: usize, cycle: Cycle) -> Option<MemRequest> {
        if let Some(&(ready, _)) = self.outputs[port].front() {
            if ready <= cycle {
                return self.outputs[port].pop_front().map(|(_, r)| r);
            }
        }
        None
    }

    fn is_empty(&self) -> bool {
        self.inputs.iter().all(VecDeque::is_empty) && self.outputs.iter().all(VecDeque::is_empty)
    }

    fn ckpt_encode(&self, e: &mut Enc) {
        self.inputs.put(e);
        self.outputs.put(e);
        self.rr.put(e);
        self.transferred.put(e);
    }

    fn ckpt_decode(
        d: &mut Dec<'_>,
        cfg: IcntConfig,
        n_in: usize,
        n_out: usize,
    ) -> Result<Xbar, WireError> {
        let inputs: Vec<VecDeque<(usize, MemRequest)>> = Wire::get(d)?;
        if inputs.len() != n_in {
            return Err(WireError::Malformed("xbar input port count mismatch"));
        }
        if inputs.iter().flatten().any(|&(dest, _)| dest >= n_out) {
            return Err(WireError::Malformed("xbar destination out of range"));
        }
        if inputs.iter().any(|q| q.len() > cfg.input_queue_len) {
            return Err(WireError::Malformed("xbar input queue overflow"));
        }
        let outputs: Vec<VecDeque<(Cycle, MemRequest)>> = Wire::get(d)?;
        if outputs.len() != n_out {
            return Err(WireError::Malformed("xbar output port count mismatch"));
        }
        let (rr, transferred): (Vec<usize>, u64) = Wire::get(d)?;
        if rr.len() != n_out || rr.iter().any(|&p| p >= n_in) {
            return Err(WireError::Malformed("xbar round-robin state invalid"));
        }
        Ok(Xbar::from_parts(cfg, inputs, outputs, rr, transferred))
    }
}

/// The full interconnect: SM→partition requests and partition→SM responses.
///
/// # Examples
///
/// ```
/// use gcl_mem::{ClassTag, Icnt, IcntConfig, MemRequest};
///
/// let mut icnt = Icnt::new(IcntConfig::fermi(), 2, 2);
/// let req = MemRequest::read(1, 0x80, 0, ClassTag::Deterministic, 0, 0);
/// assert!(icnt.inject_request(0, 1, req));
/// for cycle in 0..20 {
///     icnt.tick(cycle);
///     if let Some(r) = icnt.pop_request(1, cycle) {
///         assert_eq!(r.id, 1);
///         break;
///     }
/// }
/// ```
#[derive(Debug)]
pub struct Icnt {
    req: Xbar,
    resp: Xbar,
}

impl Icnt {
    /// Create an interconnect between `n_sms` cores and `n_parts` partitions.
    pub fn new(cfg: IcntConfig, n_sms: usize, n_parts: usize) -> Icnt {
        Icnt {
            req: Xbar::new(cfg, n_sms, n_parts),
            resp: Xbar::new(cfg, n_parts, n_sms),
        }
    }

    /// Whether SM `sm` can inject a request this cycle.
    pub fn can_inject_request(&self, sm: usize) -> bool {
        self.req.can_inject(sm)
    }

    /// Inject a request from SM `sm` toward partition `part`. Returns false
    /// when the input queue is full.
    pub fn inject_request(&mut self, sm: usize, part: usize, req: MemRequest) -> bool {
        self.req.inject(sm, part, req)
    }

    /// Pop a request delivered to partition `part`, if one is ready.
    pub fn pop_request(&mut self, part: usize, cycle: Cycle) -> Option<MemRequest> {
        self.req.pop_ready(part, cycle)
    }

    /// Whether partition `part` can inject a response this cycle.
    pub fn can_inject_response(&self, part: usize) -> bool {
        self.resp.can_inject(part)
    }

    /// Inject a response from partition `part` toward its SM.
    pub fn inject_response(&mut self, part: usize, req: MemRequest) -> bool {
        let sm = usize::from(req.sm_id);
        self.resp.inject(part, sm, req)
    }

    /// Pop a response delivered to SM `sm`, if one is ready.
    pub fn pop_response(&mut self, sm: usize, cycle: Cycle) -> Option<MemRequest> {
        self.resp.pop_ready(sm, cycle)
    }

    /// The cycle from which SM `sm`'s next response can be popped, if one
    /// is on its way out of the crossbar.
    pub fn next_response_at(&self, sm: usize) -> Option<Cycle> {
        self.resp.outputs[sm].front().map(|&(at, _)| at)
    }

    /// Advance both directions one cycle.
    pub fn tick(&mut self, cycle: Cycle) {
        self.req.tick(cycle);
        self.resp.tick(cycle);
    }

    /// Whether no packets are anywhere in the interconnect.
    pub fn is_empty(&self) -> bool {
        self.req.is_empty() && self.resp.is_empty()
    }

    /// Total packets transferred in each direction (requests, responses).
    pub fn transferred(&self) -> (u64, u64) {
        (self.req.transferred, self.resp.transferred)
    }

    /// Packets currently buffered in each direction (requests, responses) —
    /// a drainage diagnostic for the sanitizer's leak reports.
    pub fn in_flight(&self) -> (usize, usize) {
        let count = |x: &Xbar| {
            x.inputs.iter().map(VecDeque::len).sum::<usize>()
                + x.outputs.iter().map(VecDeque::len).sum::<usize>()
        };
        (count(&self.req), count(&self.resp))
    }

    /// Checkpoint-encode both crossbar directions (queues, round-robin
    /// pointers and transfer counters).
    pub fn ckpt_encode(&self, e: &mut Enc) {
        self.req.ckpt_encode(e);
        self.resp.ckpt_encode(e);
    }

    /// Checkpoint-decode an interconnect written by
    /// [`ckpt_encode`](Self::ckpt_encode) for the given topology.
    pub fn ckpt_decode(
        d: &mut Dec<'_>,
        cfg: IcntConfig,
        n_sms: usize,
        n_parts: usize,
    ) -> Result<Icnt, WireError> {
        Ok(Icnt {
            req: Xbar::ckpt_decode(d, cfg, n_sms, n_parts)?,
            resp: Xbar::ckpt_decode(d, cfg, n_parts, n_sms)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClassTag;

    fn rd(id: u64) -> MemRequest {
        MemRequest::read(id, 0x80 * id, 0, ClassTag::Deterministic, 0, 0)
    }

    #[test]
    fn request_traverses_with_hop_latency() {
        let cfg = IcntConfig {
            hop_latency: 5,
            input_queue_len: 4,
            output_bandwidth: 1,
        };
        let mut icnt = Icnt::new(cfg, 1, 1);
        assert!(icnt.inject_request(0, 0, rd(1)));
        icnt.tick(0); // arbitrated at cycle 0, ready at 5
        assert!(icnt.pop_request(0, 4).is_none());
        assert_eq!(icnt.pop_request(0, 5).unwrap().id, 1);
    }

    #[test]
    fn input_queue_bound_back_pressures() {
        let cfg = IcntConfig {
            hop_latency: 1,
            input_queue_len: 2,
            output_bandwidth: 1,
        };
        let mut icnt = Icnt::new(cfg, 1, 1);
        assert!(icnt.inject_request(0, 0, rd(1)));
        assert!(icnt.inject_request(0, 0, rd(2)));
        assert!(!icnt.can_inject_request(0));
        assert!(!icnt.inject_request(0, 0, rd(3)));
        icnt.tick(0); // drains one
        assert!(icnt.can_inject_request(0));
    }

    #[test]
    fn output_serialization_one_per_cycle() {
        let cfg = IcntConfig {
            hop_latency: 0,
            input_queue_len: 8,
            output_bandwidth: 1,
        };
        let mut icnt = Icnt::new(cfg, 2, 1);
        icnt.inject_request(0, 0, rd(1));
        icnt.inject_request(1, 0, rd(2));
        icnt.tick(0);
        // Only one packet crossed in cycle 0.
        assert!(icnt.pop_request(0, 0).is_some());
        assert!(icnt.pop_request(0, 0).is_none());
        icnt.tick(1);
        assert!(icnt.pop_request(0, 1).is_some());
    }

    #[test]
    fn responses_route_by_sm_id() {
        let cfg = IcntConfig::fermi();
        let mut icnt = Icnt::new(cfg, 3, 1);
        let mut r = rd(9);
        r.sm_id = 2;
        assert!(icnt.inject_response(0, r));
        let mut found = None;
        for cycle in 0..32 {
            icnt.tick(cycle);
            for sm in 0..3 {
                if let Some(resp) = icnt.pop_response(sm, cycle) {
                    found = Some((sm, resp.id));
                }
            }
        }
        assert_eq!(found, Some((2, 9)));
        assert!(icnt.is_empty());
    }

    /// `tick` arbitrates exactly like the probe-every-head loop it replaced:
    /// two crossbars fed the same random traffic deliver the same packets
    /// at the same cycles and stay byte-identical in checkpoint form.
    #[test]
    fn occupied_mask_arbitration_matches_the_probing_oracle() {
        gcl_rng::cases(0x1C47, 300, |rng| {
            let cfg = IcntConfig {
                hop_latency: rng.u32_below(4),
                input_queue_len: 1 + rng.usize_below(4),
                output_bandwidth: 1 + rng.usize_below(3),
            };
            let wide = rng.chance(0.1);
            let n_in = 1 + rng.usize_below(if wide { 130 } else { 14 });
            let n_out = 1 + rng.usize_below(8);
            let mut new = Xbar::new(cfg, n_in, n_out);
            let mut old = Xbar::new(cfg, n_in, n_out);
            let load = rng.f64();
            let mut id = 0;
            for cycle in 0..60 {
                for port in 0..n_in {
                    if rng.chance(load) {
                        id += 1;
                        let dest = rng.usize_below(n_out);
                        assert_eq!(
                            new.inject(port, dest, rd(id)),
                            old.inject(port, dest, rd(id))
                        );
                    }
                }
                new.tick(cycle);
                old.tick_probing(cycle);
                for port in 0..n_out {
                    // Drain some outputs only sometimes, so delivery
                    // queues back up too.
                    while rng.chance(0.7) {
                        let got = new.pop_ready(port, cycle);
                        assert_eq!(got, old.pop_ready(port, cycle));
                        if got.is_none() {
                            break;
                        }
                    }
                }
                let (mut a, mut b) = (Enc::new(), Enc::new());
                new.ckpt_encode(&mut a);
                old.ckpt_encode(&mut b);
                assert_eq!(a.into_bytes(), b.into_bytes(), "cycle {cycle}");
            }
        });
    }

    #[test]
    fn round_robin_is_fair_across_inputs() {
        let cfg = IcntConfig {
            hop_latency: 0,
            input_queue_len: 8,
            output_bandwidth: 1,
        };
        let mut icnt = Icnt::new(cfg, 2, 1);
        for i in 0..4 {
            icnt.inject_request(0, 0, rd(10 + i));
            icnt.inject_request(1, 0, rd(20 + i));
        }
        let mut order = Vec::new();
        for cycle in 0..8 {
            icnt.tick(cycle);
            while let Some(r) = icnt.pop_request(0, cycle) {
                order.push(r.id / 10);
            }
        }
        assert_eq!(order.len(), 8);
        // Neither input starves: both sources appear in the first four.
        let first4: std::collections::BTreeSet<u64> = order[..4].iter().copied().collect();
        assert_eq!(first4.len(), 2, "{order:?}");
    }
}
