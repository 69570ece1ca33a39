//! Structured fault taxonomy for the simulator: configuration rejection,
//! allocation failures, device-memcheck violations, and forward-progress
//! hang reports.
//!
//! The types here are the payloads of [`SimError`](crate::SimError). They
//! are deliberately plain data — every field a debugger or test would want
//! to assert on is public — with `Display` implementations that render the
//! way a CUDA programmer would expect `cuda-memcheck` or a kernel-timeout
//! dump to read.

use gcl_core::LoadClass;
use gcl_ptx::Space;
use std::fmt;

/// Why a [`GpuConfig`](crate::GpuConfig) was rejected by
/// [`validate`](crate::GpuConfig::validate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending field (or field group).
    pub field: &'static str,
    /// The constraint that was violated.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid GPU configuration ({}): {}",
            self.field, self.message
        )
    }
}

impl std::error::Error for ConfigError {}

/// Why a device allocation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The requested alignment was zero or not a power of two.
    BadAlign {
        /// The rejected alignment.
        align: u64,
    },
    /// The allocation would overflow the 64-bit device address space.
    TooLarge {
        /// Bytes requested.
        bytes: u64,
    },
    /// `count * elem_bytes` overflowed in an array allocation.
    CountOverflow {
        /// Elements requested.
        count: u64,
        /// Size of each element in bytes.
        elem_bytes: u32,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::BadAlign { align } => {
                write!(f, "alignment {align} is not a nonzero power of two")
            }
            AllocError::TooLarge { bytes } => {
                write!(
                    f,
                    "allocation of {bytes} bytes exceeds the device address space"
                )
            }
            AllocError::CountOverflow { count, elem_bytes } => {
                write!(
                    f,
                    "array of {count} x {elem_bytes}-byte elements overflows a 64-bit size"
                )
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// How a faulting instruction touched memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load instruction.
    Load,
    /// A store instruction.
    Store,
    /// An atomic read-modify-write.
    Atomic,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Load => "load",
            AccessKind::Store => "store",
            AccessKind::Atomic => "atomic",
        })
    }
}

/// An out-of-bounds device access caught by memcheck at execution time
/// (no live allocation contains the accessed bytes).
///
/// Raised from `Warp::step` with the per-lane facts;
/// the SM and GPU layers wrap it into a [`MemFaultReport`] with placement
/// and classification context attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemViolation {
    /// Instruction index of the faulting access.
    pub pc: usize,
    /// Address space accessed.
    pub space: Space,
    /// Load, store, or atomic.
    pub kind: AccessKind,
    /// First lane whose address fell outside every allocation.
    pub lane: u32,
    /// The faulting byte address.
    pub addr: u64,
    /// Bytes the lane tried to access.
    pub bytes: u32,
    /// The live allocation `(base, len)` closest below the address, if any
    /// — usually the buffer the kernel ran off the end of.
    pub nearest: Option<(u64, u64)>,
}

impl fmt::Display for MemViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out-of-bounds {} {} of {} bytes at 0x{:x} (pc {}, lane {})",
            self.space, self.kind, self.bytes, self.addr, self.pc, self.lane
        )?;
        match self.nearest {
            Some((base, len)) => {
                let end = base + len;
                if self.addr >= end {
                    write!(
                        f,
                        "; nearest allocation is [0x{base:x}, 0x{end:x}), address is {} bytes \
                         past its end",
                        self.addr - end
                    )
                } else {
                    write!(
                        f,
                        "; access runs past the end of allocation [0x{base:x}, 0x{end:x})"
                    )
                }
            }
            None => write!(f, "; no allocation below this address"),
        }
    }
}

/// A fully attributed memcheck fault: the raw [`MemViolation`] plus where
/// it happened (SM, warp, CTA) and what the classifier knows about the
/// faulting instruction (D/N class and the def-chain witness of its
/// address) — the paper's static analysis doubling as a debugging aid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemFaultReport {
    /// Kernel the fault occurred in.
    pub kernel: String,
    /// SM the faulting warp was resident on.
    pub sm: u16,
    /// Warp slot within the SM.
    pub warp_slot: usize,
    /// Linearized CTA id.
    pub cta: u64,
    /// The raw violation.
    pub violation: MemViolation,
    /// D/N class of the faulting load (`None` for stores/atomics or
    /// instructions the classifier did not record).
    pub class: Option<LoadClass>,
    /// Def-chain witness of the faulting access's address: instruction
    /// indices from the access back to the tainting load (empty for
    /// deterministic addresses).
    pub witness: Vec<usize>,
}

impl fmt::Display for MemFaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "device memory fault in kernel `{}`:", self.kernel)?;
        writeln!(f, "  {}", self.violation)?;
        write!(
            f,
            "  SM {}, warp slot {}, CTA {}",
            self.sm, self.warp_slot, self.cta
        )?;
        if let Some(class) = self.class {
            write!(f, "\n  load class: {class}")?;
        }
        if !self.witness.is_empty() {
            let chain: Vec<String> = self.witness.iter().map(|pc| format!("pc {pc}")).collect();
            write!(f, "\n  address def-chain: {}", chain.join(" <- "))?;
        }
        Ok(())
    }
}

/// State of one resident warp at the moment a hang was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpSnapshot {
    /// Warp slot within the SM.
    pub slot: usize,
    /// Linearized CTA id the warp belongs to.
    pub cta: u64,
    /// Current pc, or `None` if every lane has exited.
    pub pc: Option<usize>,
    /// The named CTA barrier the warp waits at, if any.
    pub at_barrier: Option<u32>,
    /// Operations in flight (memory requests, pending writebacks).
    pub pending_ops: u32,
    /// Whether the scoreboard holds any register reservation for this warp.
    pub scoreboard_busy: bool,
}

impl fmt::Display for WarpSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "warp {:>2} (CTA {}): ", self.slot, self.cta)?;
        match self.pc {
            None => write!(f, "finished")?,
            Some(pc) => write!(f, "pc {pc}")?,
        }
        if let Some(id) = self.at_barrier {
            write!(f, ", at barrier {id}")?;
        }
        if self.pending_ops > 0 {
            write!(f, ", {} op(s) in flight", self.pending_ops)?;
        }
        if self.scoreboard_busy {
            write!(f, ", scoreboard busy")?;
        }
        Ok(())
    }
}

/// State of one SM at the moment a hang was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmSnapshot {
    /// SM index.
    pub id: u16,
    /// Warp memory instructions queued at the LD/ST unit.
    pub ldst_queue: usize,
    /// L1 misses outstanding (MSHR occupancy).
    pub l1_inflight: usize,
    /// Resident warps (empty slots omitted).
    pub warps: Vec<WarpSnapshot>,
}

impl fmt::Display for SmSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SM {}: {} ldst queue entries, {} L1 misses in flight",
            self.id, self.ldst_queue, self.l1_inflight
        )?;
        for w in &self.warps {
            write!(f, "\n    {w}")?;
        }
        Ok(())
    }
}

/// The forward-progress watchdog fired: no instruction issued, no memory
/// response landed, and no CTA was dispatched or retired for
/// [`hang_cycles`](crate::GpuConfig::hang_cycles) consecutive cycles.
///
/// Cycle counts are relative to the start of the hung launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HangReport {
    /// Launch cycle at which the hang was detected.
    pub cycle: u64,
    /// Launch cycle of the last observed progress.
    pub last_progress: u64,
    /// The watchdog threshold that fired.
    pub hang_cycles: u64,
    /// CTAs still waiting for dispatch.
    pub ctas_outstanding: u64,
    /// Per-SM state at detection time.
    pub sms: Vec<SmSnapshot>,
}

impl fmt::Display for HangReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "kernel hang: no forward progress for {} cycles (last progress at cycle {}, \
             detected at cycle {})",
            self.cycle - self.last_progress,
            self.last_progress,
            self.cycle
        )?;
        write!(f, "  {} CTA(s) waiting for dispatch", self.ctas_outstanding)?;
        for sm in &self.sms {
            write!(f, "\n  {sm}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_fault_report_renders_all_context() {
        let report = MemFaultReport {
            kernel: "bfs_expand".to_string(),
            sm: 3,
            warp_slot: 5,
            cta: 17,
            violation: MemViolation {
                pc: 12,
                space: Space::Global,
                kind: AccessKind::Load,
                lane: 7,
                addr: 0x1000_1040,
                bytes: 4,
                nearest: Some((0x1000_0000, 0x1000)),
            },
            class: Some(LoadClass::NonDeterministic),
            witness: vec![12, 8, 5],
        };
        let text = report.to_string();
        assert!(text.contains("bfs_expand"), "{text}");
        assert!(text.contains("pc 12"), "{text}");
        assert!(text.contains("SM 3"), "{text}");
        assert!(text.contains("lane 7"), "{text}");
        assert!(text.contains("0x10001040"), "{text}");
        assert!(text.contains("non-deterministic"), "{text}");
        assert!(text.contains("pc 12 <- pc 8 <- pc 5"), "{text}");
    }

    #[test]
    fn hang_report_renders_warp_states() {
        let report = HangReport {
            cycle: 100_500,
            last_progress: 500,
            hang_cycles: 100_000,
            ctas_outstanding: 3,
            sms: vec![SmSnapshot {
                id: 0,
                ldst_queue: 1,
                l1_inflight: 2,
                warps: vec![
                    WarpSnapshot {
                        slot: 0,
                        cta: 4,
                        pc: Some(9),
                        at_barrier: Some(0),
                        pending_ops: 0,
                        scoreboard_busy: false,
                    },
                    WarpSnapshot {
                        slot: 1,
                        cta: 4,
                        pc: None,
                        at_barrier: None,
                        pending_ops: 0,
                        scoreboard_busy: false,
                    },
                ],
            }],
        };
        let text = report.to_string();
        assert!(text.contains("100000 cycles"), "{text}");
        assert!(text.contains("3 CTA(s)"), "{text}");
        assert!(text.contains("at barrier"), "{text}");
        assert!(text.contains("finished"), "{text}");
    }

    #[test]
    fn alloc_and_config_errors_display() {
        let e = AllocError::CountOverflow {
            count: u64::MAX,
            elem_bytes: 4,
        };
        assert!(e.to_string().contains("overflows"));
        let e = AllocError::BadAlign { align: 0 };
        assert!(e.to_string().contains("power of two"));
        let e = ConfigError {
            field: "n_sms",
            message: "need at least one SM".into(),
        };
        assert!(e.to_string().contains("n_sms"));
        assert!(e.to_string().contains("need at least one SM"));
    }
}
