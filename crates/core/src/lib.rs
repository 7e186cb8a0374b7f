//! # netscatter
//!
//! A reproduction of **NetScatter: Enabling Large-Scale Backscatter
//! Networks** (Hessar, Najafi, Gollakota — NSDI 2019): the first wireless
//! protocol that scales to hundreds of *concurrent* backscatter
//! transmissions, built on distributed chirp-spread-spectrum (CSS) coding.
//!
//! ## What the crate provides
//!
//! * [`power`] — the tag's switch-network power control (0 / −4 / −10 dB
//!   backscatter gains via intermediate impedances, Fig. 7) and the IC
//!   energy model (45.2 µW budget, §4.1).
//! * [`device`] — the backscatter device: envelope-detector downlink,
//!   hardware-delay and CFO imperfections, the association state machine and
//!   the zero-overhead self-aware power-adjustment algorithm (§3.2.3).
//! * [`allocator`] — power-aware cyclic-shift assignment with the SKIP guard
//!   band (§3.2.1, §3.2.3).
//! * [`query`] — the AP's ASK query message (group ID, optional association
//!   response, optional full reassignment — Fig. 11).
//! * [`receiver`] — the AP-side concurrent receiver: packet-start
//!   estimation, preamble-based detection and threshold calibration, and
//!   single-FFT payload demodulation for all devices at once (§3.3.1).
//! * [`association`] — the association protocol over reserved cyclic shifts
//!   (§3.3.2, Fig. 10).
//! * [`protocol`] — the round-level protocol engine and the time accounting
//!   (query → concurrent preamble → payload) used by the network
//!   experiments.
//! * [`analysis`] — closed-form results quoted in §3.1: the `2^SF / SF`
//!   throughput gain and the multi-user Shannon-capacity scaling argument.
//! * [`json`] — a dependency-free ordered JSON document model (printer +
//!   parser) backing the structured experiment-result sinks.
//!
//! ## Quick start
//!
//! ```
//! use netscatter::prelude::*;
//! use rand::SeedableRng;
//!
//! // Paper-default PHY: 500 kHz, SF 9, SKIP 2 — up to 256 concurrent devices.
//! let profile = PhyProfile::default();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//!
//! // Three devices with measured uplink strengths (dBm) get power-aware shifts.
//! let mut allocator = CyclicShiftAllocator::new(&profile);
//! let a = allocator.assign(-95.0).unwrap();
//! let b = allocator.assign(-118.0).unwrap();
//! let c = allocator.assign(-100.0).unwrap();
//! assert_ne!(a.chirp_bin, b.chirp_bin);
//!
//! // Devices modulate one ON-OFF bit per symbol on their assigned shift;
//! // the AP decodes everyone with a single FFT per symbol.
//! let ap = ConcurrentReceiver::new(&profile).unwrap();
//! # let _ = (ap, c, &mut rng);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocator;
pub mod analysis;
pub mod association;
pub mod device;
pub mod json;
pub mod power;
pub mod protocol;
pub mod query;
pub mod receiver;

/// Convenient re-exports of the most commonly used types across the
/// workspace.
pub mod prelude {
    pub use crate::allocator::{CyclicShiftAllocator, ShiftAssignment};
    pub use crate::association::AssociationManager;
    pub use crate::device::{BackscatterDevice, DeviceConfig, TransmitDecision};
    pub use crate::power::BackscatterGain;
    pub use crate::protocol::{NetworkProtocol, RoundOutcome, RoundTiming};
    pub use crate::query::{AssociationResponse, QueryMessage};
    pub use crate::receiver::{ConcurrentReceiver, DecodedRound};
    pub use netscatter_phy::params::{ModulationConfig, PhyProfile};
}

pub use prelude::*;
