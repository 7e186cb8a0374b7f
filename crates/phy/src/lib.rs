//! # netscatter-phy
//!
//! Chirp-spread-spectrum physical layer shared by NetScatter and the
//! baselines it is compared against.
//!
//! The crate provides:
//!
//! * [`params`] — modulation configurations (bandwidth, spreading factor),
//!   the derived rates/durations, and the Table 1 sensitivity model.
//! * [`distributed`] — NetScatter's distributed CSS coding primitive: the
//!   per-symbol ON-OFF-keyed cyclic-shift modulator and the single-FFT
//!   concurrent demodulator with zero-padded sub-bin resolution.
//! * [`preamble`] — the shared packet preamble (six upchirps followed by two
//!   downchirps on the device's own cyclic shift) and packet-start
//!   estimation (§3.3.1).
//! * [`packet`] — link-layer framing: payload serialization, CRC-8, and the
//!   symbol counts used by the end-to-end rate/latency accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributed;
pub mod packet;
pub mod params;
pub mod preamble;

pub use distributed::{ConcurrentDemodulator, OnOffModulator, SymbolDecision};
pub use packet::{LinkPacket, PacketTiming};
pub use params::{ModulationConfig, PhyProfile};
pub use preamble::{PreambleBuilder, PreambleDetector, PREAMBLE_DOWNCHIRPS, PREAMBLE_UPCHIRPS};
