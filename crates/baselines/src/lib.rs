//! # netscatter-baselines
//!
//! The comparison systems of the paper's evaluation:
//!
//! * [`rate_adaptation`] — the SX1276-style SNR → best-bitrate table used by
//!   the "LoRa backscatter with ideal rate adaptation" baseline (§4.4).
//! * [`tdma`] — the sequential query-response MAC used by single-user LoRa
//!   backscatter, with its per-device query, preamble and payload overheads
//!   (the accounting behind Figs. 17–19's baseline curves).
//! * [`choir`] — a model of Choir's fractional-FFT-bin disambiguation and
//!   why it cannot scale for backscatter devices (§2.2, Fig. 4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod choir;
pub mod rate_adaptation;
pub mod tdma;

pub use rate_adaptation::RateAdaptation;
pub use tdma::{LoraBackscatterNetwork, LoraScheme};
