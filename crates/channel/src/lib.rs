//! # netscatter-channel
//!
//! Wireless-channel substrate for the NetScatter reproduction. The paper
//! evaluates its protocol on a physical 256-device deployment in an office
//! building; this crate supplies the simulated equivalents of everything the
//! radio environment contributed to those measurements:
//!
//! * [`noise`] — complex AWGN at a given noise power.
//! * [`pathloss`] — log-distance path loss with wall attenuation and
//!   log-normal shadowing, plus the *round-trip* backscatter link budget
//!   (AP → tag → AP) and the one-way downlink budget used by the tag's
//!   envelope detector.
//! * [`fading`] — a temporal fading process that reproduces
//!   the SNR variance the paper measures over 30 minutes of people walking
//!   around an office (Fig. 9).
//! * [`multipath`] — tapped-delay-line multipath with an exponential power
//!   delay profile (indoor delay spreads of 50–300 ns, §3.2.1).
//! * [`doppler`] — Doppler shifts for device mobility (Fig. 15a).
//! * [`impairments`] — per-device hardware imperfections: MCU/FPGA hardware
//!   delay jitter (§3.2.1/§4.2) and crystal-driven carrier frequency offsets
//!   (§3.2.2, Fig. 14a), including the radio-vs-backscatter scaling argument
//!   of §2.2.
//! * [`geometry`] — 2-D positions and the office floorplan primitives used
//!   by the deployment generator.
//!
//! All stochastic components take an explicit [`rand::Rng`] so simulations
//! are reproducible from a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod doppler;
pub mod fading;
pub mod geometry;
pub mod impairments;
pub mod multipath;
pub mod noise;
pub mod pathloss;

pub use geometry::Position;
pub use impairments::{CfoModel, DeviceImpairments, HardwareDelayModel, ImpairmentModel};
pub use noise::AwgnChannel;
pub use pathloss::{IndoorPathLoss, LinkBudget};
