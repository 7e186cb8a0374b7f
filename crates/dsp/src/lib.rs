//! # netscatter-dsp
//!
//! Signal-processing substrate for the [NetScatter](https://www.usenix.org/conference/nsdi19/presentation/hessar)
//! reproduction. The crate is self-contained (no external DSP dependencies)
//! and provides exactly the primitives the chirp-spread-spectrum (CSS)
//! physical layer and the receiver need:
//!
//! * [`complex::Complex64`] — complex baseband samples.
//! * [`fft`] — an iterative radix-2 FFT/IFFT with reusable plans and
//!   zero-padded transforms (the paper's receiver zero-pads to achieve
//!   sub-FFT-bin peak resolution, §3.2.3).
//! * [`chirp`] — linear upchirp/downchirp synthesis, cyclic shifting, and
//!   dechirping (downchirp multiplication), the core CSS operations of §2.1.
//! * [`correlator`] — the all-shifts chirp-bank correlation (one dechirp
//!   and FFT scores every device), the preamble sync machinery of §3.3.1.
//! * [`kernels`] — autovectorizing elementwise kernels (per-sample power
//!   for the energy gate, an f32-lane dechirp) for the streaming hot loops.
//! * [`spectrum`] — power spectra and side-lobe measurement (Fig. 8).
//! * [`spectrogram`] — short-time Fourier transform used to reproduce the
//!   Fig. 16 spectrograms of the backscattered signal at different power
//!   gains.
//! * [`window`] — analysis windows for the spectrogram.
//! * [`units`] — dB/linear and dBm/watt conversions and thermal-noise
//!   helpers used throughout the workspace.
//! * [`stats`] — small statistics toolbox (mean, variance, empirical CDF)
//!   used by the experiment drivers.
//!
//! The style follows event-driven, allocation-conscious Rust networking
//! libraries: plans and buffers are reusable, nothing panics on untrusted
//! input sizes (errors are returned), and every public item is documented.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chirp;
pub mod complex;
pub mod correlator;
pub mod fft;
pub mod kernels;
pub mod spectrogram;
pub mod spectrum;
pub mod stats;
pub mod units;
pub mod window;

pub use chirp::{ChirpParams, ChirpSynthesizer};
pub use complex::Complex64;
pub use correlator::ChirpBank;
pub use fft::{Fft, FftError};
pub use units::{db_to_linear, linear_to_db};
