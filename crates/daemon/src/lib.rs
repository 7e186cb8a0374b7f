//! netscatterd — the NetScatter multi-stream serving daemon.
//!
//! The streaming gateway (`netscatter_gateway`) turns one continuous
//! sample stream into decoded concurrent-backscatter rounds; this crate
//! serves that capability over TCP, the shape an actual AP deployment
//! needs: many radios (or replayed captures) feeding one decode box.
//!
//! * [`protocol`] — the wire format: a JSON header line plus raw `cf32le`
//!   bytes in, NDJSON `ready`/`frame`/`end` records out;
//! * [`serve`] — the [`serve::Daemon`]: ingest accept loop, one
//!   [`netscatter_gateway::StreamEngine`] per connection with drop-oldest
//!   backpressure (the socket reader is never blocked; overload displaces
//!   the oldest queued chunk and counts it), graceful shutdown that joins
//!   every thread;
//! * [`registry`] / [`metrics`] — lock-free per-stream counters plus
//!   ingest→emit latency histograms, a finished-stream retention cap that
//!   folds retired streams into persistent totals, and the plain-text
//!   metrics-v2 endpoint (streams active, per-stream Msamples/s,
//!   real-time factor, rounds decoded, false alarms, ring drops, and
//!   per-stream/per-channel latency histograms with buckets and
//!   p50/p95/p99 quantiles);
//! * [`session`] — the serial [`session::Session`], wire bytes to frame
//!   lines on the caller's thread: the reference the daemon is compared
//!   with, sharing its emit step ([`protocol::FrameEmitter`]);
//! * [`client`] — the ingest/metrics clients the stress harness, replay
//!   feeders and smoke tests use;
//! * [`signals`] — the SIGINT/SIGTERM flag the binary's run loop polls;
//! * [`cli`] — flag parsing and the entry point shared by the
//!   `netscatterd` binary and the `netscatter serve` subcommand.

pub mod cli;
pub mod client;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod serve;
pub mod session;
pub mod signals;

pub use serve::{Daemon, DaemonConfig};
