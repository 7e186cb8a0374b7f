//! The serial session: one stream's whole chain on the caller's thread.
//!
//! A [`Session`] takes the wire's `cf32le` bytes split anywhere, mid-sample
//! included, through [`Cf32Decoder`] → [`StreamDetector`] → [`decode_span`]
//! (the engine workers' span decode) → [`FrameEmitter`] (the serving loop's
//! FEC and frame line). Detection is chunk-size invariant, so its lines are
//! the ones a daemon that kept up with the stream sends for those bytes:
//! the stress harness and the daemon tests use it as their reference.

use crate::protocol::{Cf32Decoder, FrameEmitter};
use netscatter_coding::frame::FrameCodec;
use netscatter_dsp::fft::FftError;
use netscatter_gateway::{decode_span, DecodedPacket, GatewayConfig, StreamDetector};

/// One stream decoded serially, from wire bytes to frame lines.
#[derive(Debug)]
pub struct Session {
    decoder: Cf32Decoder,
    detector: StreamDetector,
    emitter: FrameEmitter,
    config: GatewayConfig,
}

/// How a [`Session`]'s stream ended: the counts a daemon's `end` record
/// reports as `truncated` and `trailing_bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionEnd {
    /// Packets cut off by the end of the stream.
    pub truncated: usize,
    /// Bytes of an incomplete trailing sample.
    pub trailing_bytes: usize,
}

impl Session {
    /// A session for records named `stream`, over the validated geometry
    /// and codec [`crate::protocol::stream_config`] returns.
    pub fn new(
        stream: &str,
        config: &GatewayConfig,
        codec: Option<FrameCodec>,
    ) -> Result<Self, FftError> {
        Ok(Self {
            decoder: Cf32Decoder::new(),
            detector: StreamDetector::new(config)?,
            emitter: FrameEmitter::new(stream, codec),
            config: config.clone(),
        })
    }

    /// Feeds wire bytes, appends one frame line to `out` for each packet
    /// they complete, and returns those packets in stream order.
    pub fn push(&mut self, bytes: &[u8], out: &mut String) -> Result<Vec<DecodedPacket>, FftError> {
        let (mut samples, mut spans) = (Vec::new(), Vec::new());
        self.decoder.push(bytes, &mut samples);
        self.detector.push(&samples, &mut spans);
        let cfg = &self.config;
        spans
            .iter()
            .map(|span| {
                let receiver = self.detector.receiver();
                let packet = decode_span(receiver, span, &cfg.assigned_bins, cfg.payload_symbols)?;
                out.push_str(self.emitter.emit(&packet).0);
                Ok(packet)
            })
            .collect()
    }

    /// Ends the stream.
    pub fn finish(mut self) -> SessionEnd {
        self.detector.finish();
        SessionEnd {
            truncated: self.detector.truncated(),
            trailing_bytes: self.decoder.pending_bytes(),
        }
    }
}
