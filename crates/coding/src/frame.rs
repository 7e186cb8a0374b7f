//! CRC-16-checked link-layer frames.
//!
//! On-air layout (before the inner FEC): an 8-bit sequence number, an 8-bit
//! valid-data-bit count, a fixed-width data field, and a CRC-16 over all of
//! the preceding bits. The data field width is pinned by the scenario's
//! `payload_bits` (the on-air bits per device per round) through the
//! selected codec's rate, so every round carries exactly one frame per
//! device and the whole geometry is validated once, up front, with a clear
//! error instead of silent truncation downstream.

use crate::crc::{crc16, CRC_BITS};
use crate::{block_codec, push_bits, read_bits, Codec, CodingScheme};

/// Width of the frame sequence-number field.
pub const SEQ_BITS: usize = 8;

/// Width of the valid-data-bit-count field.
pub const LEN_BITS: usize = 8;

/// Header + CRC overhead carried by every frame.
pub const FRAME_OVERHEAD_BITS: usize = SEQ_BITS + LEN_BITS + CRC_BITS;

/// Smallest useful data field.
pub const MIN_DATA_BITS: usize = 8;

/// Largest data field the 8-bit length header can describe.
pub const MAX_DATA_BITS: usize = (1 << LEN_BITS) - 1;

/// The outcome of decoding one on-air frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameOutcome {
    /// True when the inner decode succeeded and the CRC-16 verified; only
    /// then are `seq` and `data` trustworthy.
    pub crc_ok: bool,
    /// Parsed sequence number (best-effort when `crc_ok` is false).
    pub seq: u8,
    /// The valid data bits (length-header-trimmed; best-effort junk when
    /// `crc_ok` is false).
    pub data: Vec<bool>,
    /// Channel errors the inner codec corrected (codec-specific unit).
    pub corrected: usize,
}

impl FrameOutcome {
    fn invalid() -> Self {
        FrameOutcome {
            crc_ok: false,
            seq: 0,
            data: Vec::new(),
            corrected: 0,
        }
    }
}

/// Per-scheme frame geometry + the inner codec: encodes/decodes exactly one
/// frame per `payload_bits`-bit on-air block.
pub struct FrameCodec {
    scheme: CodingScheme,
    codec: Box<dyn Codec>,
    payload_bits: usize,
    data_bits: usize,
}

impl std::fmt::Debug for FrameCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameCodec")
            .field("scheme", &self.scheme)
            .field("payload_bits", &self.payload_bits)
            .field("data_bits", &self.data_bits)
            .finish()
    }
}

/// What `payload_bits` must look like for a scheme, for error messages and
/// for pickers that need a valid operating point.
fn geometry_help(scheme: CodingScheme) -> &'static str {
    match scheme {
        CodingScheme::None => "no framing (any payload_bits)",
        CodingScheme::Hamming => {
            "a multiple of 7 whose decoded 4/7 rate leaves 8..=255 data bits \
             after the 32-bit header/CRC (70..=497)"
        }
        CodingScheme::Rs => {
            "a multiple of 8 spanning 13..=43 bytes: 2-byte header + data + \
             2-byte CRC + 8 Reed-Solomon parity bytes (104..=344)"
        }
        CodingScheme::Conv => {
            "an even count whose rate-1/2 decode (minus 6 tail bits) leaves \
             8..=255 data bits after the 32-bit header/CRC (92..=586)"
        }
        CodingScheme::Fountain => {
            "at least the 32-bit header/CRC plus 8..=255 data bits (40..=287)"
        }
    }
}

/// The smallest valid `payload_bits` for each framed scheme (handy default
/// for harnesses that pick a geometry automatically).
pub fn min_payload_bits(scheme: CodingScheme) -> usize {
    match scheme {
        CodingScheme::None => 1,
        CodingScheme::Hamming => 70,
        CodingScheme::Rs => 104,
        CodingScheme::Conv => 92,
        CodingScheme::Fountain => FRAME_OVERHEAD_BITS + MIN_DATA_BITS,
    }
}

impl FrameCodec {
    /// Validates the scheme × `payload_bits` geometry and builds the codec.
    ///
    /// `payload_bits` is the on-air bit budget per device per round; the
    /// frame (header + data + CRC, then the inner FEC) must fill it exactly.
    pub fn new(scheme: CodingScheme, payload_bits: usize) -> Result<FrameCodec, String> {
        if scheme == CodingScheme::None {
            return Err("coding 'none' carries raw bits, not frames".into());
        }
        let codec = block_codec(scheme);
        let framed_bits = codec.data_len(payload_bits).ok_or_else(|| {
            format!(
                "coding '{}' cannot fill {payload_bits} on-air bits: payload_bits must be {}",
                scheme.name(),
                geometry_help(scheme)
            )
        })?;
        let data_bits = framed_bits.saturating_sub(FRAME_OVERHEAD_BITS);
        if !(MIN_DATA_BITS..=MAX_DATA_BITS).contains(&data_bits) {
            return Err(format!(
                "coding '{}' at {payload_bits} on-air bits leaves {data_bits} data bits per \
                 frame (need {MIN_DATA_BITS}..={MAX_DATA_BITS}): payload_bits must be {}",
                scheme.name(),
                geometry_help(scheme)
            ));
        }
        Ok(FrameCodec {
            scheme,
            codec,
            payload_bits,
            data_bits,
        })
    }

    /// The scheme this codec frames for.
    pub fn scheme(&self) -> CodingScheme {
        self.scheme
    }

    /// On-air bits per frame (= the scenario's `payload_bits`).
    pub fn payload_bits(&self) -> usize {
        self.payload_bits
    }

    /// Application data bits carried per frame.
    pub fn data_bits(&self) -> usize {
        self.data_bits
    }

    /// Code rate actually achieved: data bits out of on-air bits.
    pub fn rate(&self) -> f64 {
        self.data_bits as f64 / self.payload_bits as f64
    }

    /// Encodes one frame. `data` must be at most [`FrameCodec::data_bits`]
    /// long; shorter payloads are zero-padded and the length header records
    /// the valid count.
    pub fn encode_frame(&self, seq: u8, data: &[bool]) -> Vec<bool> {
        assert!(
            data.len() <= self.data_bits,
            "frame data {} exceeds the {}-bit field",
            data.len(),
            self.data_bits
        );
        let mut framed = Vec::with_capacity(self.data_bits + FRAME_OVERHEAD_BITS);
        push_bits(&mut framed, seq as u64, SEQ_BITS);
        push_bits(&mut framed, data.len() as u64, LEN_BITS);
        framed.extend_from_slice(data);
        framed.extend(std::iter::repeat(false).take(self.data_bits - data.len()));
        let crc = crc16(&framed);
        push_bits(&mut framed, crc as u64, CRC_BITS);
        let coded = self.codec.encode(&framed);
        debug_assert_eq!(coded.len(), self.payload_bits);
        coded
    }

    /// Decodes one on-air frame of exactly [`FrameCodec::payload_bits`]
    /// bits (anything else is an immediate CRC failure).
    pub fn decode_frame(&self, raw: &[bool]) -> FrameOutcome {
        if raw.len() != self.payload_bits {
            return FrameOutcome::invalid();
        }
        let decoded = self.codec.decode(raw);
        let framed = &decoded.bits;
        if framed.len() != self.data_bits + FRAME_OVERHEAD_BITS {
            return FrameOutcome::invalid();
        }
        let seq = read_bits(framed, SEQ_BITS) as u8;
        let len = read_bits(&framed[SEQ_BITS..], LEN_BITS) as usize;
        let body = self.data_bits + SEQ_BITS + LEN_BITS;
        let crc = read_bits(&framed[body..], CRC_BITS) as u16;
        let crc_ok = !decoded.failed && len <= self.data_bits && crc16(&framed[..body]) == crc;
        let data = framed[SEQ_BITS + LEN_BITS..body][..len.min(self.data_bits)].to_vec();
        FrameOutcome {
            crc_ok,
            seq,
            data,
            corrected: decoded.corrected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Valid payload_bits examples per framed scheme.
    pub(crate) fn valid_payload_bits(scheme: CodingScheme) -> usize {
        match scheme {
            CodingScheme::None => 40,
            CodingScheme::Hamming => 84,  // 48 framed bits, d = 16
            CodingScheme::Rs => 112,      // 14 bytes, d = 16
            CodingScheme::Conv => 108,    // 48 framed bits, d = 16
            CodingScheme::Fountain => 48, // identity, d = 16
        }
    }

    #[test]
    fn geometry_validation_accepts_and_rejects() {
        for scheme in [
            CodingScheme::Hamming,
            CodingScheme::Rs,
            CodingScheme::Conv,
            CodingScheme::Fountain,
        ] {
            let ok = FrameCodec::new(scheme, valid_payload_bits(scheme));
            assert!(ok.is_ok(), "{scheme:?}");
            assert_eq!(ok.unwrap().data_bits(), 16);
            let min = FrameCodec::new(scheme, min_payload_bits(scheme));
            assert!(min.is_ok(), "{scheme:?} at its documented minimum");
            // The default scenario's 40 raw bits fit no FEC geometry.
            if scheme != CodingScheme::Fountain {
                let err = FrameCodec::new(scheme, 40).unwrap_err();
                assert!(err.contains("payload_bits"), "{err}");
            }
        }
        assert!(FrameCodec::new(CodingScheme::None, 40).is_err());
        // 41 is not a multiple of anything useful for Hamming.
        assert!(FrameCodec::new(CodingScheme::Hamming, 41).is_err());
        // Too small: geometry divides but leaves < 8 data bits.
        assert!(FrameCodec::new(CodingScheme::Hamming, 63).is_err());
    }

    #[test]
    fn frames_round_trip_per_scheme() {
        for scheme in [
            CodingScheme::Hamming,
            CodingScheme::Rs,
            CodingScheme::Conv,
            CodingScheme::Fountain,
        ] {
            let codec = FrameCodec::new(scheme, valid_payload_bits(scheme)).unwrap();
            let data: Vec<bool> = (0..12).map(|i| i % 3 != 1).collect();
            let raw = codec.encode_frame(77, &data);
            assert_eq!(raw.len(), codec.payload_bits());
            let out = codec.decode_frame(&raw);
            assert!(out.crc_ok, "{scheme:?}");
            assert_eq!(out.seq, 77);
            assert_eq!(out.data, data);
        }
    }

    #[test]
    fn corrupted_frames_fail_crc_not_silently() {
        let codec = FrameCodec::new(CodingScheme::Fountain, 48).unwrap();
        let data: Vec<bool> = (0..16).map(|i| i % 2 == 0).collect();
        let mut raw = codec.encode_frame(3, &data);
        raw[20] = !raw[20];
        let out = codec.decode_frame(&raw);
        assert!(!out.crc_ok, "uncoded flip must fail the CRC");
        // Wrong length is an immediate failure.
        assert!(!codec.decode_frame(&raw[..47]).crc_ok);
    }
}
