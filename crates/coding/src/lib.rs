//! Coded link layer for the NetScatter reproduction.
//!
//! The sample-level simulator leaves a residual ~1e-2 per-device BER at 256
//! concurrent devices — raw BER is the wrong production metric, so this crate
//! supplies what a deployment actually runs on top of the PHY: forward error
//! correction and CRC-checked framing.
//!
//! * [`Codec`] — the block-codec contract ([`hamming::HammingCodec`],
//!   [`rs::RsCodec`], [`conv::ConvCodec`], and the pass-through
//!   [`IdentityCodec`]), each mapping a data bit-slice to an on-air bit-slice
//!   and back with an error-corrected, pass/fail-flagged [`Decoded`] result.
//! * [`frame`] — CRC-16-checked frames with sequence + length headers, one
//!   frame per device per round, with per-frame pass/fail.
//!
//! Everything here is deterministic, allocation-light, and free of floating
//! point in the encode/decode paths, so results are bit-identical at any
//! thread count.

pub mod conv;
pub mod crc;
pub mod frame;
pub mod gf256;
pub mod hamming;
pub mod rs;

use serde::{Deserialize, Serialize};

/// The coding scheme a scenario (or stream header) selects.
///
/// `None` is the seed behavior: raw payload bits on the air, no framing.
/// `Fountain` chooses the uncoded CRC framing an LT fountain outer code would
/// ride on; this repo does not implement the LT code itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CodingScheme {
    /// Raw bits on the air (seed behavior, no framing or CRC).
    None,
    /// Hamming(7,4): corrects 1 bit per 7-bit codeword, rate 4/7.
    Hamming,
    /// Shortened Reed-Solomon over GF(2^8) with 8 parity bytes (t = 4).
    Rs,
    /// Convolutional K=7 rate-1/2 (generators 171/133 octal), hard Viterbi.
    Conv,
    /// Uncoded CRC-16 frames, the framing an LT fountain outer code would
    /// carry (the LT code itself is not implemented here).
    Fountain,
}

impl CodingScheme {
    /// Every scheme, in CLI/report order.
    pub const ALL: [CodingScheme; 5] = [
        CodingScheme::None,
        CodingScheme::Hamming,
        CodingScheme::Rs,
        CodingScheme::Conv,
        CodingScheme::Fountain,
    ];

    /// The stable CLI / wire name.
    pub fn name(&self) -> &'static str {
        match self {
            CodingScheme::None => "none",
            CodingScheme::Hamming => "hamming",
            CodingScheme::Rs => "rs",
            CodingScheme::Conv => "conv",
            CodingScheme::Fountain => "fountain",
        }
    }

    /// Parses a CLI / wire name back to a scheme.
    pub fn parse(s: &str) -> Result<CodingScheme, String> {
        CodingScheme::ALL
            .into_iter()
            .find(|c| c.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = CodingScheme::ALL.iter().map(|c| c.name()).collect();
                format!(
                    "unknown coding scheme '{s}' (expected one of {})",
                    names.join("|")
                )
            })
    }
}

/// The result of one block decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decoded {
    /// The recovered data bits (length = `data_len(coded.len())`).
    pub bits: Vec<bool>,
    /// How many channel errors the decoder corrected (codec-specific unit:
    /// bits for Hamming/conv path metric, symbols for Reed-Solomon).
    pub corrected: usize,
    /// True when the decoder knows the block is unrecoverable. A `false`
    /// here does NOT guarantee correctness — short codes can miscorrect
    /// beyond their design distance, which is why every frame carries a
    /// CRC-16 backstop on top.
    pub failed: bool,
}

/// A block forward-error-correction codec: fixed-rate map from data bits to
/// coded (on-air) bits and back.
pub trait Codec: Send + Sync {
    /// Stable short name ("identity", "hamming", "rs", "conv").
    fn name(&self) -> &'static str;

    /// Data-bit granularity: `encode` accepts only multiples of this.
    fn data_granule(&self) -> usize;

    /// On-air bits produced for `data_bits` data bits (must be a multiple of
    /// [`Codec::data_granule`]).
    fn encoded_len(&self, data_bits: usize) -> usize;

    /// Inverse of [`Codec::encoded_len`]: the data bits recoverable from a
    /// coded block of `coded_bits`, or `None` when no valid geometry
    /// produces that length.
    fn data_len(&self, coded_bits: usize) -> Option<usize>;

    /// Encodes `data` (length a multiple of [`Codec::data_granule`]).
    fn encode(&self, data: &[bool]) -> Vec<bool>;

    /// Decodes a coded block of a length [`Codec::data_len`] accepts.
    fn decode(&self, coded: &[bool]) -> Decoded;
}

/// The pass-through codec: coded bits are the data bits (rate 1).
#[derive(Debug, Default, Clone, Copy)]
pub struct IdentityCodec;

impl Codec for IdentityCodec {
    fn name(&self) -> &'static str {
        "identity"
    }

    fn data_granule(&self) -> usize {
        1
    }

    fn encoded_len(&self, data_bits: usize) -> usize {
        data_bits
    }

    fn data_len(&self, coded_bits: usize) -> Option<usize> {
        Some(coded_bits)
    }

    fn encode(&self, data: &[bool]) -> Vec<bool> {
        data.to_vec()
    }

    fn decode(&self, coded: &[bool]) -> Decoded {
        Decoded {
            bits: coded.to_vec(),
            corrected: 0,
            failed: false,
        }
    }
}

/// The block codec a scheme's frames run through on the air.
///
/// `None` and `Fountain` both return the identity: `None` carries no inner
/// code at all, and `Fountain` frames fly uncoded (the LT outer code they
/// are framed for is not implemented in this repo).
pub fn block_codec(scheme: CodingScheme) -> Box<dyn Codec> {
    match scheme {
        CodingScheme::None | CodingScheme::Fountain => Box::new(IdentityCodec),
        CodingScheme::Hamming => Box::new(hamming::HammingCodec),
        CodingScheme::Rs => Box::new(rs::RsCodec::new()),
        CodingScheme::Conv => Box::new(conv::ConvCodec),
    }
}

/// Writes `value` into `out` as `width` bits, most-significant first.
pub fn push_bits(out: &mut Vec<bool>, value: u64, width: usize) {
    for i in (0..width).rev() {
        out.push((value >> i) & 1 == 1);
    }
}

/// Reads `width` bits (most-significant first) starting at `bits[0]`.
/// Panics if `bits` is shorter than `width`.
pub fn read_bits(bits: &[bool], width: usize) -> u64 {
    let mut value = 0u64;
    for &b in &bits[..width] {
        value = (value << 1) | b as u64;
    }
    value
}

/// Packs a bit slice (MSB-first per byte) into bytes; the length must be a
/// multiple of 8.
pub fn bits_to_bytes(bits: &[bool]) -> Vec<u8> {
    assert_eq!(bits.len() % 8, 0, "bit length must be byte-aligned");
    bits.chunks(8)
        .map(|chunk| read_bits(chunk, 8) as u8)
        .collect()
}

/// Unpacks bytes into bits, MSB-first per byte.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<bool> {
    let mut out = Vec::with_capacity(bytes.len() * 8);
    for &byte in bytes {
        push_bits(&mut out, byte as u64, 8);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_names_round_trip() {
        for scheme in CodingScheme::ALL {
            assert_eq!(CodingScheme::parse(scheme.name()), Ok(scheme));
        }
        assert!(CodingScheme::parse("turbo").is_err());
    }

    #[test]
    fn bit_packing_round_trips() {
        let bytes = vec![0x00, 0xff, 0xa5, 0x3c];
        assert_eq!(bits_to_bytes(&bytes_to_bits(&bytes)), bytes);
        let mut bits = Vec::new();
        push_bits(&mut bits, 0xbeef, 16);
        assert_eq!(read_bits(&bits, 16), 0xbeef);
    }

    #[test]
    fn identity_codec_is_transparent() {
        let codec = IdentityCodec;
        let data = vec![true, false, true, true];
        let coded = codec.encode(&data);
        assert_eq!(coded, data);
        let decoded = codec.decode(&coded);
        assert_eq!(decoded.bits, data);
        assert!(!decoded.failed);
        assert_eq!(decoded.corrected, 0);
    }

    #[test]
    fn block_codec_covers_every_scheme() {
        for scheme in CodingScheme::ALL {
            let codec = block_codec(scheme);
            let granule = codec.data_granule();
            assert!(granule >= 1);
            let data: Vec<bool> = (0..granule * 4).map(|i| i % 3 == 0).collect();
            let coded = codec.encode(&data);
            assert_eq!(coded.len(), codec.encoded_len(data.len()));
            assert_eq!(codec.data_len(coded.len()), Some(data.len()));
            let decoded = codec.decode(&coded);
            assert_eq!(decoded.bits, data, "{} clean round trip", codec.name());
            assert!(!decoded.failed);
        }
    }
}
