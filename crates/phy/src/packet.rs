//! Link-layer packet framing: payload serialization, CRC, and the symbol /
//! time accounting used by the rate and latency experiments.
//!
//! The evaluation uses a 40-bit payload+CRC (Figs. 18–19), a 5-byte payload
//! for the PHY-rate experiment (Fig. 17), and an 8-symbol preamble. The
//! [`PacketTiming`] helper turns those counts into on-air durations for
//! NetScatter (one ON-OFF bit per symbol), which is what the Fig. 17–19
//! accounting needs.

use crate::params::ModulationConfig;
use crate::preamble::PREAMBLE_SYMBOLS;
use serde::{Deserialize, Serialize};

/// CRC-8 (polynomial 0x07, initial value 0x00) over a byte slice — the
/// checksum appended to every backscatter payload.
pub fn crc8(data: &[u8]) -> u8 {
    let mut crc: u8 = 0;
    for &byte in data {
        crc ^= byte;
        for _ in 0..8 {
            crc = if crc & 0x80 != 0 {
                (crc << 1) ^ 0x07
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// Expands bytes into bits, most significant bit first.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<bool> {
    bytes
        .iter()
        .flat_map(|b| (0..8).map(move |i| (b >> (7 - i)) & 1 == 1))
        .collect()
}

/// Packs bits (MSB first) into bytes; the last byte is zero-padded.
pub fn bits_to_bytes(bits: &[bool]) -> Vec<u8> {
    bits.chunks(8)
        .map(|chunk| {
            chunk.iter().enumerate().fold(
                0u8,
                |acc, (i, b)| if *b { acc | (1 << (7 - i)) } else { acc },
            )
        })
        .collect()
}

/// A link-layer packet: payload bytes protected by a CRC-8.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkPacket {
    /// Application payload bytes.
    pub payload: Vec<u8>,
}

impl LinkPacket {
    /// Creates a packet with the given payload.
    pub fn new(payload: Vec<u8>) -> Self {
        Self { payload }
    }

    /// Serializes the packet to bits: payload followed by CRC-8.
    pub fn to_bits(&self) -> Vec<bool> {
        let mut bytes = self.payload.clone();
        bytes.push(crc8(&self.payload));
        bytes_to_bits(&bytes)
    }

    /// Total bit count including the CRC.
    pub fn bit_len(&self) -> usize {
        (self.payload.len() + 1) * 8
    }

    /// Parses bits back into a packet, verifying the trailing CRC. Returns
    /// `None` if the length is not a whole number of bytes (≥ 2) or the CRC
    /// does not match.
    pub fn from_bits(bits: &[bool]) -> Option<Self> {
        if bits.len() < 16 || bits.len() % 8 != 0 {
            return None;
        }
        let bytes = bits_to_bytes(bits);
        let (payload, crc) = bytes.split_at(bytes.len() - 1);
        if crc8(payload) == crc[0] {
            Some(Self::new(payload.to_vec()))
        } else {
            None
        }
    }
}

/// On-air timing of one uplink packet under a given modulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PacketTiming {
    /// Number of preamble symbols (8 for both schemes).
    pub preamble_symbols: usize,
    /// Number of payload symbols.
    pub payload_symbols: usize,
    /// Symbol duration in seconds.
    pub symbol_duration_s: f64,
}

impl PacketTiming {
    /// Timing of a NetScatter packet carrying `payload_bits` (one ON-OFF bit
    /// per symbol).
    pub fn netscatter(config: &ModulationConfig, payload_bits: usize) -> Self {
        Self {
            preamble_symbols: PREAMBLE_SYMBOLS,
            payload_symbols: payload_bits,
            symbol_duration_s: config.symbol_duration_s(),
        }
    }

    /// Total number of symbols.
    fn total_symbols(&self) -> usize {
        self.preamble_symbols + self.payload_symbols
    }

    /// Total on-air duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.total_symbols() as f64 * self.symbol_duration_s
    }

    /// Payload-only duration in seconds (the denominator of the PHY-rate
    /// metric, which excludes overheads).
    pub fn payload_duration_s(&self) -> f64 {
        self.payload_symbols as f64 * self.symbol_duration_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc8_known_vectors() {
        assert_eq!(crc8(&[]), 0x00);
        assert_eq!(crc8(&[0x00]), 0x00);
        // CRC-8/ATM ("123456789") = 0xF4.
        assert_eq!(crc8(b"123456789"), 0xF4);
    }

    #[test]
    fn bits_bytes_round_trip() {
        let bytes = vec![0xDE, 0xAD, 0xBE, 0xEF, 0x01];
        let bits = bytes_to_bits(&bytes);
        assert_eq!(bits.len(), 40);
        assert_eq!(bits_to_bytes(&bits), bytes);
        // MSB first: 0x80 -> true followed by seven falses.
        assert!(bytes_to_bits(&[0x80])[0]);
        assert!(bytes_to_bits(&[0x80])[1..].iter().all(|b| !b));
    }

    #[test]
    fn packet_round_trip_and_crc_protection() {
        let pkt = LinkPacket::new(vec![1, 2, 3, 4]);
        let bits = pkt.to_bits();
        assert_eq!(bits.len(), 40);
        assert_eq!(pkt.bit_len(), 40);
        assert_eq!(LinkPacket::from_bits(&bits), Some(pkt.clone()));
        // Flip one payload bit: CRC must reject.
        let mut corrupted = bits.clone();
        corrupted[5] = !corrupted[5];
        assert_eq!(LinkPacket::from_bits(&corrupted), None);
        // Flip one CRC bit: also rejected.
        let mut corrupted = bits;
        let last = corrupted.len() - 1;
        corrupted[last] = !corrupted[last];
        assert_eq!(LinkPacket::from_bits(&corrupted), None);
    }

    #[test]
    fn from_bits_rejects_bad_lengths() {
        assert_eq!(LinkPacket::from_bits(&[]), None);
        assert_eq!(LinkPacket::from_bits(&[true; 8]), None);
        assert_eq!(LinkPacket::from_bits(&[true; 23]), None);
    }

    #[test]
    fn netscatter_timing_uses_one_bit_per_symbol() {
        let cfg = ModulationConfig::paper_default();
        let t = PacketTiming::netscatter(&cfg, 40);
        assert_eq!(t.preamble_symbols, 8);
        assert_eq!(t.payload_symbols, 40);
        assert_eq!(t.total_symbols(), 48);
        // 48 symbols * 1.024 ms ≈ 49.2 ms.
        assert!((t.duration_s() - 48.0 * 1.024e-3).abs() < 1e-9);
        assert!((t.payload_duration_s() - 40.0 * 1.024e-3).abs() < 1e-9);
    }
}
