//! Property-based contracts for the coded link layer.
//!
//! The three codec guarantees the satellite pins down:
//! 1. clean payloads round-trip bit-identically through every codec;
//! 2. random error patterns up to each code's guaranteed capability are
//!    corrected exactly;
//! 3. patterns beyond the capability are *flagged*, never silently
//!    delivered as corrupt application data — at the codec level where the
//!    code detects it, and at the frame level by the CRC-16 backstop for
//!    codes (Hamming, convolutional) that can miscorrect.
//!
//! Plus the framing contract: a frame carries any data length up to its
//! field width exactly.

use netscatter_coding::conv::ConvCodec;
use netscatter_coding::frame::FrameCodec;
use netscatter_coding::hamming::HammingCodec;
use netscatter_coding::rs::{RsCodec, RS_PARITY_BYTES};
use netscatter_coding::{block_codec, Codec, CodingScheme};
use proptest::prelude::*;

/// A payload_bits geometry valid for every framed scheme: 16 data bits.
fn framed_payload_bits(scheme: CodingScheme) -> usize {
    match scheme {
        CodingScheme::None => unreachable!("none is not framed"),
        CodingScheme::Hamming => 84,
        CodingScheme::Rs => 112,
        CodingScheme::Conv => 108,
        CodingScheme::Fountain => 48,
    }
}

fn scheme_from_index(i: usize) -> CodingScheme {
    [
        CodingScheme::Hamming,
        CodingScheme::Rs,
        CodingScheme::Conv,
        CodingScheme::Fountain,
    ][i % 4]
}

fn bits_from_seed(seed: u64, len: usize) -> Vec<bool> {
    (0..len)
        .map(|i| (seed >> (i % 61)) & 1 == (i as u64 / 61) % 2)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Contract 1: clean round trips are bit-identical for every codec at
    /// arbitrary granule-aligned lengths.
    #[test]
    fn codecs_round_trip_clean_payloads(scheme_i in 0usize..4, granules in 3usize..40, seed in 0u64..u64::MAX) {
        let codec = block_codec(scheme_from_index(scheme_i));
        let data = bits_from_seed(seed, granules * codec.data_granule());
        let coded = codec.encode(&data);
        prop_assert_eq!(coded.len(), codec.encoded_len(data.len()));
        let decoded = codec.decode(&coded);
        prop_assert!(!decoded.failed);
        prop_assert_eq!(decoded.corrected, 0);
        prop_assert_eq!(decoded.bits, data);
    }

    /// Contract 2 (Hamming): one error per 7-bit codeword always corrects.
    #[test]
    fn hamming_corrects_one_error_per_codeword(words in 2usize..30, seed in 0u64..u64::MAX) {
        let codec = HammingCodec;
        let data = bits_from_seed(seed, words * 4);
        let mut coded = codec.encode(&data);
        for w in 0..words {
            let flip = w * 7 + (seed as usize + w) % 7;
            coded[flip] = !coded[flip];
        }
        let decoded = codec.decode(&coded);
        prop_assert!(!decoded.failed);
        prop_assert_eq!(decoded.corrected, words);
        prop_assert_eq!(decoded.bits, data);
    }

    /// Contract 2 (Reed-Solomon): any ≤ t = 4 byte errors correct exactly.
    #[test]
    fn rs_corrects_up_to_t_byte_errors(msg_bytes in 5usize..40, errors in 1usize..=RS_PARITY_BYTES / 2, seed in 0u64..u64::MAX) {
        let codec = RsCodec::new();
        let data = bits_from_seed(seed, msg_bytes * 8);
        let mut coded = codec.encode(&data);
        let total_bytes = coded.len() / 8;
        let mut hit = Vec::new();
        let mut cursor = seed;
        while hit.len() < errors {
            cursor = cursor.wrapping_mul(6364136223846793005).wrapping_add(1);
            let byte = (cursor >> 33) as usize % total_bytes;
            if !hit.contains(&byte) {
                hit.push(byte);
            }
        }
        for &byte in &hit {
            let bit = byte * 8 + (cursor as usize + byte) % 8;
            coded[bit] = !coded[bit];
        }
        let decoded = codec.decode(&coded);
        prop_assert!(!decoded.failed);
        prop_assert_eq!(decoded.corrected, errors);
        prop_assert_eq!(decoded.bits, data);
    }

    /// Contract 3 (Reed-Solomon): the decoder never hands back a block it
    /// claims corrected unless it is a self-consistent codeword, and ≥ 5
    /// byte errors are overwhelmingly flagged as failures.
    #[test]
    fn rs_flags_beyond_capability(seed in 0u64..u64::MAX) {
        let codec = RsCodec::new();
        let data = bits_from_seed(seed, 24 * 8);
        let clean = codec.encode(&data);
        let total_bytes = clean.len() / 8;
        let mut cursor = seed | 1;
        let mut silent_corruptions = 0;
        for trial in 0..16u64 {
            let mut coded = clean.clone();
            let mut hit = Vec::new();
            while hit.len() < 6 {
                cursor = cursor.wrapping_mul(6364136223846793005).wrapping_add(trial);
                let byte = (cursor >> 33) as usize % total_bytes;
                if !hit.contains(&byte) {
                    hit.push(byte);
                }
            }
            for &byte in &hit {
                coded[byte * 8 + (cursor as usize + byte) % 8] ^= true;
            }
            let decoded = codec.decode(&coded);
            if !decoded.failed && decoded.bits != data {
                // Miscorrection beyond t is possible only onto another true
                // codeword — re-encoding must reproduce what was decoded.
                silent_corruptions += 1;
            }
        }
        // 6 errors land ≥ 2 beyond t; a correct decoder flags essentially
        // all of them (miscorrection odds are ~1e-4 per trial).
        prop_assert_eq!(silent_corruptions, 0);
    }

    /// Contract 2 (convolutional): isolated single errors far apart always
    /// correct (free distance 10 ⇒ ≥ 4 scattered flips are safe).
    #[test]
    fn conv_corrects_scattered_errors(data_bits in 60usize..200, seed in 0u64..u64::MAX) {
        let codec = ConvCodec;
        let data = bits_from_seed(seed, data_bits);
        let mut coded = codec.encode(&data);
        let window = coded.len() / 4;
        for w in 0..4 {
            let pos = w * window + (seed as usize >> (w * 7)) % (window / 2);
            coded[pos] = !coded[pos];
        }
        let decoded = codec.decode(&coded);
        prop_assert!(!decoded.failed);
        prop_assert_eq!(decoded.corrected, 4);
        prop_assert_eq!(decoded.bits, data);
    }

    /// Contract 3, frame level: arbitrary error patterns — any density, any
    /// scheme — either deliver the exact original data with a verified CRC
    /// or are flagged as failed frames. Never silent corruption.
    #[test]
    fn frames_never_silently_corrupt(scheme_i in 0usize..4, flips in 1usize..30, seed in 0u64..u64::MAX) {
        let scheme = scheme_from_index(scheme_i);
        let codec = FrameCodec::new(scheme, framed_payload_bits(scheme)).unwrap();
        let data = bits_from_seed(seed, codec.data_bits());
        let mut raw = codec.encode_frame((seed % 256) as u8, &data);
        let mut cursor = seed | 1;
        for _ in 0..flips {
            cursor = cursor.wrapping_mul(6364136223846793005).wrapping_add(13);
            let pos = (cursor >> 33) as usize % raw.len();
            raw[pos] = !raw[pos];
        }
        let out = codec.decode_frame(&raw);
        if out.crc_ok {
            prop_assert_eq!(out.seq, (seed % 256) as u8);
            prop_assert_eq!(out.data, data);
        }
    }

    /// Framing contract: the length header carries any data length up to
    /// the field width, so a ragged tail survives the round trip exactly.
    #[test]
    fn frames_carry_any_data_length(scheme_i in 0usize..4, len in 0usize..=16, seq in 0usize..256, seed in 0u64..u64::MAX) {
        let scheme = scheme_from_index(scheme_i);
        let codec = FrameCodec::new(scheme, framed_payload_bits(scheme)).unwrap();
        let data = bits_from_seed(seed, len);
        let out = codec.decode_frame(&codec.encode_frame(seq as u8, &data));
        prop_assert!(out.crc_ok);
        prop_assert_eq!(out.seq, seq as u8);
        prop_assert_eq!(out.data, data);
    }
}
