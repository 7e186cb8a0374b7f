//! The synthetic workload the `perf` experiment's `decode` table times: a
//! fully superposed concurrent round of ideal devices.

use netscatter_dsp::Complex64;
use netscatter_phy::distributed::OnOffModulator;
use netscatter_phy::params::PhyProfile;
use netscatter_phy::preamble::PreambleBuilder;

/// Builds a superposed round waveform (8-symbol preamble followed by
/// `payload_symbols` payload symbols) for `n_devices` ideal devices on
/// SKIP-spaced bins, each transmitting the deterministic
/// `(symbol + bin) % 3 != 0` bit pattern. Returns the waveform and the
/// assigned bins.
pub fn build_concurrent_round(
    profile: &PhyProfile,
    n_devices: usize,
    payload_symbols: usize,
) -> (Vec<Complex64>, Vec<usize>) {
    let params = profile.modulation.chirp();
    let n = params.num_bins();
    let spacing = (n / n_devices.max(1)).max(profile.skip);
    let bins: Vec<usize> = (0..n_devices).map(|i| (i * spacing) % n).collect();
    let mut stream = vec![Complex64::ZERO; (8 + payload_symbols) * n];
    for &bin in &bins {
        let preamble = PreambleBuilder::new(params, bin).build(0.0, 0.0, 1.0);
        for (acc, s) in stream.iter_mut().zip(preamble.iter()) {
            *acc += *s;
        }
        let modulator = OnOffModulator::new(params, bin);
        for (s, chunk) in stream[8 * n..].chunks_exact_mut(n).enumerate() {
            modulator.add_symbol((s + bin) % 3 != 0, 0.0, 0.0, 1.0, chunk);
        }
    }
    (stream, bins)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_has_preamble_plus_payload_layout() {
        let profile = PhyProfile::default();
        let n = profile.modulation.num_bins();
        let (stream, bins) = build_concurrent_round(&profile, 16, 4);
        assert_eq!(stream.len(), (8 + 4) * n);
        assert_eq!(bins.len(), 16);
        // Bins are distinct and SKIP-spaced.
        let mut sorted = bins.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 16);
        // The superposed round decodes every device cleanly.
        let rx = netscatter::receiver::ConcurrentReceiver::new(&profile).unwrap();
        let round = rx.decode_round(&stream, 0, &bins, 4).unwrap();
        assert_eq!(round.devices.len(), 16);
        for device in &round.devices {
            let expected: Vec<bool> = (0..4).map(|s| (s + device.chirp_bin) % 3 != 0).collect();
            assert_eq!(device.bits, expected, "bin {}", device.chirp_bin);
        }
    }
}
