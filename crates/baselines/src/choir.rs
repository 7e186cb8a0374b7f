//! A model of Choir's fractional-FFT-bin disambiguation (§2.2, Fig. 4).
//!
//! Choir separates concurrent LoRa *radios* by the fractional FFT-bin
//! offsets their (900 MHz-scale) oscillator errors induce, with a resolution
//! of one tenth of a bin. Backscatter devices synthesize only a few MHz, so
//! their offsets are ~90× smaller and the whole population collapses into a
//! fraction of one bin — Choir cannot tell them apart. This module generates
//! the Fig. 4 CDFs.

use netscatter_channel::impairments::ImpairmentModel;
use netscatter_dsp::chirp::ChirpParams;
use netscatter_dsp::stats::EmpiricalCdf;
use rand::Rng;

/// Simulates the per-packet FFT-bin deviation (`ΔFFTbin`) of a population of
/// devices, as plotted in Fig. 4: each sample is the absolute bin offset a
/// packet's residual CFO induces for the given chirp configuration.
pub fn fft_bin_variation_cdf<R: Rng + ?Sized>(
    rng: &mut R,
    model: &ImpairmentModel,
    params: ChirpParams,
    num_devices: usize,
    packets_per_device: usize,
) -> EmpiricalCdf {
    let mut samples = Vec::with_capacity(num_devices * packets_per_device);
    for _ in 0..num_devices {
        let device = model.sample_device(rng);
        for _ in 0..packets_per_device {
            let packet = model.sample_packet(rng, &device);
            samples.push(params.frequency_offset_to_bins(packet.freq_offset_hz).abs());
        }
    }
    EmpiricalCdf::from_samples(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn radios_spread_over_bins_backscatter_does_not() {
        // Fig. 4: backscatter ΔFFTbin stays below ~1/3 bin while radios span
        // several bins at BW=500 kHz, SF=9.
        let params = ChirpParams::new(500e3, 9).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let tags = fft_bin_variation_cdf(
            &mut rng,
            &ImpairmentModel::cots_backscatter(),
            params,
            64,
            20,
        );
        let radios =
            fft_bin_variation_cdf(&mut rng, &ImpairmentModel::active_radio(), params, 64, 20);
        assert!(
            tags.quantile(0.99) < 0.34,
            "backscatter spread {}",
            tags.quantile(0.99)
        );
        assert!(
            radios.quantile(0.9) > 1.0,
            "radio spread {}",
            radios.quantile(0.9)
        );
        assert!(radios.quantile(0.5) > tags.quantile(0.5) * 5.0);
    }
}
