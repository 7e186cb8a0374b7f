//! Doppler shifts caused by device mobility.
//!
//! Fig. 15(a) of the paper shows that even at 5 m/s the Doppler-induced FFT
//! bin change stays well below one bin: at a 900 MHz carrier, 10 m/s produces
//! only 30 Hz of shift versus the ≈976 Hz bin spacing of the
//! (BW = 500 kHz, SF = 9) configuration. For a backscatter tag the reflection
//! doubles the Doppler shift (the wave traverses the moving path twice),
//! which is still negligible; both the one-way and round-trip variants are
//! provided.

use netscatter_dsp::units::SPEED_OF_LIGHT;

/// One-way Doppler shift in hertz for a radial speed (m/s) at a carrier
/// frequency (Hz).
fn doppler_shift_hz(speed_mps: f64, carrier_hz: f64) -> f64 {
    speed_mps / SPEED_OF_LIGHT * carrier_hz
}

/// Round-trip Doppler shift seen by a monostatic backscatter reader: the
/// moving tag shifts both the illuminating wave and the reflected wave.
pub fn backscatter_doppler_shift_hz(speed_mps: f64, carrier_hz: f64) -> f64 {
    2.0 * doppler_shift_hz(speed_mps, carrier_hz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netscatter_dsp::chirp::ChirpParams;

    #[test]
    fn paper_example_10mps_at_900mhz_is_30hz() {
        let shift = doppler_shift_hz(10.0, 900e6);
        assert!((shift - 30.0).abs() < 0.1, "got {shift} Hz");
    }

    #[test]
    fn backscatter_doppler_is_twice_one_way() {
        assert!(
            (backscatter_doppler_shift_hz(3.0, 900e6) - 2.0 * doppler_shift_hz(3.0, 900e6)).abs()
                < 1e-12
        );
    }

    #[test]
    fn doppler_stays_below_one_fft_bin_for_pedestrian_speeds() {
        // Fig. 15(a): static, 1, 3, 5 m/s all stay far below one bin.
        let params = ChirpParams::new(500e3, 9).unwrap();
        for speed in [0.0, 1.0, 3.0, 5.0, 10.0] {
            let shift = backscatter_doppler_shift_hz(speed, 900e6);
            let bins = params.frequency_offset_to_bins(shift);
            assert!(bins < 0.1, "{speed} m/s produced {bins} bins of shift");
        }
    }

    #[test]
    fn zero_speed_gives_zero_shift() {
        assert_eq!(doppler_shift_hz(0.0, 900e6), 0.0);
    }

    #[test]
    fn negative_speed_gives_negative_shift() {
        assert!(doppler_shift_hz(-5.0, 900e6) < 0.0);
    }
}
