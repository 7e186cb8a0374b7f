//! Power and level unit conversions.
//!
//! Every experiment in the paper is specified in dB quantities (SNR, power
//! differences, receiver sensitivity in dBm), while the signal chain works in
//! linear power. This module keeps those conversions in one well-tested
//! place, together with the thermal-noise helpers needed to place the noise
//! floor for a given chirp bandwidth.

/// Boltzmann constant in joules per kelvin.
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Reference temperature (kelvin) used for thermal-noise computations.
pub const ROOM_TEMPERATURE_K: f64 = 290.0;

/// Converts a power ratio in decibels to a linear ratio.
#[inline]
pub fn db_to_linear(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts a linear power ratio to decibels.
///
/// Returns negative infinity for non-positive inputs, mirroring the
/// mathematical limit, so callers can clamp for display.
#[inline]
pub fn linear_to_db(linear: f64) -> f64 {
    if linear <= 0.0 {
        f64::NEG_INFINITY
    } else {
        10.0 * linear.log10()
    }
}

/// Converts a power in watts to dBm.
#[inline]
fn watts_to_dbm(watts: f64) -> f64 {
    linear_to_db(watts / 1e-3)
}

/// Converts an amplitude (voltage) ratio in decibels to a linear ratio.
#[inline]
pub fn db_to_amplitude(db: f64) -> f64 {
    10f64.powf(db / 20.0)
}

/// Thermal noise power in watts for a given bandwidth and noise figure.
///
/// `N = k·T·B·F` where `F` is the linear noise figure of the receiver.
/// A USRP-class front end has a noise figure of roughly 5–8 dB; the default
/// used throughout the workspace is defined by
/// [`DEFAULT_NOISE_FIGURE_DB`].
#[inline]
fn thermal_noise_watts(bandwidth_hz: f64, noise_figure_db: f64) -> f64 {
    BOLTZMANN * ROOM_TEMPERATURE_K * bandwidth_hz * db_to_linear(noise_figure_db)
}

/// Thermal noise power in dBm for a given bandwidth and noise figure.
///
/// At 500 kHz and a 6 dB noise figure this is ≈ −111 dBm, consistent with
/// the −123 dBm sensitivity at SF = 9 reported in Table 1 of the paper once
/// the ~12.5 dB CSS processing gain below the noise floor is accounted for.
#[inline]
pub fn thermal_noise_dbm(bandwidth_hz: f64, noise_figure_db: f64) -> f64 {
    watts_to_dbm(thermal_noise_watts(bandwidth_hz, noise_figure_db))
}

/// Default receiver noise figure (dB) used by the simulations.
pub const DEFAULT_NOISE_FIGURE_DB: f64 = 6.0;

/// Speed of light in metres per second, used by propagation-delay and
/// Doppler computations.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_linear_round_trip() {
        for db in [-120.0, -35.0, -3.0, 0.0, 3.0, 10.0, 30.0] {
            let lin = db_to_linear(db);
            assert!(
                (linear_to_db(lin) - db).abs() < 1e-9,
                "round trip failed at {db}"
            );
        }
    }

    #[test]
    fn known_db_values() {
        assert!((db_to_linear(3.0) - 1.995).abs() < 0.01);
        assert!((db_to_linear(10.0) - 10.0).abs() < 1e-12);
        assert!((db_to_linear(0.0) - 1.0).abs() < 1e-12);
        assert!((linear_to_db(100.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn linear_to_db_of_zero_is_neg_infinity() {
        assert_eq!(linear_to_db(0.0), f64::NEG_INFINITY);
        assert_eq!(linear_to_db(-1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn dbm_watt_round_trip() {
        assert!((watts_to_dbm(1e-3) - 0.0).abs() < 1e-12);
        for dbm in [-120.0, -49.0, 0.0, 30.0] {
            assert!((watts_to_dbm(1e-3 * db_to_linear(dbm)) - dbm).abs() < 1e-9);
        }
    }

    #[test]
    fn amplitude_db_uses_20log10() {
        assert!((db_to_amplitude(20.0) - 10.0).abs() < 1e-12);
        // amplitude db of x equals power db of x^2
        let x = 3.7;
        assert!((db_to_amplitude(linear_to_db(x * x)) - x).abs() < 1e-9);
    }

    #[test]
    fn thermal_noise_floor_matches_textbook_value() {
        // kTB at 290 K is -174 dBm/Hz; over 500 kHz that is about -117 dBm,
        // plus a 6 dB noise figure -> about -111 dBm.
        let n = thermal_noise_dbm(500e3, DEFAULT_NOISE_FIGURE_DB);
        assert!(
            (n - (-111.0)).abs() < 1.0,
            "noise floor {n} dBm not near -111 dBm"
        );
        // 1 Hz reference.
        let per_hz = thermal_noise_dbm(1.0, 0.0);
        assert!((per_hz - (-174.0)).abs() < 0.5, "per-Hz floor {per_hz}");
    }

    #[test]
    fn thermal_noise_scales_linearly_with_bandwidth() {
        let a = thermal_noise_watts(125e3, 6.0);
        let b = thermal_noise_watts(500e3, 6.0);
        assert!((b / a - 4.0).abs() < 1e-9);
    }
}
