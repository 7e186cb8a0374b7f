//! Typed, composable experiment scenarios.
//!
//! A [`Scenario`] declaratively bundles everything an experiment run depends
//! on: the population (device count and placement), the channel stack
//! (multipath profile, fading, Doppler, CFO/jitter, noise — selected through
//! a named [`ChannelProfile`]), the delivery [`Fidelity`], the Monte-Carlo
//! seed, the worker-thread bound, the run [`Scale`], the per-device payload
//! size, the streaming-gateway parameters and the link-layer coding. The
//! experiment drivers in [`crate::experiments`] consume whichever subset of
//! these fields they are parameterized by (declared per experiment in
//! [`crate::experiment::Experiment::fields`]); the `netscatter` CLI builds
//! scenarios from flags, and `netscatter sweep` iterates grids over any
//! field by name through [`Scenario::set_field`], which checks the stream
//! ranges with the daemon's own [`check_config`].
//!
//! Scenarios are plain data: two scenarios that compare equal produce
//! bit-identical experiment results at any thread count (the Monte-Carlo
//! layer guarantees thread-count independence separately).

use crate::deployment::{Deployment, DeploymentConfig};
use crate::fullround::ChannelModel;
use crate::montecarlo::{available_threads, MonteCarlo};
use crate::network::Fidelity;
pub use netscatter_coding::CodingScheme;
use netscatter_daemon::protocol::check_config;
use netscatter_gateway::GatewayConfig;
use netscatter_phy::params::PhyProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Scale of an experiment run: `Quick` for tests and CI, `Full` for the
/// figure-quality runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Reduced trial counts for CI and tests.
    Quick,
    /// Paper-scale trial counts.
    Full,
}

impl Scale {
    /// Selects the trial count for this scale.
    pub fn pick(&self, quick: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }

    /// The stable CLI name ("quick" / "paper").
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "paper",
        }
    }
}

/// Where the population is deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// The paper's 6×2 grid of 5 m × 6 m offices (12 rooms).
    Office,
    /// An open-plan 30 m × 12 m hall with no interior walls.
    Hall,
}

impl Placement {
    /// The stable CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Placement::Office => "office",
            Placement::Hall => "hall",
        }
    }
}

/// Named channel stacks (multipath + fading + Doppler + hardware
/// impairments + noise) for the sample-level simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChannelProfile {
    /// The busy-office model of the paper's evaluation
    /// ([`ChannelModel::office`]).
    Office,
    /// Outdoor deployment: 1 µs delay spread, up to 5 m/s mobility
    /// ([`ChannelModel::outdoor`]).
    Outdoor,
    /// High-SNR, impairment-free diagnostics channel
    /// ([`ChannelModel::pristine`]).
    Pristine,
}

impl ChannelProfile {
    /// The stable CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            ChannelProfile::Office => "office",
            ChannelProfile::Outdoor => "outdoor",
            ChannelProfile::Pristine => "pristine",
        }
    }

    /// The impairment stack this profile selects.
    pub fn model(&self) -> ChannelModel {
        match self {
            ChannelProfile::Office => ChannelModel::office(),
            ChannelProfile::Outdoor => ChannelModel::outdoor(),
            ChannelProfile::Pristine => ChannelModel::pristine(),
        }
    }
}

/// A fully specified experiment input. See the module docs for the role of
/// each field. [`Scenario::default`] is the paper-default office evaluation
/// at seed 42; override fields with struct-update syntax
/// (`Scenario { devices: 64, ..Scenario::default() }`) or by name through
/// [`Scenario::set_field`], which validates the value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Population size (the figure sweeps treat this as the maximum network
    /// size of their x-axis).
    pub devices: usize,
    /// Deployment geometry.
    pub placement: Placement,
    /// Channel impairment stack for sample-level fidelity.
    pub channel: ChannelProfile,
    /// Delivery model for the network experiments.
    pub fidelity: Fidelity,
    /// Trial-count scale.
    pub scale: Scale,
    /// Monte-Carlo base seed.
    pub seed: u64,
    /// Worker-thread bound (results are bit-identical at any value; 0
    /// resolves to the available parallelism).
    pub threads: usize,
    /// Payload bits each device delivers per round, in `1..=1024` (the
    /// daemon's [`MAX_PAYLOAD_BITS`](netscatter_daemon::protocol::MAX_PAYLOAD_BITS)).
    pub payload_bits: usize,
    /// Round arrival rate (rounds/s) of the streaming-gateway experiment's
    /// Poisson arrival process.
    pub arrival_rate: f64,
    /// Stream duration in seconds for the streaming-gateway experiment.
    pub stream_secs: f64,
    /// Producer chunk size in samples for the streaming gateway.
    pub chunk_samples: usize,
    /// Independent 500 kHz gateway channels served by the sharded
    /// multi-channel engine (§5: more channels, more concurrent devices).
    pub channels: usize,
    /// Link-layer coding scheme: `None` keeps the seed's raw-bit payloads;
    /// any other scheme wraps each device's round in one CRC-16-checked
    /// frame protected by that inner FEC. The scheme × `payload_bits`
    /// frame geometry is cross-validated by [`Scenario::validate`].
    pub coding: CodingScheme,
}

impl Default for Scenario {
    fn default() -> Self {
        Self {
            devices: 256,
            placement: Placement::Office,
            channel: ChannelProfile::Office,
            fidelity: Fidelity::Analytical,
            scale: Scale::Full,
            seed: 42,
            threads: available_threads(),
            payload_bits: 40,
            arrival_rate: 10.0,
            stream_secs: 1.0,
            chunk_samples: 4096,
            channels: 1,
            coding: CodingScheme::None,
        }
    }
}

/// Valid domain of the gateway stream parameters, enforced by
/// [`Scenario::set_field`]: durations in `[1 ms, 1 hour]`, arrival rates in
/// `[1e-3, 1e6]` rounds/s.
const MIN_STREAM_PARAM: f64 = 1e-3;
/// Upper bound of [`Scenario::stream_secs`].
const MAX_STREAM_SECS: f64 = 3600.0;
/// Upper bound of [`Scenario::arrival_rate`].
const MAX_ARRIVAL_RATE_HZ: f64 = 1e6;
/// Upper bound of [`Scenario::devices`], 16× the paper's 256-device
/// network: every trial sizes per-device state by it up front.
const MAX_DEVICES: usize = 4096;
/// Upper bound of [`Scenario::channels`]: the 500 kHz channels of the
/// 902–928 MHz ISM band, each with its own stream and decode engine.
const MAX_CHANNELS: usize = 52;

/// The names of every settable [`Scenario`] field, in canonical order —
/// the vocabulary of `netscatter sweep` and [`Scenario::set_field`].
pub const SCENARIO_FIELDS: [&str; 13] = [
    "devices",
    "placement",
    "channel",
    "fidelity",
    "scale",
    "seed",
    "threads",
    "payload_bits",
    "arrival_rate",
    "stream_secs",
    "chunk_samples",
    "channels",
    "coding",
];

impl Scenario {
    /// The fidelity's stable CLI name.
    pub fn fidelity_name(&self) -> &'static str {
        match self.fidelity {
            Fidelity::Analytical => "analytical",
            Fidelity::SampleLevel => "sample",
        }
    }

    /// Every field as a `(name, value)` string pair, in
    /// [`SCENARIO_FIELDS`] order — the scenario block of serialized results.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("devices", self.devices.to_string()),
            ("placement", self.placement.name().to_string()),
            ("channel", self.channel.name().to_string()),
            ("fidelity", self.fidelity_name().to_string()),
            ("scale", self.scale.name().to_string()),
            ("seed", self.seed.to_string()),
            ("threads", self.threads.to_string()),
            ("payload_bits", self.payload_bits.to_string()),
            ("arrival_rate", self.arrival_rate.to_string()),
            ("stream_secs", self.stream_secs.to_string()),
            ("chunk_samples", self.chunk_samples.to_string()),
            ("channels", self.channels.to_string()),
            ("coding", self.coding.name().to_string()),
        ]
    }

    /// Sets one field from its CLI string form. Unknown fields, unparsable
    /// values and values out of range return a usage-quality error message
    /// and leave the scenario untouched. Enum-valued fields (`placement`,
    /// `channel`, `fidelity`, `scale`, `coding`) accept any capitalization —
    /// both the flag and `--set` sweep paths go through here.
    pub fn set_field(&mut self, name: &str, value: &str) -> Result<(), String> {
        let mut next = self.clone();
        next.parse_field(name, value)?;
        // The daemon's stream ranges, on the value as given; the coding fit
        // waits for `validate`, so setters stay order-independent.
        check_config(&next.gateway_config(), CodingScheme::None)
            .map_err(|e| format!("{name}={value}: {e}"))?;
        if next.threads == 0 {
            // The documented "use every core", resolved here so no layer
            // below ever sees a zero thread bound.
            next.threads = available_threads();
        }
        *self = next;
        Ok(())
    }

    fn parse_field(&mut self, name: &str, value: &str) -> Result<(), String> {
        fn int<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("{name} expects an integer, got {value:?}"))
        }
        fn bounded(name: &str, value: &str, max: usize) -> Result<usize, String> {
            let n = int(name, value)?;
            (1..=max).contains(&n).then_some(n).ok_or_else(|| {
                format!("{name} expects a positive integer at most {max}, got {value:?}")
            })
        }
        fn bounded_f64(name: &str, value: &str, min: f64, max: f64) -> Result<f64, String> {
            let v: f64 = value
                .parse()
                .map_err(|_| format!("{name} expects a number, got {value:?}"))?;
            (min..=max)
                .contains(&v)
                .then_some(v)
                .ok_or_else(|| format!("{name} expects a number in {min}..={max}, got {value:?}"))
        }
        match name {
            "devices" => {
                // A zero-device sweep point would divide the headline gains
                // by zero (NaN scalars that JSON cannot carry).
                self.devices = bounded(name, value, MAX_DEVICES)?;
            }
            "seed" => self.seed = int(name, value)?,
            "threads" => self.threads = int(name, value)?,
            // Bounded as the daemon bounds it: an empty payload zeroes every
            // rate, an unbounded one makes the synthesizer allocate unbounded.
            "payload_bits" => self.payload_bits = int(name, value)?,
            "arrival_rate" => {
                self.arrival_rate =
                    bounded_f64(name, value, MIN_STREAM_PARAM, MAX_ARRIVAL_RATE_HZ)?;
            }
            "stream_secs" => {
                self.stream_secs = bounded_f64(name, value, MIN_STREAM_PARAM, MAX_STREAM_SECS)?;
            }
            "chunk_samples" => self.chunk_samples = int(name, value)?,
            // A zero-channel gateway serves nothing; the sharded engine
            // rejects it too (EngineError::Config).
            "channels" => self.channels = bounded(name, value, MAX_CHANNELS)?,
            "placement" => {
                self.placement = match value.to_lowercase().as_str() {
                    "office" => Placement::Office,
                    "hall" => Placement::Hall,
                    _ => {
                        return Err(format!(
                            "placement expects 'office' or 'hall', got {value:?}"
                        ))
                    }
                }
            }
            "channel" => {
                self.channel = match value.to_lowercase().as_str() {
                    "office" => ChannelProfile::Office,
                    "outdoor" => ChannelProfile::Outdoor,
                    "pristine" => ChannelProfile::Pristine,
                    _ => {
                        return Err(format!(
                            "channel expects 'office', 'outdoor' or 'pristine', got {value:?}"
                        ))
                    }
                }
            }
            "fidelity" => {
                self.fidelity = match value.to_lowercase().as_str() {
                    "analytical" => Fidelity::Analytical,
                    "sample" => Fidelity::SampleLevel,
                    _ => {
                        return Err(format!(
                            "fidelity expects 'analytical' or 'sample', got {value:?}"
                        ))
                    }
                }
            }
            "scale" => {
                self.scale = match value.to_lowercase().as_str() {
                    "quick" => Scale::Quick,
                    "paper" | "full" => Scale::Full,
                    _ => return Err(format!("scale expects 'quick' or 'paper', got {value:?}")),
                }
            }
            // Geometry against `payload_bits` is deliberately NOT checked
            // here — field setters stay order-independent so sweeps may set
            // `coding` before `payload_bits`. [`Scenario::validate`] checks
            // the cross-field constraint once every field is in place.
            "coding" => self.coding = CodingScheme::parse(&value.to_lowercase())?,
            _ => {
                return Err(format!(
                    "unknown scenario field {name:?}; known fields: {}",
                    SCENARIO_FIELDS.join(", ")
                ))
            }
        }
        Ok(())
    }

    /// Cross-field validation, called once every field is set (the CLI does
    /// this after flag parsing and per sweep point): [`check_config`] under
    /// the scenario's coding, whose frame geometry — header + data + CRC
    /// through the inner FEC — must fill `payload_bits` exactly.
    pub fn validate(&self) -> Result<(), String> {
        check_config(&self.gateway_config(), self.coding).map(drop)
    }

    /// The gateway this scenario describes before a deployment assigns its
    /// bins: `payload_bits`, `chunk_samples` and `threads` decode workers.
    pub(crate) fn gateway_config(&self) -> GatewayConfig {
        GatewayConfig {
            chunk_samples: self.chunk_samples,
            workers: self.threads,
            ..GatewayConfig::new(PhyProfile::default(), Vec::new(), self.payload_bits)
        }
    }

    /// The deployment this scenario describes, generated deterministically
    /// from the scenario seed.
    pub fn deployment(&self) -> Deployment {
        let config = match self.placement {
            Placement::Office => DeploymentConfig::office(self.devices),
            Placement::Hall => DeploymentConfig::hall(self.devices),
        };
        Deployment::generate(config, &mut StdRng::seed_from_u64(self.seed))
    }

    /// The channel impairment stack.
    pub fn channel_model(&self) -> ChannelModel {
        self.channel.model()
    }

    /// The deterministic sharded Monte-Carlo runner for this scenario.
    pub fn monte_carlo(&self) -> MonteCarlo {
        MonteCarlo::with_threads(self.seed, self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{
        lora_backscatter_metrics_with, netscatter_metrics_with, NetScatterVariant,
    };
    use netscatter_baselines::rate_adaptation::RateAdaptation;
    use netscatter_baselines::tdma::LoraScheme;

    #[test]
    fn set_field_round_trips_every_field() {
        // Drive every field away from its default via the string interface,
        // then check `fields()` reports the new values.
        let mut s = Scenario::default();
        for (name, value) in [
            ("devices", "32"),
            ("placement", "hall"),
            ("channel", "pristine"),
            ("fidelity", "sample"),
            ("scale", "quick"),
            ("seed", "9"),
            ("threads", "2"),
            ("payload_bits", "16"),
            ("arrival_rate", "2.5"),
            ("stream_secs", "0.75"),
            ("chunk_samples", "512"),
            ("channels", "2"),
            ("coding", "rs"),
        ] {
            s.set_field(name, value).unwrap_or_else(|e| panic!("{e}"));
        }
        let fields = s.fields();
        assert_eq!(fields.len(), SCENARIO_FIELDS.len());
        for ((name, got), want) in fields.iter().zip([
            "32", "hall", "pristine", "sample", "quick", "9", "2", "16", "2.5", "0.75", "512", "2",
            "rs",
        ]) {
            assert_eq!(got, want, "field {name}");
        }
    }

    #[test]
    fn threads_zero_resolves_to_available_parallelism() {
        let mut s = Scenario::default();
        s.set_field("threads", "0").unwrap();
        assert_eq!(s.threads, available_threads());
        assert!(s.threads >= 1);
        // The Monte-Carlo layer resolves 0 identically.
        assert_eq!(
            MonteCarlo::with_threads(1, 0).threads,
            available_threads(),
            "MonteCarlo::with_threads(_, 0) uses every core"
        );
    }

    #[test]
    fn set_field_rejects_unknown_names_and_bad_values() {
        let mut s = Scenario::default();
        assert!(s.set_field("volume", "11").unwrap_err().contains("unknown"));
        assert!(s.set_field("devices", "lots").is_err());
        assert!(
            s.set_field("devices", "0")
                .unwrap_err()
                .contains("positive"),
            "a zero-device scenario has no defined gains"
        );
        assert!(s.set_field("fidelity", "vibes").is_err());
        assert!(s
            .set_field("scheme", "netscatter")
            .unwrap_err()
            .contains("unknown"));
        assert!(s
            .set_field("coding", "turbo")
            .unwrap_err()
            .contains("hamming"));
        for (field, bad) in [
            ("arrival_rate", "0"),
            ("arrival_rate", "fast"),
            ("stream_secs", "-1"),
            ("stream_secs", "inf"),
            ("chunk_samples", "0"),
            ("chunk_samples", "big"),
            ("payload_bits", "0"),
            ("payload_bits", "36028797018963968"),
            ("payload_bits", "18446744073709551616"),
        ] {
            assert!(s.set_field(field, bad).is_err(), "{field}={bad}");
        }
        // Failed sets leave the scenario untouched.
        assert_eq!(s, Scenario::default());
        // Every count has a ceiling, checked here before anything is sized
        // or started; the daemon's own bounds name theirs.
        for (field, max, needle) in [
            ("devices", 4096usize, "at most 4096"),
            ("channels", 52, "at most 52"),
            ("threads", 1024, "0..=1024"),
            ("chunk_samples", 1 << 20, "1..=1048576"),
        ] {
            for bad in [max + 1, 1_000_000_000_000, (1 << 61) + 1] {
                let err = s.set_field(field, &bad.to_string()).unwrap_err();
                assert!(err.contains(needle), "{field}={bad}: {err}");
            }
            Scenario::default()
                .set_field(field, &max.to_string())
                .unwrap();
        }
        assert_eq!(s, Scenario::default());
        // The daemon's own payload bound, checked before anything is sized.
        let err = s.set_field("payload_bits", "1025").unwrap_err();
        assert!(err.contains("1..=1024"), "{err}");
        s.set_field("payload_bits", "1024").unwrap();
        assert_eq!(s.payload_bits, 1024);
        // The stream knobs refuse a value past either bound, naming the
        // bound, and take each bound itself as given.
        for (field, min, max, too_low, too_high) in [
            ("arrival_rate", "0.001", "1000000", "0.0009", "1e9"),
            ("stream_secs", "0.001", "3600", "0.0001", "3600.5"),
        ] {
            for bad in [too_low, too_high] {
                let err = s.set_field(field, bad).unwrap_err();
                assert!(
                    err.contains(&format!("{min}..={max}")),
                    "{field}={bad}: {err}"
                );
            }
            for good in [min, max] {
                let mut ok = Scenario::default();
                ok.set_field(field, good).unwrap();
                let got = match field {
                    "arrival_rate" => ok.arrival_rate,
                    _ => ok.stream_secs,
                };
                assert_eq!(got, good.parse::<f64>().unwrap(), "{field}={good}");
            }
        }
    }

    #[test]
    fn scenario_parts_compose_new_workloads() {
        // A combination no fixed binary could express: 48 devices in an
        // open hall, evaluated programmatically for two schemes on the same
        // scenario. NetScatter's concurrent round must beat TDMA's serial
        // schedule on link-layer rate.
        let s = Scenario {
            devices: 48,
            placement: Placement::Hall,
            scale: Scale::Quick,
            seed: 3,
            ..Scenario::default()
        };
        let (deployment, model, mc) = (s.deployment(), s.channel_model(), s.monte_carlo());
        let ns = netscatter_metrics_with(
            &deployment,
            s.devices,
            s.payload_bits,
            NetScatterVariant::Config1,
            s.fidelity,
            &model,
            &mc,
        );
        let lora = lora_backscatter_metrics_with(
            &deployment,
            s.devices,
            s.payload_bits,
            LoraScheme {
                adaptation: RateAdaptation::Fixed,
                query_bits: 28,
            },
            s.fidelity,
            &model,
            &mc,
        );
        assert_eq!(ns.num_devices, 48);
        assert_eq!(lora.num_devices, 48);
        assert!(ns.link_layer_rate_bps > lora.link_layer_rate_bps);
    }

    #[test]
    fn coding_round_trips_and_validates_against_payload_geometry() {
        // Every scheme name parses back through the string interface.
        for scheme in CodingScheme::ALL {
            let mut s = Scenario::default();
            s.set_field("coding", scheme.name()).unwrap();
            assert_eq!(s.coding, scheme);
        }
        // The default scenario (coding none) always validates.
        assert_eq!(Scenario::default().validate(), Ok(()));
        // Setter order never matters: coding before payload_bits is fine
        // until validate() runs on the finished scenario.
        let mut s = Scenario::default();
        s.set_field("coding", "rs").unwrap();
        let err = s.validate().unwrap_err();
        assert!(err.contains("payload_bits"), "{err}");
        s.set_field("payload_bits", "112").unwrap();
        assert_eq!(s.validate(), Ok(()));
        let codec = netscatter_coding::frame::FrameCodec::new(s.coding, s.payload_bits).unwrap();
        assert_eq!(codec.data_bits(), 16);
    }

    #[test]
    fn deployment_and_monte_carlo_follow_the_seed() {
        let at = |seed| Scenario {
            seed,
            devices: 16,
            ..Scenario::default()
        };
        let (a, b) = (at(5), at(5));
        assert_eq!(a.deployment().devices, b.deployment().devices);
        assert_eq!(a.monte_carlo().seed, 5);
        let c = at(6);
        assert_ne!(a.deployment().devices, c.deployment().devices);
    }
}
