//! Backscatter power control.
//!
//! A backscatter tag "transmits" by switching its antenna between two
//! impedances; the radiated power is proportional to `|Γ₀ − Γ₁|² / 4`, the
//! squared distance between the two reflection coefficients (§3.2.3).
//! Conventional designs maximize this difference (0 dB gain). NetScatter
//! instead switches from *intermediate* impedances to obtain several discrete
//! power gains — the paper's hardware provides 0, −4 and −10 dB — which is
//! what the fine-grained self-aware power adjustment uses to keep concurrent
//! devices inside the receiver's dynamic range.

use netscatter_dsp::units::db_to_linear;
use serde::{Deserialize, Serialize};

/// The three discrete backscatter power gains the paper's switch network
/// provides (§3.2.3, Fig. 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackscatterGain {
    /// Maximum gain, 0 dB: switching between extreme impedances.
    Full,
    /// −4 dB gain.
    Medium,
    /// −10 dB gain.
    Low,
}

impl BackscatterGain {
    /// All gains, strongest first.
    pub const ALL: [BackscatterGain; 3] = [Self::Full, Self::Medium, Self::Low];

    /// The gain in dB.
    pub fn db(&self) -> f64 {
        match self {
            Self::Full => 0.0,
            Self::Medium => -4.0,
            Self::Low => -10.0,
        }
    }

    /// The gain as a linear power ratio.
    pub fn linear(&self) -> f64 {
        db_to_linear(self.db())
    }

    /// The gain as a linear *amplitude* ratio (what the waveform synthesizer
    /// multiplies by).
    pub fn amplitude(&self) -> f64 {
        self.linear().sqrt()
    }

    /// The next stronger setting, if any.
    pub fn stronger(&self) -> Option<Self> {
        match self {
            Self::Full => None,
            Self::Medium => Some(Self::Full),
            Self::Low => Some(Self::Medium),
        }
    }

    /// The next weaker setting, if any.
    pub fn weaker(&self) -> Option<Self> {
        match self {
            Self::Full => Some(Self::Medium),
            Self::Medium => Some(Self::Low),
            Self::Low => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_gains_match_paper_levels() {
        assert_eq!(BackscatterGain::Full.db(), 0.0);
        assert_eq!(BackscatterGain::Medium.db(), -4.0);
        assert_eq!(BackscatterGain::Low.db(), -10.0);
        assert!((BackscatterGain::Medium.linear() - 0.398).abs() < 0.001);
        assert!((BackscatterGain::Low.amplitude() - 0.3162).abs() < 0.001);
    }

    #[test]
    fn gain_navigation() {
        assert_eq!(
            BackscatterGain::Full.weaker(),
            Some(BackscatterGain::Medium)
        );
        assert_eq!(BackscatterGain::Low.weaker(), None);
        assert_eq!(
            BackscatterGain::Low.stronger(),
            Some(BackscatterGain::Medium)
        );
        assert_eq!(BackscatterGain::Full.stronger(), None);
        assert_eq!(BackscatterGain::ALL.len(), 3);
    }
}
