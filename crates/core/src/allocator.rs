//! Power-aware cyclic-shift allocation with the SKIP guard band.
//!
//! Two constraints shape the assignment of cyclic shifts to devices:
//!
//! 1. **Timing guard band (§3.2.1).** Hardware delay jitter moves a device's
//!    FFT peak by up to about one bin, so only every `SKIP`-th cyclic shift
//!    is assignable (the paper's deployment uses `SKIP = 2`, i.e. one empty
//!    bin between devices).
//! 2. **Near-far ordering (§3.2.3, Fig. 8).** The zero-padded spectrum of a
//!    strong device has side lobes that fall off with distance from its
//!    peak, so weak devices must sit *far* (in bins) from strong devices.
//!    The allocator therefore orders devices by their received signal
//!    strength and fills slots from both ends of the spectrum towards the
//!    middle: the strongest devices occupy the outermost slots (which are
//!    adjacent to each other modulo the FFT, since the spectrum is
//!    circular), and the weakest end up in the middle, maximally separated
//!    from the strong ones.
//!
//! A configurable number of slots is reserved for association (§3.3.2): one
//! in the high-SNR region and one in the low-SNR region.

use netscatter_phy::params::PhyProfile;
use serde::{Deserialize, Serialize};

/// A cyclic-shift assignment handed to a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShiftAssignment {
    /// Index of the slot (0-based, in units of `SKIP` bins).
    pub slot: usize,
    /// The actual chirp bin / cyclic shift the device transmits.
    pub chirp_bin: usize,
}

/// Errors returned by the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationError {
    /// All communication slots are occupied.
    NetworkFull,
}

impl std::fmt::Display for AllocationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocationError::NetworkFull => write!(f, "all cyclic-shift slots are assigned"),
        }
    }
}

impl std::error::Error for AllocationError {}

/// Power-aware cyclic-shift allocator.
#[derive(Debug, Clone)]
pub struct CyclicShiftAllocator {
    num_bins: usize,
    skip: usize,
    /// Slots reserved for association, strongest-region first.
    association_slots: Vec<usize>,
    /// For each communication slot (by slot index): the signal strength (dBm)
    /// of the device occupying it, or `None` if free.
    occupancy: Vec<Option<f64>>,
}

impl CyclicShiftAllocator {
    /// Creates an allocator for the given PHY profile.
    pub fn new(profile: &PhyProfile) -> Self {
        let num_bins = profile.modulation.num_bins();
        let skip = profile.skip.max(1);
        let total_slots = num_bins / skip;
        // Reserve the first slot of the strong (outer) region and the slot in
        // the middle of the weak region for association.
        let association_slots = vec![0, total_slots / 2];
        Self {
            num_bins,
            skip,
            association_slots,
            occupancy: vec![None; total_slots],
        }
    }

    /// Total number of slots (including reserved association slots).
    pub fn total_slots(&self) -> usize {
        self.occupancy.len()
    }

    /// Number of slots available for data communication.
    pub fn capacity(&self) -> usize {
        self.total_slots() - self.association_slots.len()
    }

    /// The chirp bins reserved for association requests, ordered
    /// `[high-SNR region, low-SNR region]`.
    pub fn association_bins(&self) -> Vec<usize> {
        self.association_slots
            .iter()
            .map(|s| self.slot_to_bin(*s))
            .collect()
    }

    /// Maps a slot index to its chirp bin. Slots are interleaved from the
    /// two ends of the spectrum towards the middle: slot 0 → bin 0,
    /// slot 1 → bin N−SKIP, slot 2 → bin SKIP, slot 3 → bin N−2·SKIP, …
    /// Because the FFT is circular, bins 0 and N−SKIP are adjacent, so this
    /// places consecutive slots (similar signal strengths) next to each other
    /// while keeping early (strong) and late (weak) slots maximally apart.
    pub fn slot_to_bin(&self, slot: usize) -> usize {
        let step = (slot / 2 + 1) * self.skip;
        if slot % 2 == 0 {
            (slot / 2) * self.skip
        } else {
            self.num_bins - step
        }
    }

    /// Assigns a cyclic shift to a device whose uplink signal strength at the
    /// AP is `signal_strength_dbm` (measured during association).
    ///
    /// Strong devices receive low slot indices (outer bins), weak devices
    /// high slot indices (middle bins). The incremental rule is: place the
    /// device in the first free slot *after* the slot of the weakest device
    /// that is still stronger than it, falling back to the first free slot
    /// anywhere. When arrivals are ordered by strength this reproduces the
    /// ideal ordering; for pathological arrival orders the AP can issue a
    /// full reassignment ([`Self::reassign_all`], the paper's "config 2").
    pub fn assign(&mut self, signal_strength_dbm: f64) -> Result<ShiftAssignment, AllocationError> {
        // Slot of the weakest occupant that is stronger than the new device.
        let lower_bound = self
            .occupancy
            .iter()
            .enumerate()
            .filter_map(|(slot, occ)| occ.filter(|s| *s > signal_strength_dbm).map(|_| slot))
            .max()
            .map(|s| s + 1)
            .unwrap_or(0);
        let pick =
            |mut range: std::ops::Range<usize>, occupancy: &[Option<f64>], assoc: &[usize]| {
                range.find(|slot| !assoc.contains(slot) && occupancy[*slot].is_none())
            };
        let slot = pick(
            lower_bound..self.total_slots(),
            &self.occupancy,
            &self.association_slots,
        )
        .or_else(|| {
            pick(
                0..self.total_slots(),
                &self.occupancy,
                &self.association_slots,
            )
        })
        .ok_or(AllocationError::NetworkFull)?;
        self.occupancy[slot] = Some(signal_strength_dbm);
        Ok(ShiftAssignment {
            slot,
            chirp_bin: self.slot_to_bin(slot),
        })
    }

    /// Releases a previously assigned slot.
    pub fn release(&mut self, slot: usize) {
        if let Some(entry) = self.occupancy.get_mut(slot) {
            *entry = None;
        }
    }

    /// Recomputes the assignment of *all* devices from scratch given their
    /// current signal strengths, returning `(device index, assignment)`
    /// pairs. This is what the AP transmits as a "config 2" full
    /// reassignment query when an incremental assignment is no longer
    /// possible (§3.3.3).
    pub fn reassign_all(
        &mut self,
        signal_strengths_dbm: &[f64],
    ) -> Result<Vec<ShiftAssignment>, AllocationError> {
        if signal_strengths_dbm.len() > self.capacity() {
            return Err(AllocationError::NetworkFull);
        }
        for occ in self.occupancy.iter_mut() {
            *occ = None;
        }
        // Sort device indices by descending strength.
        let mut order: Vec<usize> = (0..signal_strengths_dbm.len()).collect();
        order.sort_by(|&a, &b| signal_strengths_dbm[b].total_cmp(&signal_strengths_dbm[a]));
        let mut result = vec![
            ShiftAssignment {
                slot: 0,
                chirp_bin: 0
            };
            signal_strengths_dbm.len()
        ];
        let mut slot_iter = (0..self.total_slots()).filter(|s| !self.association_slots.contains(s));
        for device in order {
            let slot = slot_iter.next().ok_or(AllocationError::NetworkFull)?;
            self.occupancy[slot] = Some(signal_strengths_dbm[device]);
            result[device] = ShiftAssignment {
                slot,
                chirp_bin: self.slot_to_bin(slot),
            };
        }
        Ok(result)
    }

    /// The current occupancy: `(slot, chirp bin, signal strength)` triples.
    pub fn assignments(&self) -> Vec<(usize, usize, f64)> {
        self.occupancy
            .iter()
            .enumerate()
            .filter_map(|(slot, occ)| occ.map(|s| (slot, self.slot_to_bin(slot), s)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netscatter_phy::params::PhyProfile;

    fn profile() -> PhyProfile {
        PhyProfile::default()
    }

    #[test]
    fn capacity_matches_paper_deployment() {
        let alloc = CyclicShiftAllocator::new(&profile());
        assert_eq!(alloc.total_slots(), 256);
        assert_eq!(alloc.capacity(), 254);
        assert_eq!(alloc.association_bins().len(), 2);
    }

    #[test]
    fn slots_map_to_distinct_skip_aligned_bins() {
        let alloc = CyclicShiftAllocator::new(&profile());
        let mut seen = std::collections::HashSet::new();
        for slot in 0..alloc.total_slots() {
            let bin = alloc.slot_to_bin(slot);
            assert!(bin < 512);
            assert_eq!(bin % 2, 0, "bins must respect SKIP alignment");
            assert!(seen.insert(bin), "slot {slot} maps to duplicate bin {bin}");
        }
    }

    #[test]
    fn early_and_late_slots_are_far_apart() {
        let alloc = CyclicShiftAllocator::new(&profile());
        // Distance in bins between two slots on the circular spectrum.
        let distance = |a: usize, b: usize| {
            let d = alloc.slot_to_bin(a).abs_diff(alloc.slot_to_bin(b));
            d.min(alloc.num_bins - d)
        };
        // Adjacent slots (similar strength) are close; the strongest and the
        // weakest slots are separated by roughly half the spectrum.
        assert!(distance(0, 1) <= 2 * alloc.skip);
        assert!(distance(2, 3) <= 3 * alloc.skip);
        let far = distance(0, alloc.total_slots() - 1);
        assert!(
            far > 200,
            "strongest/weakest separation {far} bins is too small"
        );
    }

    #[test]
    fn stronger_devices_get_lower_slots_when_arriving_in_order() {
        let mut alloc = CyclicShiftAllocator::new(&profile());
        let strong = alloc.assign(-90.0).unwrap();
        let medium = alloc.assign(-105.0).unwrap();
        let weak = alloc.assign(-120.0).unwrap();
        assert!(strong.slot < medium.slot);
        assert!(medium.slot < weak.slot);
        assert_eq!(alloc.assignments().len(), 3);
    }

    #[test]
    fn out_of_order_arrivals_still_get_unique_slots_after_stronger_devices() {
        let mut alloc = CyclicShiftAllocator::new(&profile());
        let strong = alloc.assign(-90.0).unwrap();
        let weak = alloc.assign(-120.0).unwrap();
        let medium = alloc.assign(-105.0).unwrap();
        // The late medium device cannot be placed between the two without a
        // reassignment, but it must land after the stronger device and on a
        // unique slot.
        assert!(medium.slot > strong.slot);
        assert_ne!(medium.slot, weak.slot);
        assert_eq!(alloc.assignments().len(), 3);
    }

    #[test]
    fn assignments_never_collide() {
        let mut alloc = CyclicShiftAllocator::new(&profile());
        let mut bins = std::collections::HashSet::new();
        for i in 0..alloc.capacity() {
            let a = alloc.assign(-90.0 - (i % 35) as f64).unwrap();
            assert!(
                bins.insert(a.chirp_bin),
                "bin {} assigned twice",
                a.chirp_bin
            );
            assert!(!alloc.association_bins().contains(&a.chirp_bin));
        }
        assert_eq!(alloc.assign(-100.0), Err(AllocationError::NetworkFull));
    }

    #[test]
    fn release_frees_slot_for_reuse() {
        let mut alloc = CyclicShiftAllocator::new(&profile());
        let a = alloc.assign(-100.0).unwrap();
        alloc.release(a.slot);
        assert_eq!(alloc.assignments().len(), 0);
        let b = alloc.assign(-100.0).unwrap();
        assert_eq!(a.slot, b.slot);
    }

    #[test]
    fn reassign_all_orders_by_strength() {
        let mut alloc = CyclicShiftAllocator::new(&profile());
        let strengths = [-110.0, -92.0, -120.0, -100.0];
        let result = alloc.reassign_all(&strengths).unwrap();
        assert_eq!(result.len(), 4);
        // Device 1 is strongest -> lowest slot; device 2 weakest -> highest slot.
        assert!(result[1].slot < result[3].slot);
        assert!(result[3].slot < result[0].slot);
        assert!(result[0].slot < result[2].slot);
        // All distinct.
        let slots: std::collections::HashSet<usize> = result.iter().map(|a| a.slot).collect();
        assert_eq!(slots.len(), 4);
    }

    #[test]
    fn reassign_all_rejects_oversubscription() {
        let mut alloc = CyclicShiftAllocator::new(&profile());
        let too_many = vec![-100.0; alloc.capacity() + 1];
        assert_eq!(
            alloc.reassign_all(&too_many),
            Err(AllocationError::NetworkFull)
        );
    }

    #[test]
    fn full_deployment_strong_weak_separation() {
        // With 254 devices whose strengths span 35 dB, the weakest quartile
        // must sit far (in bins) from the strongest quartile on average.
        let mut alloc = CyclicShiftAllocator::new(&profile());
        let strengths: Vec<f64> = (0..254)
            .map(|i| -90.0 - 35.0 * (i as f64 / 253.0))
            .collect();
        let assignments = alloc.reassign_all(&strengths).unwrap();
        let strong_bins: Vec<usize> = (0..60).map(|i| assignments[i].chirp_bin).collect();
        let weak_bins: Vec<usize> = (194..254).map(|i| assignments[i].chirp_bin).collect();
        let mut total = 0usize;
        let mut count = 0usize;
        for &s in &strong_bins {
            for &w in &weak_bins {
                let d = s.abs_diff(w);
                total += d.min(512 - d);
                count += 1;
            }
        }
        let avg = total as f64 / count as f64;
        assert!(
            avg > 120.0,
            "average strong/weak separation {avg} bins is too small"
        );
    }
}
