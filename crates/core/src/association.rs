//! Network association over reserved cyclic shifts (§3.3.2, Fig. 10).
//!
//! Instead of dedicating time slots to association, NetScatter reserves a
//! small number of cyclic shifts: a joining device transmits its association
//! request on one of them *concurrently* with everyone else's data. The AP
//! measures the request's signal strength, picks a communication cyclic
//! shift with the power-aware allocator, and piggybacks the assignment on the
//! next query; the device acknowledges on its new shift.

use crate::allocator::{AllocationError, CyclicShiftAllocator, ShiftAssignment};
use crate::query::{AssociationResponse, QueryMessage};
use serde::{Deserialize, Serialize};

/// AP-side record of one associated device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Member {
    /// Network ID assigned to the device.
    pub network_id: u8,
    /// Slot index in the allocator.
    pub slot: usize,
    /// Chirp bin the device transmits on.
    pub chirp_bin: usize,
    /// Signal strength (dBm) measured at association.
    pub signal_strength_dbm: f64,
}

/// Progress of one association handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Pending {
    /// Assignment sent in a query, waiting for the device's ACK.
    AwaitingAck {
        network_id: u8,
        slot: usize,
        chirp_bin: usize,
        retries: u8,
    },
}

/// The AP's association manager.
#[derive(Debug, Clone)]
pub struct AssociationManager {
    allocator: CyclicShiftAllocator,
    members: Vec<Member>,
    pending: Option<Pending>,
    pending_strength_dbm: f64,
    next_network_id: u8,
    /// How many queries an unacknowledged assignment is repeated in before
    /// being abandoned.
    pub max_retries: u8,
}

impl AssociationManager {
    /// Creates a manager over the given allocator.
    pub fn new(allocator: CyclicShiftAllocator) -> Self {
        Self {
            allocator,
            members: Vec::new(),
            pending: None,
            pending_strength_dbm: f64::NEG_INFINITY,
            next_network_id: 1,
            max_retries: 3,
        }
    }

    /// Currently associated members.
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    /// The chirp bins reserved for association requests.
    pub fn association_bins(&self) -> Vec<usize> {
        self.allocator.association_bins()
    }

    /// Access to the underlying allocator (e.g. for ablations).
    pub fn allocator(&self) -> &CyclicShiftAllocator {
        &self.allocator
    }

    /// Handles an association request heard on one of the reserved shifts
    /// with the given measured signal strength. Returns the assignment that
    /// will be piggybacked on the next query, or an error if the network is
    /// full. Only one association is progressed at a time (the paper's
    /// deployment associates devices one by one).
    pub fn handle_request(
        &mut self,
        signal_strength_dbm: f64,
    ) -> Result<ShiftAssignment, AllocationError> {
        if let Some(Pending::AwaitingAck {
            slot, chirp_bin, ..
        }) = self.pending
        {
            // A handshake is already in flight; repeat the same assignment.
            return Ok(ShiftAssignment { slot, chirp_bin });
        }
        let assignment = self.allocator.assign(signal_strength_dbm)?;
        let network_id = self.next_network_id;
        self.pending = Some(Pending::AwaitingAck {
            network_id,
            slot: assignment.slot,
            chirp_bin: assignment.chirp_bin,
            retries: 0,
        });
        self.pending_strength_dbm = signal_strength_dbm;
        Ok(assignment)
    }

    /// Builds the next query message, embedding the pending association
    /// response if there is one.
    pub fn build_query(&mut self, group_id: u8) -> QueryMessage {
        let mut query = QueryMessage::config1(group_id);
        if let Some(Pending::AwaitingAck {
            network_id, slot, ..
        }) = self.pending
        {
            query.association_response = Some(AssociationResponse {
                network_id,
                cyclic_shift_index: slot.min(u8::MAX as usize) as u8,
            });
        }
        query
    }

    /// Notifies the manager whether the ACK for the pending assignment was
    /// decoded this round. Completes (or retries / abandons) the handshake
    /// and returns the new member on success.
    pub fn handle_ack(&mut self, ack_received: bool) -> Option<Member> {
        match self.pending {
            Some(Pending::AwaitingAck {
                network_id,
                slot,
                chirp_bin,
                retries,
            }) => {
                if ack_received {
                    let member = Member {
                        network_id,
                        slot,
                        chirp_bin,
                        signal_strength_dbm: self.pending_strength_dbm,
                    };
                    self.members.push(member);
                    self.next_network_id = self.next_network_id.wrapping_add(1).max(1);
                    self.pending = None;
                    Some(member)
                } else if retries + 1 >= self.max_retries {
                    // Abandon: release the slot so it can be reused.
                    self.allocator.release(slot);
                    self.pending = None;
                    None
                } else {
                    self.pending = Some(Pending::AwaitingAck {
                        network_id,
                        slot,
                        chirp_bin,
                        retries: retries + 1,
                    });
                    None
                }
            }
            None => None,
        }
    }

    /// Removes a member (e.g. after it re-initiates association) and frees
    /// its slot.
    pub fn remove(&mut self, network_id: u8) -> bool {
        if let Some(pos) = self.members.iter().position(|m| m.network_id == network_id) {
            let member = self.members.remove(pos);
            self.allocator.release(member.slot);
            true
        } else {
            false
        }
    }

    /// Performs a full power-aware reassignment of all members ("config 2"):
    /// returns the query carrying the new slot for every member, in
    /// network-ID order, and updates the member records.
    pub fn reassign_all(&mut self, group_id: u8) -> Result<QueryMessage, AllocationError> {
        let strengths: Vec<f64> = self.members.iter().map(|m| m.signal_strength_dbm).collect();
        let assignments = self.allocator.reassign_all(&strengths)?;
        let mut slots = Vec::with_capacity(self.members.len());
        for (member, assignment) in self.members.iter_mut().zip(assignments) {
            member.slot = assignment.slot;
            member.chirp_bin = assignment.chirp_bin;
            slots.push(assignment.slot.min(u8::MAX as usize) as u8);
        }
        Ok(QueryMessage::config2(group_id, slots))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netscatter_phy::params::PhyProfile;

    fn manager() -> AssociationManager {
        AssociationManager::new(CyclicShiftAllocator::new(&PhyProfile::default()))
    }

    #[test]
    fn successful_association_handshake() {
        let mut m = manager();
        let assignment = m.handle_request(-100.0).unwrap();
        let query = m.build_query(0);
        let resp = query.association_response.unwrap();
        assert_eq!(resp.cyclic_shift_index as usize, assignment.slot);
        assert_eq!(resp.network_id, 1);
        let member = m.handle_ack(true).unwrap();
        assert_eq!(member.chirp_bin, assignment.chirp_bin);
        assert_eq!(m.members().len(), 1);
        // Subsequent queries carry no association payload.
        assert!(m.build_query(0).association_response.is_none());
    }

    #[test]
    fn repeated_requests_return_same_assignment_until_acked() {
        let mut m = manager();
        let a1 = m.handle_request(-100.0).unwrap();
        let a2 = m.handle_request(-100.0).unwrap();
        assert_eq!(a1, a2);
        assert!(m.handle_ack(true).is_some());
        let a3 = m.handle_request(-100.0).unwrap();
        assert_ne!(a1.slot, a3.slot);
    }

    #[test]
    fn missing_acks_retry_then_release_slot() {
        let mut m = manager();
        let a = m.handle_request(-100.0).unwrap();
        assert!(m.handle_ack(false).is_none());
        assert!(m.handle_ack(false).is_none());
        // Third failure abandons and releases the slot.
        assert!(m.handle_ack(false).is_none());
        assert_eq!(m.members().len(), 0);
        let again = m.handle_request(-100.0).unwrap();
        assert_eq!(again.slot, a.slot, "released slot should be reusable");
    }

    #[test]
    fn watched_bins_cover_association_and_members() {
        // The receiver watches the association bins plus every member's bin.
        let watched = |m: &AssociationManager| {
            let mut bins = m.association_bins();
            bins.extend(m.members().iter().map(|member| member.chirp_bin));
            bins
        };
        let mut m = manager();
        assert_eq!(watched(&m).len(), 2);
        m.handle_request(-95.0).unwrap();
        m.handle_ack(true).unwrap();
        m.handle_request(-110.0).unwrap();
        m.handle_ack(true).unwrap();
        let bins = watched(&m);
        assert_eq!(bins.len(), 4);
        // No duplicates.
        let set: std::collections::HashSet<usize> = bins.iter().cloned().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn remove_frees_the_slot() {
        let mut m = manager();
        m.handle_request(-100.0).unwrap();
        let member = m.handle_ack(true).unwrap();
        assert!(m.remove(member.network_id));
        assert!(!m.remove(member.network_id));
        assert_eq!(m.members().len(), 0);
        let again = m.handle_request(-100.0).unwrap();
        assert_eq!(again.slot, member.slot);
    }

    #[test]
    fn reassign_all_produces_config2_query_and_reorders_members() {
        let mut m = manager();
        for strength in [-118.0, -92.0, -105.0] {
            m.handle_request(strength).unwrap();
            m.handle_ack(true).unwrap();
        }
        let query = m.reassign_all(0).unwrap();
        let slots = query.full_reassignment.unwrap();
        assert_eq!(slots.len(), 3);
        // Member 2 (-92 dBm, network id 2) is the strongest -> lowest slot.
        let strongest = m.members().iter().find(|mm| mm.network_id == 2).unwrap();
        let weakest = m.members().iter().find(|mm| mm.network_id == 1).unwrap();
        assert!(strongest.slot < weakest.slot);
    }
}
