//! Slab storage for the engine's active set.
//!
//! The active set used to be a `BTreeMap<u64, TrajState>`, which allocates
//! a node per ~handful of entries and churns the allocator on every
//! admit/complete cycle. [`TrajSlab`] keeps trajectory states in a dense
//! `Vec<Option<TrajState>>` with a free list, so steady-state admission
//! reuses previously freed slots and performs zero heap allocation. An
//! [`IdMap`] from id to slot makes every lookup, insert and remove O(1).
//! Map order is never observable: the passes whose order reaches the
//! timeline or a checkpoint ask for ascending ids and get them sorted
//! ([`TrajSlab::ids_into`], [`TrajSlab::iter`]), exactly the order a scan
//! of the old id-sorted map produced; the rest visit storage order
//! ([`TrajSlab::values`]).

use crate::traj::TrajState;
use laminar_sim::IdMap;

/// Dense slot storage + free list + id-to-slot map for resident
/// trajectories, keyed by spec id. The live count is the map length.
#[derive(Debug, Clone, Default)]
pub(crate) struct TrajSlab {
    slots: Vec<Option<TrajState>>,
    free: Vec<u32>,
    index: IdMap<u32>,
}

impl TrajSlab {
    pub fn new() -> Self {
        TrajSlab::default()
    }

    /// Live trajectories.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    pub fn get(&self, id: u64) -> Option<&TrajState> {
        let slot = *self.index.get(&id)? as usize;
        Some(self.slots[slot].as_ref().expect("indexed slot is live"))
    }

    pub fn get_mut(&mut self, id: u64) -> Option<&mut TrajState> {
        let slot = *self.index.get(&id)? as usize;
        Some(self.slots[slot].as_mut().expect("indexed slot is live"))
    }

    /// Inserts `st` under its spec id, returning the previous state if the
    /// id was already present (the engine asserts it never is). Reuses a
    /// freed slot when one exists.
    pub fn insert(&mut self, st: TrajState) -> Option<TrajState> {
        let id = st.spec.id;
        if let Some(&slot) = self.index.get(&id) {
            return self.slots[slot as usize].replace(st);
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(st);
                s
            }
            None => {
                self.slots.push(Some(st));
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(id, slot);
        None
    }

    /// Removes and returns the state under `id`, recycling its slot.
    pub fn remove(&mut self, id: u64) -> Option<TrajState> {
        let slot = self.index.remove(&id)?;
        self.free.push(slot);
        self.slots[slot as usize].take()
    }

    /// Drops every entry, keeping all backing allocations for reuse.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.index.clear();
    }

    /// Live entries in storage order, for passes whose result does not
    /// depend on order.
    pub fn values(&self) -> impl Iterator<Item = &TrajState> + '_ {
        self.slots.iter().flatten()
    }

    /// Live entries in ascending id order. Sorts a fresh buffer per call:
    /// for checkpoint encoding, not the event loop.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &TrajState)> + '_ {
        let mut sorted: Vec<&TrajState> = self.values().collect();
        sorted.sort_unstable_by_key(|st| st.spec.id);
        sorted.into_iter().map(|st| (st.spec.id, st))
    }

    /// Copies the live ids, ascending, into `out` (cleared first) — the
    /// allocation-free way for callers to iterate-and-mutate.
    pub fn ids_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.index.keys());
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_sim::Time;
    use laminar_workload::{Checkpoint, WorkloadGenerator};

    fn st(id: u64) -> TrajState {
        let spec = WorkloadGenerator::single_turn(1, Checkpoint::Math7B).trajectory(id, 0, 0, 1.0);
        TrajState::new(spec, 0, Time::ZERO)
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut s = TrajSlab::new();
        for id in [5u64, 1, 9, 3] {
            assert!(s.insert(st(id)).is_none());
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.get(3).unwrap().spec.id, 3);
        assert!(s.get(4).is_none());
        let removed = s.remove(5).unwrap();
        assert_eq!(removed.spec.id, 5);
        assert!(s.remove(5).is_none());
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn iteration_is_id_ordered_regardless_of_insertion_order() {
        let mut s = TrajSlab::new();
        for id in [7u64, 2, 11, 4, 0] {
            s.insert(st(id));
        }
        let ids: Vec<u64> = s.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 2, 4, 7, 11]);
        let mut scratch = Vec::new();
        s.ids_into(&mut scratch);
        assert_eq!(scratch, ids);
    }

    #[test]
    fn freed_slots_are_reused_without_growing() {
        let mut s = TrajSlab::new();
        for id in 0..8u64 {
            s.insert(st(id));
        }
        let dense = s.slots.len();
        for id in 0..8u64 {
            s.remove(id);
            s.insert(st(100 + id));
        }
        assert_eq!(s.slots.len(), dense, "churn must recycle slots");
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut s = TrajSlab::new();
        for id in 0..16u64 {
            s.insert(st(id));
        }
        let cap = s.slots.capacity();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.slots.capacity(), cap);
    }
}
