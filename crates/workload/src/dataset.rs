//! Prompt datasets and GRPO group expansion.
//!
//! The paper trains on DAPO-Math-17k with a global batch of 512 prompts ×
//! 16 responses = 8192 trajectories per RL iteration. [`Dataset`] models the
//! prompt store (epoch-cycling through a fixed prompt count) and
//! [`GroupedBatch`] the expansion of sampled prompts into trajectory
//! assignments.

/// A fixed-size prompt dataset cycled epoch-by-epoch.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Number of distinct prompts (17k in DAPO-Math-17k).
    pub num_prompts: u64,
    /// Responses sampled per prompt (the GRPO group size, 16).
    pub group_size: usize,
    next_prompt: u64,
    next_trajectory_id: u64,
}

impl Dataset {
    /// Creates a dataset of `num_prompts` prompts with GRPO groups of
    /// `group_size`.
    pub fn new(num_prompts: u64, group_size: usize) -> Self {
        assert!(
            num_prompts > 0 && group_size > 0,
            "dataset must be non-empty"
        );
        Dataset {
            num_prompts,
            group_size,
            next_prompt: 0,
            next_trajectory_id: 0,
        }
    }

    /// The paper's DAPO-Math-17k shape: 17,000 prompts, groups of 16.
    pub fn dapo_math_17k() -> Self {
        Dataset::new(17_000, 16)
    }

    /// Draws the next `prompts` prompts (cycling at the epoch boundary) and
    /// expands them into a grouped batch of `prompts × group_size`
    /// trajectory assignments with fresh globally unique ids.
    pub fn next_batch(&mut self, prompts: usize) -> GroupedBatch {
        let mut prompt_ids = Vec::with_capacity(prompts);
        for _ in 0..prompts {
            prompt_ids.push(self.next_prompt);
            self.next_prompt = (self.next_prompt + 1) % self.num_prompts;
        }
        let first_id = self.next_trajectory_id;
        self.next_trajectory_id += (prompts * self.group_size) as u64;
        GroupedBatch {
            prompt_ids,
            group_size: self.group_size,
            first_trajectory_id: first_id,
        }
    }

    /// The dataset's mutable cursor `(next prompt, next trajectory id)` —
    /// the only state that advances between batches; the checkpoint plane
    /// persists exactly this pair.
    pub fn cursor(&self) -> (u64, u64) {
        (self.next_prompt, self.next_trajectory_id)
    }
}

/// A batch of prompts expanded into GRPO groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupedBatch {
    /// Sampled prompt ids, in order.
    pub prompt_ids: Vec<u64>,
    /// Responses per prompt.
    pub group_size: usize,
    /// Trajectory id of the batch's first assignment; assignments are
    /// numbered contiguously.
    pub first_trajectory_id: u64,
}

impl GroupedBatch {
    /// Number of trajectories in the batch.
    pub fn len(&self) -> usize {
        self.prompt_ids.len() * self.group_size
    }

    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.prompt_ids.is_empty()
    }

    /// Iterates `(trajectory_id, prompt_id, group_index)` assignments.
    pub fn assignments(&self) -> impl Iterator<Item = (u64, u64, usize)> + '_ {
        let first = self.first_trajectory_id;
        let gs = self.group_size;
        self.prompt_ids
            .iter()
            .enumerate()
            .flat_map(move |(pi, &prompt)| {
                (0..gs).map(move |g| (first + (pi * gs + g) as u64, prompt, g))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_shape_matches_paper() {
        let mut d = Dataset::dapo_math_17k();
        let b = d.next_batch(512);
        assert_eq!(b.len(), 8192);
        assert_eq!(b.prompt_ids.len(), 512);
    }

    #[test]
    fn trajectory_ids_are_globally_unique_and_contiguous() {
        let mut d = Dataset::new(100, 4);
        let b1 = d.next_batch(10);
        let b2 = d.next_batch(10);
        let ids1: Vec<u64> = b1.assignments().map(|(id, _, _)| id).collect();
        let ids2: Vec<u64> = b2.assignments().map(|(id, _, _)| id).collect();
        assert_eq!(ids1, (0..40).collect::<Vec<_>>());
        assert_eq!(ids2, (40..80).collect::<Vec<_>>());
    }

    #[test]
    fn prompts_cycle_at_epoch_boundary() {
        let mut d = Dataset::new(5, 2);
        let b = d.next_batch(7);
        assert_eq!(b.prompt_ids, vec![0, 1, 2, 3, 4, 0, 1]);
    }

    #[test]
    fn group_indices_cover_group() {
        let mut d = Dataset::new(10, 3);
        let b = d.next_batch(2);
        let gs: Vec<usize> = b.assignments().map(|(_, _, g)| g).collect();
        assert_eq!(gs, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_dataset_rejected() {
        let _ = Dataset::new(0, 16);
    }
}
