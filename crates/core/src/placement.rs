//! Table 2: GPU allocations per system, model scale, and cluster size.
//!
//! The paper tunes train/rollout splits per system to balance generation
//! and training throughput; Laminar's higher generation efficiency lets it
//! shift GPUs toward the trainer at large scale.

use crate::hyper::SystemKind;
use laminar_cluster::ModelSpec;

/// A train/rollout GPU split plus the rollout TP degree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Trainer GPUs (0 = colocated).
    pub train: usize,
    /// Rollout GPUs.
    pub rollout: usize,
    /// Rollout tensor parallelism.
    pub tp: usize,
}

/// Size class of a model (selects the Table 2 column).
fn size_class(model: &ModelSpec) -> usize {
    if model.params < 10e9 {
        0 // 7B
    } else if model.params < 50e9 {
        1 // 32B
    } else {
        2 // 72B
    }
}

/// The cluster sizes evaluated per model in Figure 11.
pub fn paper_scales(model: &ModelSpec) -> Vec<usize> {
    match size_class(model) {
        0 => vec![16, 32, 64, 128, 256],
        1 => vec![32, 64, 128, 256, 512],
        _ => vec![64, 128, 256, 512, 1024],
    }
}

/// Rollout TP per Table 2 / Appendix A.2.
fn rollout_tp(kind: SystemKind, class: usize) -> usize {
    match class {
        0 => match kind {
            // AReaL and Laminar run 7B at TP=1 to maximize throughput;
            // batch-synchronized systems use TP=2 to shorten the tail.
            SystemKind::PartialRollout | SystemKind::Laminar => 1,
            _ => 2,
        },
        1 => 4,
        _ => 8,
    }
}

/// The Table 2 placement for a system/model/scale.
///
/// # Panics
///
/// Panics when `total_gpus` is not one of the paper's evaluated scales for
/// that model.
pub fn placement_for(kind: SystemKind, model: &ModelSpec, total_gpus: usize) -> Placement {
    let class = size_class(model);
    let scales = paper_scales(model);
    let idx = scales
        .iter()
        .position(|&s| s == total_gpus)
        .unwrap_or_else(|| panic!("{total_gpus} GPUs is not a paper scale for {}", model.name));
    let tp = rollout_tp(kind, class);
    let (train, rollout) = match kind {
        SystemKind::Verl => (0, total_gpus),
        SystemKind::OneStep | SystemKind::StreamGen => {
            let splits: [[(usize, usize); 5]; 3] = [
                [(8, 8), (8, 24), (16, 48), (32, 96), (40, 216)],
                [(16, 16), (32, 32), (48, 80), (64, 192), (80, 432)],
                [(32, 32), (64, 64), (96, 160), (192, 320), (256, 768)],
            ];
            splits[class][idx]
        }
        SystemKind::PartialRollout => {
            let splits: [[(usize, usize); 5]; 3] = [
                [(8, 8), (16, 16), (32, 32), (64, 64), (128, 128)],
                [(16, 16), (32, 32), (64, 64), (128, 128), (256, 256)],
                [(32, 32), (64, 64), (128, 128), (320, 192), (640, 384)],
            ];
            splits[class][idx]
        }
        SystemKind::Laminar => {
            // The paper tunes placements by balancing generation and
            // training throughput in *its* environment (its 7B column is
            // (8,8),(24,8),(40,24),(80,48),(192,64)). Our roofline trainer
            // achieves a higher MFU relative to generation than the paper's
            // stack, so the same methodology lands on an even split for 7B;
            // the 32B/72B columns match the paper exactly. Recorded as a
            // substitution in DESIGN.md/EXPERIMENTS.md.
            let splits: [[(usize, usize); 5]; 3] = [
                [(8, 8), (16, 16), (32, 32), (64, 64), (128, 128)],
                [(16, 16), (32, 32), (64, 64), (128, 128), (256, 256)],
                [(32, 32), (64, 64), (128, 128), (320, 192), (640, 384)],
            ];
            splits[class][idx]
        }
    };
    Placement { train, rollout, tp }
}

/// All `(total_gpus, placement)` pairs for a system/model (Table 2 rows).
pub fn paper_configs(kind: SystemKind, model: &ModelSpec) -> Vec<(usize, Placement)> {
    paper_scales(model)
        .into_iter()
        .map(|s| (s, placement_for(kind, model, s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placements_sum_to_total() {
        for kind in [
            SystemKind::Verl,
            SystemKind::OneStep,
            SystemKind::StreamGen,
            SystemKind::PartialRollout,
            SystemKind::Laminar,
        ] {
            for model in ModelSpec::paper_models() {
                for (total, p) in paper_configs(kind, &model) {
                    let used = if p.train == 0 {
                        p.rollout
                    } else {
                        p.train + p.rollout
                    };
                    assert_eq!(used, total, "{kind:?} {} {total}", model.name);
                    assert_eq!(p.rollout % p.tp, 0, "rollout GPUs divisible by TP");
                }
            }
        }
    }

    #[test]
    fn laminar_shifts_gpus_to_trainer_at_scale() {
        // At the 72B scale the paper (and we) give Laminar proportionally
        // more trainer GPUs as the cluster grows.
        let m = ModelSpec::qwen_72b();
        let small = placement_for(SystemKind::Laminar, &m, 64);
        let large = placement_for(SystemKind::Laminar, &m, 1024);
        assert!(
            large.train as f64 / large.rollout as f64 > small.train as f64 / small.rollout as f64
        );
        assert_eq!(large.train, 640);
        assert_eq!(large.rollout, 384);
    }

    #[test]
    fn tp_matches_appendix() {
        let m7 = ModelSpec::qwen_7b();
        assert_eq!(placement_for(SystemKind::Laminar, &m7, 16).tp, 1);
        assert_eq!(placement_for(SystemKind::OneStep, &m7, 16).tp, 2);
        let m32 = ModelSpec::qwen_32b();
        assert_eq!(placement_for(SystemKind::Verl, &m32, 32).tp, 4);
        let m72 = ModelSpec::qwen_72b();
        assert_eq!(placement_for(SystemKind::Laminar, &m72, 1024).tp, 8);
    }

    #[test]
    #[should_panic(expected = "not a paper scale")]
    fn unknown_scale_panics() {
        let _ = placement_for(SystemKind::Verl, &ModelSpec::qwen_7b(), 48);
    }
}
