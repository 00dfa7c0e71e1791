//! The run core the three barrier baselines share.
//!
//! verl and the two k=1 pipelines are recurrences over whole batches: each
//! step draws the next batch, generates it on standalone replicas from the
//! instant the recurrence fixes, and accounts for what the trainer does
//! with it. [`Barrier`] owns everything but the recurrence itself: the
//! configuration, the dataset, the report and its throughput series, the
//! batch counter, the span buffer, per-step generation, the record of a
//! consumed batch, finishing, and the checkpoint image's span and report
//! planes. Each system keeps its own `step` and writes its own scalar
//! words.

use crate::common::{
    generate_batch_at, BatchGenStats, ConsumedTraj, NullTrace, RecordingTrace, RunReport,
    SystemConfig, TraceSink, TraceSpan,
};
use laminar_cluster::TrainModel;
use laminar_runtime::delta::{encode_report_plane, encode_span_plane, StateImage, StatePlane};
use laminar_sim::{Duration, TimeSeries};
use laminar_workload::Dataset;

/// The state every barrier run shares. Spans buffer internally and reach
/// the caller's sink only when the run finishes, so a resumed clone
/// re-emits a byte-identical trace.
#[derive(Clone)]
pub(crate) struct Barrier {
    pub(crate) cfg: SystemConfig,
    pub(crate) replicas: usize,
    pub(crate) train: TrainModel,
    ds: Dataset,
    pub(crate) report: RunReport,
    /// The throughput series join `report` only in
    /// [`finish`](Barrier::finish); until then the scalars words carry them.
    pub(crate) gen_series: TimeSeries,
    pub(crate) train_series: TimeSeries,
    /// Batches stepped so far: batch `n` is the next one to generate.
    pub(crate) n: usize,
    /// Whether the run records spans.
    pub(crate) enabled: bool,
    spans: RecordingTrace,
}

impl Barrier {
    /// A run of `cfg` that has stepped no batch yet, reporting as `system`.
    pub(crate) fn new(
        cfg: SystemConfig,
        train: TrainModel,
        system: &str,
        record_trace: bool,
    ) -> Self {
        Barrier {
            replicas: cfg.replicas(),
            train,
            ds: cfg.dataset(),
            cfg,
            report: RunReport {
                system: system.into(),
                ..RunReport::default()
            },
            gen_series: TimeSeries::new(),
            train_series: TimeSeries::new(),
            n: 0,
            enabled: record_trace,
            spans: RecordingTrace::new(),
        }
    }

    /// True once every configured batch has been stepped.
    pub(crate) fn done(&self) -> bool {
        self.n >= self.cfg.total_iterations()
    }

    /// Buffers `span` if the run records spans.
    pub(crate) fn rec(&mut self, span: TraceSpan) {
        if self.enabled {
            self.spans.record(span);
        }
    }

    /// Draws batch `n` and generates it from `start_secs` on the run's
    /// timeline, buffering its engine spans, which carry weight `version`,
    /// if the run records spans.
    pub(crate) fn generate(&mut self, start_secs: f64, version: u64) -> BatchGenStats {
        let specs = self.cfg.next_specs(&mut self.ds, self.n as u64);
        let start = Duration::from_secs_f64(start_secs);
        let trace: &mut dyn TraceSink = if self.enabled {
            &mut self.spans
        } else {
            &mut NullTrace
        };
        generate_batch_at(&self.cfg, &specs, self.replicas, start, version, trace)
    }

    /// Records a measured iteration of `secs` that trained on batch `gen`:
    /// each of its trajectories was generated by one policy version and
    /// consumed at `staleness`.
    pub(crate) fn record(&mut self, secs: f64, gen: &BatchGenStats, staleness: u64) {
        let report = &mut self.report;
        report.iteration_secs.push(secs);
        report.iteration_tokens.push(gen.total_tokens);
        let consumed = ConsumedTraj {
            staleness,
            mixed_version: false,
        };
        let trajectories = gen.completion_tokens.len();
        report
            .consumed
            .extend(std::iter::repeat_n(consumed, trajectories));
        let gen_secs = gen.duration.as_secs_f64().max(1e-9);
        for (off, _) in &gen.completion_tokens {
            let finish = off.as_secs_f64() / gen_secs;
            report.staleness_by_finish.push((finish, staleness));
        }
        report.latencies.extend(gen.latencies.iter().copied());
    }

    /// The dataset's `(next prompt, next trajectory id)` cursor.
    pub(crate) fn cursor(&self) -> (u64, u64) {
        self.ds.cursor()
    }

    /// Moves the throughput series into the report, forwards the buffered
    /// spans to `trace`, and returns the finalized report.
    pub(crate) fn finish(mut self, trace: &mut dyn TraceSink) -> RunReport {
        self.report.gen_series = self.gen_series;
        self.report.train_series = self.train_series;
        trace.record_all(self.spans.take());
        self.report.finalize();
        self.report
    }

    /// The run's state image: the system's `scalars` words paged, then the
    /// buffered spans, then the report.
    pub(crate) fn image(&self, scalars: &[u64]) -> StateImage {
        let mut img = StateImage::new();
        let mut plane = StatePlane::new("scalars");
        plane.extend_paged(scalars);
        img.push_plane(plane);
        img.push_plane(encode_span_plane("spans", self.spans.spans()));
        img.push_plane(encode_report_plane("report", &self.report));
        img
    }
}
