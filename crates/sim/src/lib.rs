//! Deterministic discrete-event simulation engine for the Laminar reproduction.
//!
//! The simulator is the substrate on which every throughput experiment in the
//! paper is reproduced. Virtual time is tracked in integer nanoseconds so that
//! event ordering is exact and runs are bit-for-bit reproducible: two events
//! scheduled for the same instant are delivered in the order they were
//! scheduled (a monotonically increasing sequence number breaks ties).
//!
//! The engine is deliberately minimal: a [`Scheduler`] owns the pending event
//! queue and the clock, and a user-supplied *world* implementing [`SimWorld`]
//! owns all component state. Event handlers may schedule further events
//! through the scheduler handed to them. This "world owns everything" shape
//! avoids shared mutable component graphs, which keeps the borrow checker out
//! of the way while preserving determinism.
//!
//! # Examples
//!
//! ```
//! use laminar_sim::{Duration, Scheduler, SimWorld, Simulation, Time};
//!
//! struct Counter {
//!     fired: u32,
//! }
//!
//! impl SimWorld for Counter {
//!     type Event = ();
//!     fn handle(&mut self, _now: Time, _ev: (), sched: &mut Scheduler<()>) {
//!         self.fired += 1;
//!         if self.fired < 3 {
//!             sched.after(Duration::from_secs(1), ());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Counter { fired: 0 });
//! sim.scheduler.at(Time::ZERO, ());
//! sim.run_to_completion();
//! assert_eq!(sim.world.fired, 3);
//! assert_eq!(sim.scheduler.now(), Time::from_secs(2));
//! ```

pub mod engine;
pub mod policy;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use engine::{Scheduler, SimWorld, Simulation};
pub use policy::{BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
pub use rng::SimRng;
pub use stats::{Histogram, OnlineStats, TimeSeries, TimeWeighted};
pub use time::{Duration, Time};
pub use trace::{SpanKind, TraceSpan};
