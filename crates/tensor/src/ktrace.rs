//! Kernel-level instrumentation with cached metric handles.
//!
//! [`taco_trace::quiet_span!`] resolves its histogram by name on every
//! completion (a `format!` plus a registry lookup), which is fine for
//! round- or client-scale spans but too heavy for kernels that run
//! thousands of times per round on sub-millisecond inputs. Each kernel
//! here owns a [`Kernel`] static whose `Arc` handles are resolved once
//! and then cost two atomic adds plus an `Instant` read per call.
//!
//! Per kernel `<name>` the following metrics are registered:
//!
//! * `<name>.seconds` — histogram of wall-clock time per call, summing
//!   to total time-in-kernel (surfaces in run manifests via the trace
//!   snapshot embedded by `taco-bench`),
//! * `<name>.calls` — counter of invocations,
//! * `<name>.elems` — counter of work items (multiply-adds for matmul
//!   kernels, elements moved for packing/pooling kernels), so
//!   throughput is `elems / seconds.sum`.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use taco_trace::{Counter, Histogram};

/// Cached metric handles for one kernel. Construct as a `static` with
/// [`Kernel::new`] and wrap each kernel body in [`Kernel::record`].
pub(crate) struct Kernel {
    name: &'static str,
    seconds: OnceLock<Arc<Histogram>>,
    calls: OnceLock<Arc<Counter>>,
    elems: OnceLock<Arc<Counter>>,
}

impl Kernel {
    pub(crate) const fn new(name: &'static str) -> Self {
        Kernel {
            name,
            seconds: OnceLock::new(),
            calls: OnceLock::new(),
            elems: OnceLock::new(),
        }
    }

    /// Starts timing one kernel call performing `elems` work items;
    /// metrics are recorded when the returned guard drops.
    #[expect(
        clippy::disallowed_methods,
        reason = "kernel timings feed trace histograms and never simulated time"
    )]
    pub(crate) fn record(&'static self, elems: u64) -> KernelTimer {
        KernelTimer {
            kernel: self,
            elems,
            start: Instant::now(),
        }
    }

    fn observe(&'static self, seconds: f64, elems: u64) {
        self.seconds
            .get_or_init(|| taco_trace::histogram(&format!("{}.seconds", self.name)))
            .observe(seconds);
        self.calls
            .get_or_init(|| taco_trace::counter(&format!("{}.calls", self.name)))
            .incr();
        self.elems
            .get_or_init(|| taco_trace::counter(&format!("{}.elems", self.name)))
            .add(elems);
    }
}

/// RAII guard from [`Kernel::record`].
pub(crate) struct KernelTimer {
    kernel: &'static Kernel,
    elems: u64,
    start: Instant,
}

impl Drop for KernelTimer {
    fn drop(&mut self) {
        let dt = self.start.elapsed().as_secs_f64();
        self.kernel.observe(dt, self.elems);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST_KERNEL: Kernel = Kernel::new("kernel.ktrace_test");

    #[test]
    fn records_calls_seconds_and_elems() {
        {
            let _t = TEST_KERNEL.record(42);
        }
        {
            let _t = TEST_KERNEL.record(8);
        }
        assert_eq!(taco_trace::counter("kernel.ktrace_test.calls").get(), 2);
        assert_eq!(taco_trace::counter("kernel.ktrace_test.elems").get(), 50);
        assert_eq!(
            taco_trace::histogram("kernel.ktrace_test.seconds").count(),
            2
        );
    }
}
