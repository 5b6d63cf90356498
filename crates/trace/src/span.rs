//! Lightweight spans: RAII timers that feed duration histograms.

use std::time::Instant;

/// A running span. Created by [`crate::quiet_span!`] or
/// [`Span::quiet`].
///
/// On [`Span::finish`] (or drop) the elapsed wall-clock time is
/// recorded into the global histogram `<name>.seconds`. A span never
/// emits an event: events go to the sink of the run that owns them.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Instant,
    done: bool,
}

impl Span {
    /// Starts a span (duration histogram only).
    #[expect(
        clippy::disallowed_methods,
        reason = "span timers feed trace histograms and never simulated time"
    )]
    pub fn quiet(name: &'static str) -> Self {
        Span {
            name,
            start: Instant::now(),
            done: false,
        }
    }

    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Ends the span now and returns the elapsed seconds.
    pub fn finish(mut self) -> f64 {
        self.complete()
    }

    fn complete(&mut self) -> f64 {
        self.done = true;
        let secs = self.start.elapsed().as_secs_f64();
        crate::histogram(&format!("{}.seconds", self.name)).observe(secs);
        secs
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.done {
            self.complete();
        }
    }
}

/// Starts a [`Span`]: `quiet_span!(phase::AGGREGATE)`. The name is any
/// `&'static str` expression — by convention a contract constant such
/// as `taco_sim::phase::AGGREGATE`.
#[macro_export]
macro_rules! quiet_span {
    ($name:expr) => {
        $crate::span::Span::quiet($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_duration_histogram() {
        let span = Span::quiet("test.span.quiet");
        let secs = span.finish();
        assert!(secs >= 0.0);
        let snap = crate::histogram("test.span.quiet.seconds").snapshot();
        assert!(snap.count >= 1);
    }
}
