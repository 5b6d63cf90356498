//! Timing decorators around the public trait objects a `Simulation`
//! takes: [`Model`], [`FederatedAlgorithm`] and [`Compressor`].
//!
//! Each decorator forwards every trait method, defaulted ones
//! included, to the wrapped object and records how long the call took
//! into a shared [`Probe`]. The simulation cannot tell a decorated run
//! from a plain one, so both produce the same `History`; the probe
//! turns the calls it saw into per-layer tallies.
//!
//! The probe also splits the round thread's wall time. A round's
//! *local window* runs from the end of the last `local_rule` call to
//! the start of the first server-side call (any algorithm or codec call
//! other than `local_rule`): that is where the clients train. Time the
//! round thread spends inside decorated calls outside the windows is
//! summed as `outside_s`; whatever remains of the run is the residual
//! (participation draw, validation, decode, records).

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use taco_core::compress::{Compressor, EncodedDelta};
use taco_core::{
    ClientUpdate, CostProfile, FederatedAlgorithm, HyperParams, LocalRule, UploadStats,
    WeightedCombine,
};
use taco_nn::{Batch, Model};
use taco_tensor::Prng;

/// A wall-clock origin.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// Starts a clock at the current instant.
    pub fn start() -> Clock {
        // taco-check: allow(wall-clock, benchmark timing: readings are reported and never reach the simulation)
        Clock(Instant::now())
    }

    /// Seconds since [`Clock::start`].
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Calls into one layer: how many, the seconds they were busy, and
/// each call's duration.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub busy_s: f64,
    pub samples: Vec<f64>,
}

impl Tally {
    fn add(&mut self, secs: f64) {
        self.busy_s += secs;
        self.samples.push(secs);
    }

    pub fn calls(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Median call duration in seconds; 0 without calls.
    pub fn p50(&self) -> f64 {
        crate::median(&self.samples)
    }
}

/// The layers a decorated call is charged to.
#[derive(Debug, Clone, Copy)]
enum Layer {
    /// `Model::loss_and_grad`.
    Grad,
    /// `Model::loss_and_accuracy`.
    Eval,
    /// `Model::{clone_model, set_params, params}`: parameter copies.
    Copy,
    /// `FederatedAlgorithm::local_rule`.
    LocalRule,
    /// `FederatedAlgorithm::aggregate`.
    Aggregate,
    /// `FederatedAlgorithm::{plan_aggregation, commit_aggregation}`.
    Plan,
    /// `Compressor::{encode, roundtrip}`.
    Encode,
    /// Every other forwarded call.
    Other,
}

/// Everything one traced run's decorators recorded.
#[derive(Debug, Default, Clone)]
pub struct Tallies {
    pub grad: Tally,
    pub eval: Tally,
    pub copy: Tally,
    pub local_rule: Tally,
    pub aggregate: Tally,
    pub plan: Tally,
    pub encode: Tally,
    pub other: Tally,
    /// Bytes of `f32` input handed to the codec.
    pub encode_in_bytes: u64,
    /// Round-thread seconds inside local windows.
    pub window_s: f64,
    /// Round-thread seconds inside decorated calls outside the local
    /// windows.
    pub outside_s: f64,
}

impl Tallies {
    fn layer(&mut self, layer: Layer) -> &mut Tally {
        match layer {
            Layer::Grad => &mut self.grad,
            Layer::Eval => &mut self.eval,
            Layer::Copy => &mut self.copy,
            Layer::LocalRule => &mut self.local_rule,
            Layer::Aggregate => &mut self.aggregate,
            Layer::Plan => &mut self.plan,
            Layer::Encode => &mut self.encode,
            Layer::Other => &mut self.other,
        }
    }
}

#[derive(Default)]
struct ProbeState {
    tallies: Tallies,
    /// End of the latest `local_rule` call while its window is open.
    window_open_at: Option<f64>,
}

/// Shared recorder for the decorators of one run.
pub struct Probe {
    clock: Clock,
    state: Mutex<ProbeState>,
}

impl Probe {
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe {
            clock: Clock::start(),
            state: Mutex::new(ProbeState::default()),
        })
    }

    /// A copy of the tallies so far.
    pub fn tallies(&self) -> Tallies {
        self.lock().tallies.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ProbeState> {
        // Every update below leaves the state whole, so a poisoned
        // lock still holds valid tallies.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A model call. Inside a local window it may run on any pool
    /// thread and belongs to the window; outside one it runs on the
    /// round thread and counts towards `outside_s`.
    fn model<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = self.clock.secs();
        let out = f();
        let secs = self.clock.secs() - start;
        let mut st = self.lock();
        st.tallies.layer(layer).add(secs);
        if st.window_open_at.is_none() {
            st.tallies.outside_s += secs;
        }
        out
    }

    /// `local_rule`: (re)opens the local window at its end.
    fn local_rule<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = self.clock.secs();
        let out = f();
        let end = self.clock.secs();
        let mut st = self.lock();
        st.tallies.layer(Layer::LocalRule).add(end - start);
        st.tallies.outside_s += end - start;
        st.window_open_at = Some(end);
        out
    }

    /// Any other algorithm or codec call: closes an open local window
    /// at its start.
    fn server<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = self.clock.secs();
        {
            let mut st = self.lock();
            if let Some(open) = st.window_open_at.take() {
                st.tallies.window_s += start - open;
            }
        }
        let out = f();
        let secs = self.clock.secs() - start;
        let mut st = self.lock();
        st.tallies.layer(layer).add(secs);
        st.tallies.outside_s += secs;
        out
    }
}

/// A [`Model`] whose calls are timed into a [`Probe`]. Its clones are
/// decorated too, so every client copy reports to the same probe.
pub struct TimedModel {
    inner: Box<dyn Model>,
    probe: Arc<Probe>,
}

impl TimedModel {
    pub fn new(inner: Box<dyn Model>, probe: Arc<Probe>) -> TimedModel {
        TimedModel { inner, probe }
    }
}

impl Model for TimedModel {
    fn param_count(&mut self) -> usize {
        let inner = &mut self.inner;
        self.probe.model(Layer::Other, || inner.param_count())
    }

    fn params(&mut self) -> Vec<f32> {
        let inner = &mut self.inner;
        self.probe.model(Layer::Copy, || inner.params())
    }

    fn set_params(&mut self, params: &[f32]) {
        let inner = &mut self.inner;
        self.probe.model(Layer::Copy, || inner.set_params(params))
    }

    fn loss_and_grad(&mut self, batch: &Batch) -> (f32, Vec<f32>) {
        let inner = &mut self.inner;
        self.probe.model(Layer::Grad, || inner.loss_and_grad(batch))
    }

    fn loss_and_accuracy(&mut self, batch: &Batch) -> (f32, f32) {
        let inner = &mut self.inner;
        self.probe
            .model(Layer::Eval, || inner.loss_and_accuracy(batch))
    }

    fn clone_model(&self) -> Box<dyn Model> {
        let inner = self.probe.model(Layer::Copy, || self.inner.clone_model());
        Box::new(TimedModel::new(inner, Arc::clone(&self.probe)))
    }
}

/// A [`FederatedAlgorithm`] whose calls are timed into a [`Probe`].
pub struct TimedAlgorithm {
    inner: Box<dyn FederatedAlgorithm>,
    probe: Arc<Probe>,
}

impl TimedAlgorithm {
    pub fn new(inner: Box<dyn FederatedAlgorithm>, probe: Arc<Probe>) -> TimedAlgorithm {
        TimedAlgorithm { inner, probe }
    }
}

impl FederatedAlgorithm for TimedAlgorithm {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn begin_round(&mut self, round: usize, global: &[f32]) {
        let inner = &mut self.inner;
        self.probe
            .server(Layer::Other, || inner.begin_round(round, global))
    }

    fn local_rule(&self, client: usize, global: &[f32]) -> LocalRule {
        self.probe
            .local_rule(|| self.inner.local_rule(client, global))
    }

    fn aggregate(
        &mut self,
        global: &[f32],
        updates: &[ClientUpdate],
        hyper: &HyperParams,
    ) -> Vec<f32> {
        let inner = &mut self.inner;
        self.probe
            .server(Layer::Aggregate, || inner.aggregate(global, updates, hyper))
    }

    fn wants_upload_stats(&self) -> bool {
        self.probe
            .server(Layer::Other, || self.inner.wants_upload_stats())
    }

    fn plan_aggregation(
        &mut self,
        global: &[f32],
        updates: &[ClientUpdate],
        stats: Option<&UploadStats>,
        hyper: &HyperParams,
    ) -> Option<WeightedCombine> {
        let inner = &mut self.inner;
        self.probe.server(Layer::Plan, || {
            inner.plan_aggregation(global, updates, stats, hyper)
        })
    }

    fn commit_aggregation(&mut self, global: &[f32], combined: &[f32]) {
        let inner = &mut self.inner;
        self.probe
            .server(Layer::Plan, || inner.commit_aggregation(global, combined))
    }

    fn output_params(&self, global: &[f32]) -> Vec<f32> {
        self.probe
            .server(Layer::Other, || self.inner.output_params(global))
    }

    fn expelled(&self) -> Vec<usize> {
        self.probe.server(Layer::Other, || self.inner.expelled())
    }

    fn suspected(&self) -> Vec<usize> {
        self.probe.server(Layer::Other, || self.inner.suspected())
    }

    fn client_joined(&mut self, client: usize) {
        let inner = &mut self.inner;
        self.probe
            .server(Layer::Other, || inner.client_joined(client))
    }

    fn client_departed(&mut self, client: usize) {
        let inner = &mut self.inner;
        self.probe
            .server(Layer::Other, || inner.client_departed(client))
    }

    fn tracked_client_states(&self) -> usize {
        self.probe
            .server(Layer::Other, || self.inner.tracked_client_states())
    }

    fn report_invalid_update(&mut self, client: usize) {
        let inner = &mut self.inner;
        self.probe
            .server(Layer::Other, || inner.report_invalid_update(client))
    }

    fn alphas(&self) -> Option<&[f32]> {
        self.probe.server(Layer::Other, || self.inner.alphas())
    }

    fn uploads_momentum(&self) -> bool {
        self.probe
            .server(Layer::Other, || self.inner.uploads_momentum())
    }

    fn cost_profile(&self) -> CostProfile {
        self.probe
            .server(Layer::Other, || self.inner.cost_profile())
    }
}

/// A [`Compressor`] whose calls are timed into a [`Probe`].
pub struct TimedCompressor {
    inner: Arc<dyn Compressor>,
    probe: Arc<Probe>,
}

impl TimedCompressor {
    pub fn new(inner: Arc<dyn Compressor>, probe: Arc<Probe>) -> TimedCompressor {
        TimedCompressor { inner, probe }
    }

    fn count_input(&self, input: &[f32]) {
        self.probe.lock().tallies.encode_in_bytes += std::mem::size_of_val(input) as u64;
    }
}

impl Compressor for TimedCompressor {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn encode(&self, input: &[f32], stream: &mut Prng) -> EncodedDelta {
        let out = self
            .probe
            .server(Layer::Encode, || self.inner.encode(input, stream));
        self.count_input(input);
        out
    }

    fn roundtrip(&self, input: &[f32], stream: &mut Prng) -> Vec<f32> {
        let out = self
            .probe
            .server(Layer::Encode, || self.inner.roundtrip(input, stream));
        self.count_input(input);
        out
    }
}

#[cfg(test)]
mod tests {
    //! Every trait method must reach the wrapped object: a method left
    //! to its trait default would silently move TACO onto another path
    //! (for instance `wants_upload_stats` or `plan_aggregation`). Each
    //! mock overrides every method with a value no default returns and
    //! logs the call, so a missed forward fails here.

    use super::*;
    use taco_tensor::Tensor;

    type Log = Arc<Mutex<Vec<&'static str>>>;

    fn logged(log: &Log) -> Vec<&'static str> {
        log.lock().unwrap().clone()
    }

    struct MockAlgorithm {
        log: Log,
        alphas: Vec<f32>,
    }

    impl MockAlgorithm {
        fn note(&self, what: &'static str) {
            self.log.lock().unwrap().push(what);
        }
    }

    fn plan() -> WeightedCombine {
        WeightedCombine {
            weights: vec![2.0],
            pre_scale: Some(3.0),
            step_scale: -4.0,
        }
    }

    impl FederatedAlgorithm for MockAlgorithm {
        fn name(&self) -> &'static str {
            "mock"
        }
        fn begin_round(&mut self, _round: usize, _global: &[f32]) {
            self.note("begin_round");
        }
        fn local_rule(&self, _client: usize, _global: &[f32]) -> LocalRule {
            self.note("local_rule");
            LocalRule::Correction { term: vec![7.0] }
        }
        fn aggregate(&mut self, _g: &[f32], _u: &[ClientUpdate], _h: &HyperParams) -> Vec<f32> {
            self.note("aggregate");
            vec![8.0]
        }
        fn wants_upload_stats(&self) -> bool {
            self.note("wants_upload_stats");
            true
        }
        fn plan_aggregation(
            &mut self,
            _g: &[f32],
            _u: &[ClientUpdate],
            _s: Option<&UploadStats>,
            _h: &HyperParams,
        ) -> Option<WeightedCombine> {
            self.note("plan_aggregation");
            Some(plan())
        }
        fn commit_aggregation(&mut self, _g: &[f32], _c: &[f32]) {
            self.note("commit_aggregation");
        }
        fn output_params(&self, _g: &[f32]) -> Vec<f32> {
            self.note("output_params");
            vec![9.0]
        }
        fn expelled(&self) -> Vec<usize> {
            self.note("expelled");
            vec![3]
        }
        fn suspected(&self) -> Vec<usize> {
            self.note("suspected");
            vec![4]
        }
        fn client_joined(&mut self, _c: usize) {
            self.note("client_joined");
        }
        fn client_departed(&mut self, _c: usize) {
            self.note("client_departed");
        }
        fn tracked_client_states(&self) -> usize {
            self.note("tracked_client_states");
            5
        }
        fn report_invalid_update(&mut self, _c: usize) {
            self.note("report_invalid_update");
        }
        fn alphas(&self) -> Option<&[f32]> {
            self.note("alphas");
            Some(&self.alphas)
        }
        fn uploads_momentum(&self) -> bool {
            self.note("uploads_momentum");
            true
        }
        fn cost_profile(&self) -> CostProfile {
            self.note("cost_profile");
            CostProfile {
                grads_per_step: 6,
                extra_vector_ops: 7,
            }
        }
    }

    #[test]
    fn algorithm_decorator_forwards_every_method() {
        let log = Log::default();
        let mock = MockAlgorithm {
            log: Arc::clone(&log),
            alphas: vec![0.25],
        };
        let probe = Probe::new();
        let mut alg: Box<dyn FederatedAlgorithm> =
            Box::new(TimedAlgorithm::new(Box::new(mock), Arc::clone(&probe)));
        let hyper = HyperParams::new(1, 1, 0.1, 1);
        let g = [0.0f32];

        assert_eq!(alg.name(), "mock");
        alg.begin_round(0, &g);
        assert!(matches!(
            alg.local_rule(0, &g),
            LocalRule::Correction { term } if term == vec![7.0]
        ));
        assert_eq!(alg.aggregate(&g, &[], &hyper), vec![8.0]);
        assert!(alg.wants_upload_stats());
        assert_eq!(alg.plan_aggregation(&g, &[], None, &hyper), Some(plan()));
        alg.commit_aggregation(&g, &g);
        assert_eq!(alg.output_params(&g), vec![9.0]);
        assert_eq!(alg.expelled(), vec![3]);
        assert_eq!(alg.suspected(), vec![4]);
        alg.client_joined(0);
        alg.client_departed(0);
        assert_eq!(alg.tracked_client_states(), 5);
        alg.report_invalid_update(0);
        assert_eq!(alg.alphas(), Some(&[0.25f32][..]));
        assert!(alg.uploads_momentum());
        assert_eq!(
            alg.cost_profile(),
            CostProfile {
                grads_per_step: 6,
                extra_vector_ops: 7
            }
        );

        assert_eq!(
            logged(&log),
            vec![
                "begin_round",
                "local_rule",
                "aggregate",
                "wants_upload_stats",
                "plan_aggregation",
                "commit_aggregation",
                "output_params",
                "expelled",
                "suspected",
                "client_joined",
                "client_departed",
                "tracked_client_states",
                "report_invalid_update",
                "alphas",
                "uploads_momentum",
                "cost_profile",
            ]
        );
        let t = probe.tallies();
        assert_eq!(t.local_rule.calls(), 1);
        assert_eq!(t.aggregate.calls(), 1);
        assert_eq!(t.plan.calls(), 2);
    }

    struct MockModel {
        log: Log,
    }

    impl Model for MockModel {
        fn param_count(&mut self) -> usize {
            self.log.lock().unwrap().push("param_count");
            11
        }
        fn params(&mut self) -> Vec<f32> {
            self.log.lock().unwrap().push("params");
            vec![12.0]
        }
        fn set_params(&mut self, _p: &[f32]) {
            self.log.lock().unwrap().push("set_params");
        }
        fn loss_and_grad(&mut self, _b: &Batch) -> (f32, Vec<f32>) {
            self.log.lock().unwrap().push("loss_and_grad");
            (13.0, vec![14.0])
        }
        fn loss_and_accuracy(&mut self, _b: &Batch) -> (f32, f32) {
            self.log.lock().unwrap().push("loss_and_accuracy");
            (15.0, 0.5)
        }
        fn clone_model(&self) -> Box<dyn Model> {
            self.log.lock().unwrap().push("clone_model");
            Box::new(MockModel {
                log: Arc::clone(&self.log),
            })
        }
    }

    #[test]
    fn model_decorator_forwards_every_method_and_decorates_clones() {
        let log = Log::default();
        let probe = Probe::new();
        let mut m = TimedModel::new(
            Box::new(MockModel {
                log: Arc::clone(&log),
            }),
            Arc::clone(&probe),
        );
        let batch = Batch::new(Tensor::zeros([1, 1]), vec![0]);
        assert_eq!(m.param_count(), 11);
        assert_eq!(m.params(), vec![12.0]);
        m.set_params(&[1.0]);
        assert_eq!(m.loss_and_grad(&batch), (13.0, vec![14.0]));
        assert_eq!(m.loss_and_accuracy(&batch), (15.0, 0.5));
        let mut copy = m.clone_model();
        assert_eq!(copy.loss_and_grad(&batch).0, 13.0);
        assert_eq!(
            logged(&log),
            vec![
                "param_count",
                "params",
                "set_params",
                "loss_and_grad",
                "loss_and_accuracy",
                "clone_model",
                "loss_and_grad",
            ]
        );
        let t = probe.tallies();
        assert_eq!(t.grad.calls(), 2, "the clone reports to the same probe");
        assert_eq!(t.eval.calls(), 1);
        assert_eq!(t.copy.calls(), 3);
    }

    struct MockCodec {
        log: Log,
    }

    impl Compressor for MockCodec {
        fn name(&self) -> &'static str {
            "mock-codec"
        }
        fn encode(&self, input: &[f32], _s: &mut Prng) -> EncodedDelta {
            self.log.lock().unwrap().push("encode");
            EncodedDelta::Dense(input.iter().map(|x| x + 1.0).collect())
        }
        fn roundtrip(&self, _input: &[f32], _s: &mut Prng) -> Vec<f32> {
            self.log.lock().unwrap().push("roundtrip");
            vec![16.0]
        }
    }

    #[test]
    fn codec_decorator_forwards_every_method() {
        let log = Log::default();
        let probe = Probe::new();
        let codec = TimedCompressor::new(
            Arc::new(MockCodec {
                log: Arc::clone(&log),
            }),
            Arc::clone(&probe),
        );
        let mut stream = Prng::seed_from_u64(1);
        assert_eq!(codec.name(), "mock-codec");
        assert_eq!(codec.encode(&[1.0], &mut stream).decode(), vec![2.0]);
        assert_eq!(codec.roundtrip(&[1.0, 2.0], &mut stream), vec![16.0]);
        assert_eq!(logged(&log), vec!["encode", "roundtrip"]);
        let t = probe.tallies();
        assert_eq!(t.encode.calls(), 2);
        assert_eq!(t.encode_in_bytes, 12);
    }

    #[test]
    fn the_local_window_runs_from_the_last_local_rule_to_the_first_server_call() {
        let log = Log::default();
        let probe = Probe::new();
        let mut alg = TimedAlgorithm::new(
            Box::new(MockAlgorithm {
                log,
                alphas: Vec::new(),
            }),
            Arc::clone(&probe),
        );
        let g = [0.0f32];
        alg.begin_round(0, &g);
        let _ = alg.local_rule(0, &g);
        let _ = alg.local_rule(1, &g);
        let before = probe.tallies();
        assert_eq!(before.window_s, 0.0, "the window is still open");
        std::thread::sleep(std::time::Duration::from_millis(20));
        let _ = alg.expelled();
        let after = probe.tallies();
        assert!(after.window_s >= 0.015, "window {}", after.window_s);
        // A second server call does not reopen or extend the window.
        let _ = alg.expelled();
        assert_eq!(probe.tallies().window_s, after.window_s);
    }
}
