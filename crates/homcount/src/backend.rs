//! The unified counting API: [`CountBackend`] implementations behind a
//! [`CountRequest`] builder, plus the one [`CountError`] hierarchy every
//! layer above speaks.
//!
//! Historically the crate grew three parallel entry-point families
//! (`count`/`count_with`/`try_count_with` free functions plus the
//! [`NaiveCounter`]/[`TreewidthCounter`] inherent methods), which the
//! engine, the containment checker, and the experiment binaries each wired
//! up slightly differently. This module collapses them: every count is a
//! [`CountRequest`] — query, structure, backend preference, cancellation
//! controls — and every registered kernel sits behind the [`CountBackend`]
//! trait. The old entry points survive as `#[deprecated]` shims.
//!
//! Four kernels register ([`BackendChoice`]):
//!
//! * `Naive` / `Treewidth` — the original arbitrary-precision [`Nat`]
//!   paths, kept as the cross-validation reference;
//! * `FastNaive` / `FastTreewidth` — the same kernels monomorphized over
//!   the widening [`bagcq_arith::Acc`] accumulator: `u64` while counts
//!   fit, checked promotion to `u128` and then `Nat` on overflow.
//!   Promotion is per *component* (Lemma 1 factors independently), so one
//!   astronomically large factor does not drag the others off the machine
//!   word. Never wrong, only fast.
//! * `Auto` — picks between the fast kernels by decomposition width and a
//!   cheap per-component count upper bound (see [`BackendChoice::resolve`]).
//!
//! The `BAGCQ_BACKEND` environment variable (values `naive`, `treewidth`,
//! `fast-naive`, `fast-treewidth`, `auto`) overrides what `Auto` resolves
//! to — the CI backend matrix forces each kernel through every `Auto` call
//! site this way. Explicitly pinned backends are never overridden, so
//! differential tests stay meaningful under the matrix.

use crate::cancel::{CancelReason, Cancelled, EvalControl, MemoryGauge};
use crate::eval::Engine;
use crate::naive::{self, NaiveCounter};
use crate::tw::{self, TreewidthCounter};
use bagcq_arith::{Acc, Nat};
use bagcq_query::Query;
use bagcq_structure::Structure;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

/// Typed failure of one counting request.
///
/// This is the single error hierarchy of the counting stack: budget and
/// deadline denial arrive as [`CountError::Cancelled`] (see
/// [`CancelReason`] for which), backend failure as
/// [`CountError::Mismatch`] or [`CountError::Transient`]. The engine and
/// containment crates re-export this type rather than defining their own,
/// so callers match one error family end to end.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CountError {
    /// The evaluation was cancelled (deadline, step budget, memory
    /// budget, engine shutdown, or a spurious injected cancellation — see
    /// [`CancelReason`]).
    Cancelled(Cancelled),
    /// Dual-engine cross-validation disagreed: one of the two counting
    /// engines has a bug, and no number can be trusted. Terminal.
    Mismatch(String),
    /// A transient infrastructure failure worth retrying.
    Transient(String),
}

impl fmt::Display for CountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CountError::Cancelled(c) => write!(f, "{c}"),
            CountError::Mismatch(msg) => write!(f, "cross-validation mismatch: {msg}"),
            CountError::Transient(msg) => write!(f, "transient failure: {msg}"),
        }
    }
}

impl std::error::Error for CountError {}

impl From<Cancelled> for CountError {
    fn from(c: Cancelled) -> Self {
        CountError::Cancelled(c)
    }
}

impl CountError {
    /// `true` for failures a retry may cure: transient errors and
    /// spurious cancellations (a cancellation nobody's deadline or budget
    /// explains).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            CountError::Transient(_) | CountError::Cancelled(Cancelled(CancelReason::Cancelled))
        )
    }

    /// The cancellation reason, when this is a budget/deadline denial.
    pub fn cancel_reason(&self) -> Option<CancelReason> {
        match self {
            CountError::Cancelled(Cancelled(r)) => Some(*r),
            _ => None,
        }
    }
}

/// Which kernel a [`CountRequest`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum BackendChoice {
    /// Pick a fast kernel by decomposition width and a per-component
    /// count upper bound (the default; see [`BackendChoice::resolve`]).
    #[default]
    Auto,
    /// Reference backtracking kernel, `Nat` accumulators throughout.
    Naive,
    /// Tree-decomposition DP kernel, `Nat` accumulators throughout.
    Treewidth,
    /// Backtracking kernel over the widening machine-word accumulator.
    FastNaive,
    /// Tree-decomposition DP over the widening machine-word accumulator.
    FastTreewidth,
}

impl BackendChoice {
    /// Every choice, `Auto` included (the CI backend matrix iterates
    /// this).
    pub const ALL: [BackendChoice; 5] = [
        BackendChoice::Auto,
        BackendChoice::Naive,
        BackendChoice::Treewidth,
        BackendChoice::FastNaive,
        BackendChoice::FastTreewidth,
    ];

    /// The four concrete registered kernels (what `Auto` resolves into,
    /// plus the reference paths).
    pub const REGISTERED: [BackendChoice; 4] = [
        BackendChoice::Naive,
        BackendChoice::Treewidth,
        BackendChoice::FastNaive,
        BackendChoice::FastTreewidth,
    ];

    /// Stable lowercase label (also the `BAGCQ_BACKEND` syntax).
    pub fn label(self) -> &'static str {
        match self {
            BackendChoice::Auto => "auto",
            BackendChoice::Naive => "naive",
            BackendChoice::Treewidth => "treewidth",
            BackendChoice::FastNaive => "fast-naive",
            BackendChoice::FastTreewidth => "fast-treewidth",
        }
    }

    /// The algorithm family this choice runs (fast variants share their
    /// reference kernel's family) — what cross-validation pairs against.
    pub fn family(self) -> Engine {
        match self {
            BackendChoice::Naive | BackendChoice::FastNaive => Engine::Naive,
            BackendChoice::Treewidth | BackendChoice::FastTreewidth | BackendChoice::Auto => {
                Engine::Treewidth
            }
        }
    }

    /// Resolves `Auto` to a concrete kernel for this `(query, structure)`
    /// pair; concrete choices return themselves unchanged.
    ///
    /// `Auto` always lands on a fast kernel (promotion makes them exact,
    /// so there is no correctness reason to prefer `Nat`), choosing naive
    /// vs. treewidth by comparing, per connected component, a cheap count
    /// upper bound (the product of the matched relations' sizes, capped by
    /// `n^{vars}` — which bounds the backtracking work) against the DP
    /// cost `#bags · n^{w+1}` of the min-fill decomposition. That is the
    /// DP's worst case; its index-driven enumeration usually does far
    /// less, but the model is kept on purpose so `Auto`'s choices stay
    /// comparable until it is recalibrated (DESIGN.md §3.8 holds the
    /// per-shape measurements for that). The `BAGCQ_BACKEND` environment
    /// variable overrides the outcome.
    pub fn resolve(self, q: &Query, d: &Structure) -> BackendChoice {
        if self != BackendChoice::Auto {
            return self;
        }
        match env_override() {
            Some(BackendChoice::Auto) | None => auto_choice(q, d),
            Some(forced) => forced,
        }
    }
}

impl fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for BackendChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().replace('_', "-").as_str() {
            "auto" => Ok(BackendChoice::Auto),
            "naive" => Ok(BackendChoice::Naive),
            "treewidth" | "tw" => Ok(BackendChoice::Treewidth),
            "fast-naive" | "fastnaive" => Ok(BackendChoice::FastNaive),
            "fast-treewidth" | "fasttreewidth" | "fast-tw" => Ok(BackendChoice::FastTreewidth),
            other => Err(format!(
                "unknown backend {other:?} (expected auto|naive|treewidth|fast-naive|fast-treewidth)"
            )),
        }
    }
}

/// The legacy two-engine enum maps onto the `Nat` reference kernels, so
/// pre-redesign call sites (`Job::count_with(Engine::Naive, ..)`) keep
/// their exact behavior.
impl From<Engine> for BackendChoice {
    fn from(e: Engine) -> Self {
        match e {
            Engine::Naive => BackendChoice::Naive,
            Engine::Treewidth => BackendChoice::Treewidth,
        }
    }
}

/// `BAGCQ_BACKEND` override for `Auto` resolution, parsed once per
/// process.
fn env_override() -> Option<BackendChoice> {
    static OVERRIDE: OnceLock<Option<BackendChoice>> = OnceLock::new();
    *OVERRIDE.get_or_init(|| match std::env::var("BAGCQ_BACKEND") {
        Ok(raw) => match raw.parse::<BackendChoice>() {
            Ok(choice) => Some(choice),
            Err(e) => {
                eprintln!("warning: ignoring BAGCQ_BACKEND: {e}");
                None
            }
        },
        Err(_) => None,
    })
}

/// Caps the log-space cost estimates so summing them in `f64` stays
/// finite (anything this large loses to anything smaller either way).
const COST_LOG_CAP: f64 = 400.0;

/// Width-and-size heuristic behind `Auto`: per component, compare the
/// count upper bound driving backtracking against the DP's bag sweep.
fn auto_choice(q: &Query, d: &Structure) -> BackendChoice {
    let comps = crate::common::components(q);
    let log_n = (d.vertex_count().max(2) as f64).log2();
    let mut naive_cost = 0.0f64;
    let mut tw_cost = 0.0f64;
    for (atom_idx, ineq_idx, vars) in &comps.comps {
        // Count upper bound: product of matched relation sizes, capped by
        // n^{vars} — both bound the assignments backtracking can visit.
        let product_log: f64 =
            atom_idx.iter().map(|&ai| (d.atom_count(q.atoms()[ai].rel).max(1) as f64).log2()).sum();
        let dom_log = vars.len() as f64 * log_n;
        let ub_log = if atom_idx.is_empty() { dom_log } else { product_log.min(dom_log) };
        naive_cost += ub_log.min(COST_LOG_CAP).exp2();

        let (td, _) = tw::decompose_component(q, atom_idx, ineq_idx, vars);
        let tw_log = (td.bags.len().max(1) as f64).log2() + (td.width() as f64 + 1.0) * log_n;
        tw_cost += tw_log.min(COST_LOG_CAP).exp2();
    }
    if tw_cost < naive_cost {
        BackendChoice::FastTreewidth
    } else {
        BackendChoice::FastNaive
    }
}

/// A registered counting kernel.
///
/// Implementations must be exact: every backend returns the same number
/// for the same `(query, structure)` pair (the fast kernels guarantee it
/// by checked promotion, and the differential test suite enforces it).
pub trait CountBackend: Send + Sync {
    /// Stable backend name (matches [`BackendChoice::label`]).
    fn name(&self) -> &'static str;

    /// Counts `|Hom(q, d)|` under cooperative cancellation controls.
    fn try_count(&self, q: &Query, d: &Structure, ctl: &EvalControl) -> Result<Nat, CountError>;
}

impl CountBackend for NaiveCounter {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn try_count(&self, q: &Query, d: &Structure, ctl: &EvalControl) -> Result<Nat, CountError> {
        Ok(naive::try_count_generic::<Nat>(q, d, ctl)?)
    }
}

impl CountBackend for TreewidthCounter {
    fn name(&self) -> &'static str {
        "treewidth"
    }

    fn try_count(&self, q: &Query, d: &Structure, ctl: &EvalControl) -> Result<Nat, CountError> {
        Ok(tw::try_count_generic::<Nat>(q, d, ctl)?)
    }
}

/// Machine-word fast-path variant of [`NaiveCounter`]: same backtracking
/// kernel, widening `u64 → u128 → Nat` accumulators.
#[derive(Default, Clone, Copy, Debug)]
pub struct FastNaiveCounter;

impl CountBackend for FastNaiveCounter {
    fn name(&self) -> &'static str {
        "fast-naive"
    }

    fn try_count(&self, q: &Query, d: &Structure, ctl: &EvalControl) -> Result<Nat, CountError> {
        Ok(naive::try_count_generic::<Acc>(q, d, ctl)?)
    }
}

/// Machine-word fast-path variant of [`TreewidthCounter`]: same DP
/// kernel, widening `u64 → u128 → Nat` accumulators in the bag tables.
#[derive(Default, Clone, Copy, Debug)]
pub struct FastTreewidthCounter;

impl CountBackend for FastTreewidthCounter {
    fn name(&self) -> &'static str {
        "fast-treewidth"
    }

    fn try_count(&self, q: &Query, d: &Structure, ctl: &EvalControl) -> Result<Nat, CountError> {
        Ok(tw::try_count_generic::<Acc>(q, d, ctl)?)
    }
}

/// The kernel registered for a concrete choice.
///
/// # Panics
///
/// On [`BackendChoice::Auto`], which only resolves against a concrete
/// `(query, structure)` pair — call [`BackendChoice::resolve`] first.
pub fn backend_for(choice: BackendChoice) -> &'static dyn CountBackend {
    static NAIVE: NaiveCounter = NaiveCounter;
    static TREEWIDTH: TreewidthCounter = TreewidthCounter;
    static FAST_NAIVE: FastNaiveCounter = FastNaiveCounter;
    static FAST_TREEWIDTH: FastTreewidthCounter = FastTreewidthCounter;
    match choice {
        BackendChoice::Naive => &NAIVE,
        BackendChoice::Treewidth => &TREEWIDTH,
        BackendChoice::FastNaive => &FAST_NAIVE,
        BackendChoice::FastTreewidth => &FAST_TREEWIDTH,
        BackendChoice::Auto => panic!("Auto must be resolved against a query/structure pair"),
    }
}

/// Every registered kernel with its choice tag — the paper-claims
/// conformance suite and the benches iterate this.
pub fn registered_backends() -> [(&'static dyn CountBackend, BackendChoice); 4] {
    BackendChoice::REGISTERED.map(|c| (backend_for(c), c))
}

/// One homomorphism count, built up fluently: query and structure plus a
/// backend preference and cancellation controls.
///
/// ```
/// use bagcq_homcount::{BackendChoice, CountRequest};
/// use bagcq_query::path_query;
/// use bagcq_structure::{SchemaBuilder, Structure, Vertex};
/// use std::sync::Arc;
///
/// let mut b = SchemaBuilder::default();
/// let e = b.relation("E", 2);
/// let schema = b.build();
/// let mut d = Structure::new(Arc::clone(&schema));
/// d.add_vertices(3);
/// for i in 0..3 {
///     for j in 0..3 {
///         d.add_atom(e, &[Vertex(i), Vertex(j)]);
///     }
/// }
/// let q = path_query(&schema, "E", 2);
/// let auto = CountRequest::new(&q, &d).count();
/// let pinned = CountRequest::new(&q, &d).backend(BackendChoice::Naive).count();
/// assert_eq!(auto, pinned); // backends are exact: all agree
/// ```
#[derive(Clone, Debug)]
pub struct CountRequest<'a> {
    query: &'a Query,
    database: &'a Structure,
    backend: BackendChoice,
    control: EvalControl,
}

impl<'a> CountRequest<'a> {
    /// A request with the default backend ([`BackendChoice::Auto`]) and
    /// unlimited controls.
    pub fn new(query: &'a Query, database: &'a Structure) -> Self {
        CountRequest {
            query,
            database,
            backend: BackendChoice::Auto,
            control: EvalControl::unlimited(),
        }
    }

    /// Sets the backend preference ([`Engine`] values are accepted and
    /// map to the `Nat` reference kernels).
    pub fn backend(mut self, backend: impl Into<BackendChoice>) -> Self {
        self.backend = backend.into();
        self
    }

    /// Installs full cancellation controls (budget, token, checkpoint
    /// hook, memory gauge).
    pub fn control(mut self, control: EvalControl) -> Self {
        self.control = control;
        self
    }

    /// Sets the step budget (`0` = unlimited) on the current controls.
    pub fn step_budget(mut self, steps: u64) -> Self {
        self.control = self.control.with_step_budget(steps);
        self
    }

    /// Installs a cancellation token on the current controls.
    pub fn cancel(mut self, token: crate::cancel::CancelToken) -> Self {
        self.control = self.control.with_cancel(token);
        self
    }

    /// Installs a memory gauge on the current controls.
    pub fn memory_gauge(mut self, gauge: Arc<dyn MemoryGauge>) -> Self {
        self.control = self.control.with_memory_gauge(gauge);
        self
    }

    /// The concrete kernel this request will run (resolves `Auto` against
    /// the query/structure pair — diagnostics, cache keys, bench labels).
    pub fn resolved_backend(&self) -> BackendChoice {
        self.backend.resolve(self.query, self.database)
    }

    /// Runs the count under the configured controls.
    pub fn run(&self) -> Result<Nat, CountError> {
        // Entry checkpoint: small queries may never reach a ticker poll
        // boundary, so fault-injection hooks get at least one shot per
        // count.
        self.control.checkpoint("homcount/count")?;
        let resolved = self.resolved_backend();
        let _span = bagcq_obs::span("homcount.request", resolved.label());
        backend_for(resolved).try_count(self.query, self.database, &self.control)
    }

    /// Runs the count, panicking on cancellation — the infallible
    /// convenience for requests whose controls cannot trip (the default).
    pub fn count(&self) -> Nat {
        self.run().expect("count failed under supposedly non-tripping controls")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcq_query::{cycle_query, grid_query, path_query};
    use bagcq_structure::{SchemaBuilder, Vertex};
    use std::sync::Arc;

    fn complete(n: u32) -> (Arc<bagcq_structure::Schema>, Structure) {
        let mut b = SchemaBuilder::default();
        let e = b.relation("E", 2);
        let s = b.build();
        let mut d = Structure::new(Arc::clone(&s));
        d.add_vertices(n);
        for i in 0..n {
            for j in 0..n {
                d.add_atom(e, &[Vertex(i), Vertex(j)]);
            }
        }
        (s, d)
    }

    #[test]
    fn all_backends_agree_on_basics() {
        let (s, d) = complete(4);
        for q in [
            path_query(&s, "E", 3),
            cycle_query(&s, "E", 4),
            grid_query(&s, "E", 2, 3),
            path_query(&s, "E", 1).power(3),
        ] {
            let reference = CountRequest::new(&q, &d).backend(BackendChoice::Naive).count();
            for (backend, choice) in registered_backends() {
                let got =
                    backend.try_count(&q, &d, &EvalControl::unlimited()).expect("unlimited count");
                assert_eq!(got, reference, "backend {choice} on {q}");
            }
            assert_eq!(CountRequest::new(&q, &d).count(), reference, "auto on {q}");
        }
    }

    #[test]
    fn labels_round_trip() {
        for choice in BackendChoice::ALL {
            assert_eq!(choice.label().parse::<BackendChoice>(), Ok(choice));
        }
        assert!("nonsense".parse::<BackendChoice>().is_err());
        assert_eq!("fast_naive".parse::<BackendChoice>(), Ok(BackendChoice::FastNaive));
        assert_eq!("TW".parse::<BackendChoice>(), Ok(BackendChoice::Treewidth));
    }

    #[test]
    fn engine_maps_to_reference_kernels() {
        assert_eq!(BackendChoice::from(Engine::Naive), BackendChoice::Naive);
        assert_eq!(BackendChoice::from(Engine::Treewidth), BackendChoice::Treewidth);
    }

    #[test]
    fn auto_resolves_to_a_fast_kernel() {
        let (s, d) = complete(3);
        let q = path_query(&s, "E", 4);
        let resolved = BackendChoice::Auto.resolve(&q, &d);
        assert!(
            matches!(resolved, BackendChoice::FastNaive | BackendChoice::FastTreewidth),
            "auto resolved to {resolved}"
        );
        // Concrete choices resolve to themselves.
        assert_eq!(BackendChoice::Naive.resolve(&q, &d), BackendChoice::Naive);
    }

    #[test]
    fn auto_prefers_treewidth_on_long_low_width_queries() {
        // A long path has width 1: the DP cost #bags·n² beats the
        // relation-product upper bound once the path is long and the
        // structure dense.
        let (s, d) = complete(8);
        let q = path_query(&s, "E", 12);
        assert_eq!(BackendChoice::Auto.resolve(&q, &d), BackendChoice::FastTreewidth);
    }

    #[test]
    fn step_budget_denial_arrives_as_count_error() {
        let (s, d) = complete(8);
        let q = path_query(&s, "E", 5);
        let err = CountRequest::new(&q, &d)
            .backend(BackendChoice::FastNaive)
            .step_budget(3)
            .run()
            .unwrap_err();
        assert_eq!(err.cancel_reason(), Some(CancelReason::BudgetExhausted));
        assert!(!err.is_transient());
    }

    #[test]
    fn cancel_token_trips_request() {
        use crate::cancel::CancelToken;
        let (s, d) = complete(6);
        let q = path_query(&s, "E", 6);
        let token = CancelToken::new();
        token.cancel();
        // Pin the backtracking kernel: the DP finishes this query in fewer
        // than CHECK_INTERVAL ticks, so the token would never be polled.
        let err = CountRequest::new(&q, &d)
            .backend(BackendChoice::FastNaive)
            .cancel(token)
            .run()
            .unwrap_err();
        assert!(matches!(err, CountError::Cancelled(_)));
    }
}
