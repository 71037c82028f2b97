//! Spans and the pass-through wrappers that record them.
//!
//! Every wrapper forwards each call to the wrapped object unchanged and
//! returns its result untouched, so a traced run releases the same bits as
//! an untraced one.  A wrapper only adds a span (name, start, end, parent,
//! request id) around the forwarded call, or a count.
//!
//! Spans are kept in memory and written out when the run ends.  Parents
//! come from a per-thread stack of open spans; a span opened with an empty
//! stack belongs to its request's root span (`serve.request`), which is how
//! the selection a serve worker runs for a request is attributed to it.
//! The request id travels with the traced workload object, because the
//! engine hands the workload to whichever thread runs the selection.

use mm_core::accounting::{Accountant, MechanismEvent};
use mm_core::engine::{PrivacyBudget, SelectionContext, StrategySelector, StructuredSelector};
use mm_core::{Fault, FaultInjector, FaultSite, NoiseBackend, PrivacyParams};
use mm_linalg::{LinearOperator, Matrix};
use mm_strategies::{Strategy, StructuredStrategy};
use mm_workload::{StructuredWorkload, Workload, WorkloadDescriptor};
use rand::RngCore;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One closed span.  Times are nanoseconds since the tracer's epoch.
#[derive(Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// 0 outside any request (set-up, store pre-write, stage timings).
    pub request: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub thread: u64,
}

struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    next_thread: AtomicU64,
    spans: Mutex<Vec<Span>>,
    noise_draws: AtomicU64,
    store_reads: AtomicU64,
    store_writes: AtomicU64,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        next_thread: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
        noise_draws: AtomicU64::new(0),
        store_reads: AtomicU64::new(0),
        store_writes: AtomicU64::new(0),
    })
}

thread_local! {
    static STACK: RefCell<Vec<(u64, &'static str, u64)>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
    static THREAD: Cell<u64> = const { Cell::new(0) };
    /// Set between a request's submit returning and its resolution: the
    /// first engine-side seam call in that window opens `engine.answer`.
    static AWAITING: Cell<bool> = const { Cell::new(false) };
    static ANSWER_SPAN: Cell<Option<u64>> = const { Cell::new(None) };
}

fn now_ns() -> u64 {
    u64::try_from(tracer().epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn thread_id() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(tracer().next_thread.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Opens a span on this thread's stack and returns its id.
pub fn open(name: &'static str) -> u64 {
    let id = tracer().next_id.fetch_add(1, Ordering::Relaxed);
    let start = now_ns();
    STACK.with(|s| s.borrow_mut().push((id, name, start)));
    id
}

/// Closes the span `id`, which must be the innermost open span.
pub fn close(id: u64) {
    let end = now_ns();
    let (name, start, parent) = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let (top, name, start) = stack.pop().expect("close without an open span");
        assert_eq!(top, id, "spans must close innermost first");
        (name, start, stack.last().map(|&(p, _, _)| p))
    });
    let span = Span {
        id,
        parent,
        request: REQUEST.with(Cell::get),
        name,
        start,
        end,
        thread: thread_id(),
    };
    tracer()
        .spans
        .lock()
        .expect("span store poisoned")
        .push(span);
}

/// Runs `f` inside a span.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = open(name);
    let out = f();
    close(id);
    out
}

/// Marks the calling thread as working for `request` (0: no request).
pub fn set_request(request: u64) {
    REQUEST.with(|r| r.set(request));
}

/// Called by the client once `submit` returned: the next engine-side seam
/// call on this thread starts the engine's answer path.
pub fn submitted() {
    AWAITING.with(|a| a.set(true));
}

fn maybe_open_answer() {
    if AWAITING.with(Cell::get) && ANSWER_SPAN.with(Cell::get).is_none() {
        ANSWER_SPAN.with(|a| a.set(Some(open("engine.answer"))));
    }
}

/// Closes `engine.answer` if it is open (after the release's charge, or when
/// the request resolves).
pub fn end_answer() {
    if let Some(id) = ANSWER_SPAN.with(Cell::take) {
        close(id);
    }
    AWAITING.with(|a| a.set(false));
}

/// Every span recorded so far, ordered by id.
pub fn take_spans() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *tracer().spans.lock().expect("span store poisoned"));
    spans.sort_by_key(|s| s.id);
    spans
}

/// Counts kept at the seams: (noise draws, store reads, store writes).
pub fn counts() -> (u64, u64, u64) {
    let t = tracer();
    (
        t.noise_draws.load(Ordering::Relaxed),
        t.store_reads.load(Ordering::Relaxed),
        t.store_writes.load(Ordering::Relaxed),
    )
}

/// A workload whose gram and evaluations are spanned.  One wrapper is made
/// per request, carrying the request id to whichever thread uses it.
#[derive(Debug)]
pub struct TracedWorkload<W: ?Sized> {
    pub inner: Arc<W>,
    pub request: u64,
}

impl<W: Workload + ?Sized> TracedWorkload<W> {
    fn enter(&self) {
        set_request(self.request);
    }
}

impl<W: Workload + ?Sized> Workload for TracedWorkload<W> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn query_count(&self) -> usize {
        self.inner.query_count()
    }

    fn gram(&self) -> Matrix {
        self.enter();
        span("workload.gram", || self.inner.gram())
    }

    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        span("workload.evaluate", || self.inner.evaluate(x))
    }

    fn evaluate_matrix(&self, x: &Matrix) -> Matrix {
        span("workload.evaluate", || self.inner.evaluate_matrix(x))
    }

    fn description(&self) -> String {
        self.inner.description()
    }

    fn query_squared_norms(&self) -> Vec<f64> {
        self.inner.query_squared_norms()
    }

    fn to_matrix(&self) -> Option<Matrix> {
        self.inner.to_matrix()
    }
}

impl<W: StructuredWorkload + ?Sized> StructuredWorkload for TracedWorkload<W> {
    fn operator(&self) -> Arc<dyn LinearOperator> {
        Arc::new(TracedOperator {
            inner: self.inner.operator(),
        })
    }

    fn descriptor(&self) -> WorkloadDescriptor {
        self.enter();
        self.inner.descriptor()
    }
}

/// The workload's interval operator, with its applies spanned.
#[derive(Debug)]
struct TracedOperator {
    inner: Arc<dyn LinearOperator>,
}

impl LinearOperator for TracedOperator {
    fn dims(&self) -> (usize, usize) {
        self.inner.dims()
    }

    fn apply(&self, x: &[f64]) -> Vec<f64> {
        span("workload.evaluate", || self.inner.apply(x))
    }

    fn apply_transpose(&self, y: &[f64]) -> Vec<f64> {
        span("workload.evaluate", || self.inner.apply_transpose(y))
    }

    fn gram_diag(&self) -> Option<Vec<f64>> {
        self.inner.gram_diag()
    }

    fn materialize(&self) -> Option<Matrix> {
        self.inner.materialize()
    }
}

/// The dense strategy selector, spanned as `engine.select`.
#[derive(Debug)]
pub struct TracedSelector(pub Arc<dyn StrategySelector>);

impl StrategySelector for TracedSelector {
    fn name(&self) -> String {
        self.0.name()
    }

    fn needs_workload_matrix(&self) -> bool {
        self.0.needs_workload_matrix()
    }

    fn select(&self, ctx: &SelectionContext) -> mm_core::Result<Strategy> {
        span("engine.select", || self.0.select(ctx))
    }
}

/// The structured selector, spanned as `structured.select`.
#[derive(Debug)]
pub struct TracedStructuredSelector(pub Arc<dyn StructuredSelector>);

impl StructuredSelector for TracedStructuredSelector {
    fn name(&self) -> String {
        self.0.name()
    }

    fn select(&self, descriptor: &WorkloadDescriptor) -> mm_core::Result<StructuredStrategy> {
        span("structured.select", || self.0.select(descriptor))
    }
}

/// The noise backend: draws are spanned as `mechanism.noise` and counted.
#[derive(Debug)]
pub struct TracedBackend(pub Arc<dyn NoiseBackend>);

impl NoiseBackend for TracedBackend {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn validate(&self, privacy: &PrivacyParams) -> mm_core::Result<()> {
        self.0.validate(privacy)
    }

    fn sensitivity(&self, strategy: &Strategy) -> f64 {
        self.0.sensitivity(strategy)
    }

    fn sensitivity_from_norms(&self, l2: f64, l1: f64) -> f64 {
        self.0.sensitivity_from_norms(l2, l1)
    }

    fn noise_scale(&self, privacy: &PrivacyParams, sensitivity: f64) -> f64 {
        self.0.noise_scale(privacy, sensitivity)
    }

    fn error_constant(&self, privacy: &PrivacyParams) -> mm_core::Result<f64> {
        self.0.error_constant(privacy)
    }

    fn sample(&self, rng: &mut dyn RngCore, scale: f64, len: usize) -> Vec<f64> {
        tracer()
            .noise_draws
            .fetch_add(len as u64, Ordering::Relaxed);
        span("mechanism.noise", || self.0.sample(rng, scale, len))
    }

    fn mechanism_event(&self, privacy: &PrivacyParams, sensitivity: f64) -> MechanismEvent {
        maybe_open_answer();
        self.0.mechanism_event(privacy, sensitivity)
    }
}

/// The accountant inside a `UserLedger`: checks and charges are spanned.
/// A charge ends the engine's answer path for the request it releases.
#[derive(Debug)]
pub struct TracedAccountant(pub Box<dyn Accountant>);

impl Accountant for TracedAccountant {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn total(&self) -> PrivacyBudget {
        self.0.total()
    }

    fn spent(&self) -> PrivacyBudget {
        self.0.spent()
    }

    fn remaining(&self) -> PrivacyBudget {
        self.0.remaining()
    }

    fn events(&self) -> Vec<MechanismEvent> {
        self.0.events()
    }

    fn check_many(&self, event: &MechanismEvent, count: usize) -> mm_core::Result<()> {
        span("accounting.check", || self.0.check_many(event, count))
    }

    fn charge_many(&mut self, event: &MechanismEvent, count: usize) -> mm_core::Result<()> {
        let out = span("accounting.charge", || self.0.charge_many(event, count));
        end_answer();
        out
    }

    fn clone_box(&self) -> Box<dyn Accountant> {
        Box::new(TracedAccountant(self.0.clone_box()))
    }
}

/// A fault injector that never injects; it counts store reads and writes.
#[derive(Debug, Default)]
pub struct CountingFaults;

impl FaultInjector for CountingFaults {
    fn inject(&self, site: FaultSite) -> Option<Fault> {
        match site {
            FaultSite::StoreRead => {
                tracer().store_reads.fetch_add(1, Ordering::Relaxed);
            }
            FaultSite::StoreWrite => {
                tracer().store_writes.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        None
    }
}
