//! The four workloads.  Each drives the program through its public API
//! (`ServeEngine`, `Engine`, `UserLedger`, `StrategyStore`) with inputs made
//! from the seed, and returns what the run measured and checked.

use crate::check::{prefix_sums, splitmix, Checker};
use crate::layers::Stages;
use crate::trace::{self, CountingFaults, TracedAccountant, TracedBackend, TracedSelector};
use crate::trace::{TracedStructuredSelector, TracedWorkload};
use mm_core::bounds::rms_error_bound;
use mm_core::eigen_design::{workload_eigensystem, EigenDesignOptions};
use mm_core::engine::{
    CachedSelection, EigenDesignSelector, PrivacyBudget, SelectionPlan, StrategyStore,
    TreeStructuredSelector,
};
use mm_core::{Engine, GaussianBackend, PrivacyParams, SequentialAccountant, UserLedger};
use mm_linalg::decomp::SymmetricEigen;
use mm_linalg::{LinearOperator, Matrix};
use mm_opt::{cg_normal_equations, solve_log_gd, CgOptions, GdOptions, WeightingProblem};
use mm_serve::{block_on, ServeEngine};
use mm_workload::range::RandomRangeWorkload;
use mm_workload::{
    try_gram_fingerprint, Domain, Fingerprint, RangeQueryWorkload, StructuredWorkload, Workload,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::future::Future;
use std::path::{Path, PathBuf};
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::Instant;

/// Cells of the dense workloads' domain.
pub const DENSE_CELLS: usize = 256;
/// Random ranges per dense workload (2n queries).
pub const DENSE_QUERIES: usize = 2 * DENSE_CELLS;
/// Hot workloads written to the store before `hot_answer` starts.
pub const HOT_SET: usize = 8;
/// Earlier selections written to the store before `cold_select` starts; its
/// set-up restarts the engine from them, and its requests never reuse them.
pub const PRIOR_SET: usize = 4;
/// Data vectors per `batch_answer` request.
pub const BATCH_WIDTH: usize = 1024;
/// Cells and random intervals of the structured workload.
pub const STRUCTURED_CELLS: usize = 65_536;
pub const STRUCTURED_INTERVALS: usize = 4096;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 25;
/// Dense inputs the traced run times the selection stages on.
const STAGE_SAMPLES: usize = 4;

/// Requests per second of `--seconds` each workload sends: a run's request
/// count is fixed by `--seconds`, so every run of a workload reports its
/// percentiles from the same number of samples.
pub fn requests_for(workload: &str, seconds: u64) -> u64 {
    let rate = match workload {
        "cold_select" => 2.2,
        "hot_answer" => 50.0,
        "batch_answer" => 4.0,
        "structured_answer" => 4.5,
        _ => unreachable!("workload names are checked at parse time"),
    };
    ((seconds as f64 * rate).round() as u64).max(1)
}

pub fn privacy() -> PrivacyParams {
    PrivacyParams::paper_default()
}

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Scratch directory for stores; removed when the run ends.
    pub scratch: PathBuf,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: Vec<f64>,
    pub latencies_ms: Vec<f64>,
    pub answers: u64,
    pub window_s: f64,
    pub checker: Checker,
    pub stages: Stages,
    pub queue_depth_max: usize,
    /// Exact counts reported in the summary line.
    pub counts: Vec<(&'static str, u64)>,
}

impl Outcome {
    fn guard(&mut self, what: &'static str, got: u64, want: u64) {
        self.counts.push((what, got));
        if got != want {
            self.checker
                .fail(format!("workload guard: {what} = {got}, expected {want}"));
        }
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A seed for stream `i` of the run seeded `seed`.
fn mix(seed: u64, i: u64) -> u64 {
    splitmix(seed ^ splitmix(i))
}

fn engine(traced: bool, store: Option<&Path>) -> Arc<Engine> {
    let mut b = Engine::builder().privacy(privacy());
    if let Some(dir) = store {
        b = b.strategy_store(dir);
    }
    if traced {
        b = b
            .selector(TracedSelector(Arc::new(EigenDesignSelector::default())))
            .structured_selector(TracedStructuredSelector(Arc::new(
                TreeStructuredSelector::default(),
            )))
            .backend(TracedBackend(Arc::new(GaussianBackend)))
            .fault_injector(CountingFaults);
    }
    Arc::new(
        b.build()
            .expect("engine builds with the paper's privacy parameters"),
    )
}

fn serve_tier(engine: Arc<Engine>) -> ServeEngine {
    ServeEngine::builder(engine).workers(1).build()
}

fn ledger(traced: bool, name: &str, answers: u64) -> UserLedger {
    // Twice the planned spend: every ledger must end with headroom.
    let total = PrivacyBudget::new(
        2.0 * answers as f64 * privacy().epsilon,
        2.0 * answers as f64 * privacy().delta,
    );
    if traced {
        let inner = Box::new(SequentialAccountant::new(total));
        UserLedger::with_accountant(name, Box::new(TracedAccountant(inner)))
    } else {
        UserLedger::new(name, total)
    }
}

fn dense<W: Workload + Send + Sync + 'static>(
    traced: bool,
    w: &Arc<W>,
    request: u64,
) -> Arc<dyn Workload + Send + Sync> {
    if traced {
        Arc::new(TracedWorkload {
            inner: w.clone(),
            request,
        })
    } else {
        w.clone()
    }
}

fn structured(
    traced: bool,
    w: &Arc<RangeQueryWorkload>,
    request: u64,
) -> Arc<dyn StructuredWorkload + Send + Sync> {
    if traced {
        Arc::new(TracedWorkload {
            inner: w.clone(),
            request,
        })
    } else {
        w.clone()
    }
}

fn range_workload(rng: &mut StdRng) -> Arc<RandomRangeWorkload> {
    Arc::new(RandomRangeWorkload::sample(
        Domain::one_dim(DENSE_CELLS),
        DENSE_QUERIES,
        rng,
    ))
}

fn intervals(w: &RandomRangeWorkload) -> Vec<(usize, usize)> {
    w.boxes().iter().map(|b| (b.lows[0], b.highs[0])).collect()
}

/// A data vector of cell counts.
fn data(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(0..1000u32) as f64).collect()
}

fn fingerprint(engine: &Engine, gram: &Matrix) -> Fingerprint {
    let base = try_gram_fingerprint(gram).expect("range grams hold no NaN");
    engine.plan_fingerprint(base, gram.rows())
}

/// One request, timed from submit to the resolved future.  A traced request
/// is the root span `serve.request`; after its first poll the serve tier's
/// queue depth is sampled.
fn request<F, T>(
    serve: &ServeEngine,
    traced: bool,
    id: u64,
    depth: &mut usize,
    submit: impl FnOnce() -> F,
) -> (T, f64)
where
    F: Future<Output = T> + Unpin,
{
    if !traced {
        let t0 = Instant::now();
        let out = block_on(submit());
        return (out, ms(t0));
    }
    trace::set_request(id);
    let root = trace::open("serve.request");
    let t0 = Instant::now();
    let mut fut = submit();
    trace::submitted();
    let first = Pin::new(&mut fut).poll(&mut Context::from_waker(Waker::noop()));
    *depth = (*depth).max(serve.health().queue_depth);
    let out = match first {
        Poll::Ready(out) => out,
        Poll::Pending => block_on(fut),
    };
    let latency = ms(t0);
    trace::end_answer();
    trace::close(root);
    trace::set_request(0);
    (out, latency)
}

/// Times `setup` [`SETUP_REPEATS`] times, keeping the last serve tier.
fn repeated_setup(out: &mut Outcome, mut setup: impl FnMut(usize) -> ServeEngine) -> ServeEngine {
    let mut kept: Option<ServeEngine> = None;
    for r in 0..SETUP_REPEATS {
        if let Some(serve) = kept.take() {
            retire(serve);
        }
        let t0 = Instant::now();
        kept = Some(setup(r));
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    kept.expect("at least one set-up")
}

/// Frees a serve tier's cached plans and leaves its two parked threads to
/// end with the process.  Dropping a freshly started `ServeEngine` can hang
/// in `join` (its shutdown notify can race the worker's first wait), so the
/// benchmark never drops one.
pub fn retire(serve: ServeEngine) {
    serve.engine().clear_cache();
    std::mem::forget(serve);
}

fn serve_guards(out: &mut Outcome, serve: &ServeEngine) {
    let s = serve.stats();
    out.guard("serve.shed", s.shed, 0);
    out.guard("serve.rejected", s.rejected, 0);
    out.guard("serve.deadline_expired", s.deadline_expired, 0);
    out.guard("serve.failed", s.failed, 0);
}

/// The dense stage functions, timed one by one on a workload's gram and
/// the plan `engine` holds for it.
fn time_dense_stages(stages: &mut Stages, scratch: &Path, engine: &Engine, gram: &Matrix) {
    let fp = fingerprint(engine, gram);
    let plan = engine.cached_plan(fp).expect("sampled plans stay cached");
    let strategy = plan.as_dense().expect("dense plan").strategy().clone();
    let opts = EigenDesignOptions::default();
    let (_, retained, q) = workload_eigensystem(gram, opts.rank_tol).expect("eigensystem");
    let problem = WeightingProblem::from_design_queries(&q, retained).expect("weighting problem");
    let t0 = Instant::now();
    let solution = solve_log_gd(&problem, &GdOptions::default()).expect("weighting solve");
    stages.weighting_ms.push(ms(t0));
    stages.weighting_iters.push(solution.iterations as f64);
    let fresh = CachedSelection::new(strategy);
    let t0 = Instant::now();
    fresh.factor().expect("strategy factor");
    stages.cholesky_ms.push(ms(t0));
    let t0 = Instant::now();
    fresh.trace_term(gram).expect("trace term");
    stages.trace_ms.push(ms(t0));
    let t0 = Instant::now();
    std::hint::black_box(try_gram_fingerprint(gram).expect("fingerprint"));
    stages.fingerprint_ms.push(ms(t0));
    time_store_stages(stages, scratch, fp, &plan, Some(gram));
}

/// `StrategyStore::try_save` and `load` of `plan` on a scratch store.
fn time_store_stages(
    stages: &mut Stages,
    dir: &Path,
    fp: Fingerprint,
    plan: &SelectionPlan,
    gram: Option<&Matrix>,
) {
    let store = StrategyStore::open(dir).expect("scratch store opens");
    let t0 = Instant::now();
    let saved = store.try_save(fp, plan, gram);
    stages.save_ms.push(ms(t0));
    assert_eq!(saved, mm_core::engine::SaveOutcome::Written, "scratch save");
    let bytes = std::fs::metadata(store.entry_path(fp))
        .map(|m| m.len())
        .unwrap_or(0);
    stages.entry_kb.push(bytes as f64 / 1024.0);
    let t0 = Instant::now();
    let loaded = store.load(fp);
    stages.load_ms.push(ms(t0));
    assert!(loaded.is_some(), "scratch load");
}

/// Guards that every set-up loaded all of `workloads` from the store: the
/// counting `FaultInjector` saw `expected_reads` store reads since
/// `reads_before` (traced runs), and the engine holds each plan.
fn warm_guards(
    out: &mut Outcome,
    o: &Opts,
    engine: &Engine,
    workloads: &[Arc<RandomRangeWorkload>],
    reads_before: u64,
    expected_reads: usize,
) {
    if o.traced {
        let (_, reads, _) = trace::counts();
        out.guard(
            "faults.store_reads_in_setup",
            reads - reads_before,
            expected_reads as u64,
        );
    }
    let warm = workloads
        .iter()
        .filter(|w| engine.cached_plan(fingerprint(engine, &w.gram())).is_some())
        .count();
    out.guard(
        "setup.store_entries_warm",
        warm as u64,
        workloads.len() as u64,
    );
}

/// `cold_select`: every request is a distinct random-range workload, so
/// every request misses and runs the whole selection on its blocking path.
/// Set-up restarts the engine from a store that holds [`PRIOR_SET`] earlier
/// selections, as a server restarted against its persistent store does.
pub fn cold_select(o: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let n_req = requests_for(&o.workload, o.seconds);
    let mut rng = StdRng::seed_from_u64(o.seed);
    let inputs: Vec<(Arc<RandomRangeWorkload>, Vec<f64>)> = (0..n_req)
        .map(|_| (range_workload(&mut rng), data(&mut rng, DENSE_CELLS)))
        .collect();
    let mut prior_rng = StdRng::seed_from_u64(mix(o.seed ^ 0xC01D, 0));
    let prior: Vec<Arc<RandomRangeWorkload>> = (0..PRIOR_SET)
        .map(|_| range_workload(&mut prior_rng))
        .collect();
    let store_dir = o.scratch.join("cold-store");
    prewrite_store(o.traced, &store_dir, &prior);

    let (_, reads_before, _) = trace::counts();
    let serve = repeated_setup(&mut out, |_| serve_tier(engine(o.traced, Some(&store_dir))));
    let engine = serve.engine().clone();
    warm_guards(
        &mut out,
        o,
        &engine,
        &prior,
        reads_before,
        PRIOR_SET * SETUP_REPEATS,
    );
    let ledger = ledger(o.traced, "client-0", n_req);
    let (_, _, writes_before) = trace::counts();
    let mut rms = Vec::with_capacity(n_req as usize);
    let started = Instant::now();
    for (i, (w, x)) in inputs.iter().enumerate() {
        let id = i as u64 + 1;
        let truth = prefix_sums(x);
        let (res, latency) = request(&serve, o.traced, id, &mut out.queue_depth_max, || {
            serve.answer_for(&ledger, dense(o.traced, w, id), x.clone(), mix(o.seed, id))
        });
        out.attempted += 1;
        out.latencies_ms.push(latency);
        match res {
            Ok(a) => {
                let iv = intervals(w);
                out.checker.answer(
                    (id, 0),
                    &iv,
                    &truth,
                    &a.answers,
                    &a.estimate,
                    a.expected_rms_error,
                );
                out.answers += 1;
                rms.push(a.expected_rms_error);
            }
            Err(e) => {
                out.failed += 1;
                rms.push(f64::NAN);
                out.checker.fail(format!("request {id} failed: {e}"));
            }
        }
    }
    out.window_s = started.elapsed().as_secs_f64();
    let stats = engine.stats();
    out.guard("engine.cache_misses", stats.cache_misses, n_req);
    out.guard("engine.selections", stats.selections, n_req);
    out.guard("engine.store_writes", stats.store_writes, n_req);
    out.guard("serve.selection_jobs", serve.stats().selection_jobs, n_req);
    if o.traced {
        let (_, _, writes) = trace::counts();
        out.guard("faults.store_writes", writes - writes_before, n_req);
    }
    serve_guards(&mut out, &serve);
    out.checker.ledger(&ledger, out.answers, privacy().epsilon);

    // Thm 2: no strategy beats the singular-value bound of its workload.
    let first_sample = inputs.len().saturating_sub(STAGE_SAMPLES);
    for (i, ((w, _), &err)) in inputs.iter().zip(&rms).enumerate() {
        let gram = w.gram();
        let t0 = Instant::now();
        let eig = SymmetricEigen::new(&gram).expect("eigensolve of a range gram");
        out.stages.eigen_ms.push(ms(t0));
        let ev: Vec<f64> = eig.eigenvalues().iter().map(|&l| l.max(0.0)).collect();
        let bound = rms_error_bound(&ev, w.query_count(), &privacy());
        if err.is_finite() && err < bound * (1.0 - 1e-9) {
            out.checker.fail(format!(
                "request {}: expected RMS error {err} is below the Thm 2 bound {bound}",
                i + 1
            ));
        }
        if o.traced && i >= first_sample && err.is_finite() {
            time_dense_stages(
                &mut out.stages,
                &o.scratch.join("stage-store"),
                &engine,
                &gram,
            );
        }
    }
    retire(serve);
    out
}

/// Writes `workloads`' selections to a store directory before the timed
/// part of a run (not part of `setup_s`).
fn prewrite_store(traced: bool, dir: &Path, workloads: &[Arc<RandomRangeWorkload>]) {
    let engine = engine(traced, Some(dir));
    for w in workloads {
        engine
            .select_plan_for(&*dense(traced, w, 0))
            .expect("selection of a range workload");
    }
}

/// Stage timings of the two workloads served from a warm store.
fn warm_stages(out: &mut Outcome, o: &Opts, engine: &Engine, hot: &[Arc<RandomRangeWorkload>]) {
    for w in hot.iter().take(STAGE_SAMPLES) {
        let gram = w.gram();
        let t0 = Instant::now();
        SymmetricEigen::new(&gram).expect("eigensolve of a range gram");
        out.stages.eigen_ms.push(ms(t0));
        time_dense_stages(
            &mut out.stages,
            &o.scratch.join("stage-store"),
            engine,
            &gram,
        );
    }
}

/// `hot_answer`: an engine restarted from a store holding a small hot set;
/// two clients send one fresh data vector per request against it.
pub fn hot_answer(o: &Opts) -> Outcome {
    const CLIENTS: u64 = 2;
    let mut out = Outcome::default();
    let n_req = requests_for(&o.workload, o.seconds);
    let mut rng = StdRng::seed_from_u64(o.seed);
    let hot: Vec<Arc<RandomRangeWorkload>> =
        (0..HOT_SET).map(|_| range_workload(&mut rng)).collect();
    let hot_iv: Vec<Vec<(usize, usize)>> = hot.iter().map(|w| intervals(w)).collect();
    let requests: Vec<(usize, Vec<f64>)> = (0..n_req)
        .map(|_| (rng.gen_range(0..HOT_SET), data(&mut rng, DENSE_CELLS)))
        .collect();
    let store_dir = o.scratch.join("hot-store");
    prewrite_store(o.traced, &store_dir, &hot);

    let (_, reads_before, _) = trace::counts();
    let serve = repeated_setup(&mut out, |_| serve_tier(engine(o.traced, Some(&store_dir))));
    let engine = serve.engine().clone();
    warm_guards(
        &mut out,
        o,
        &engine,
        &hot,
        reads_before,
        HOT_SET * SETUP_REPEATS,
    );

    let ledgers: Vec<UserLedger> = (0..CLIENTS)
        .map(|c| ledger(o.traced, &format!("client-{c}"), n_req))
        .collect();
    let started = Instant::now();
    let per_client: Vec<(Vec<f64>, Checker, u64, u64, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (serve, hot, hot_iv, requests, ledger) =
                    (&serve, &hot, &hot_iv, &requests, &ledgers[c as usize]);
                scope.spawn(move || {
                    let mut latencies = Vec::new();
                    let mut checker = Checker::default();
                    let (mut released, mut failed, mut depth) = (0, 0, 0);
                    for (i, (h, x)) in requests.iter().enumerate() {
                        if i as u64 % CLIENTS != c {
                            continue;
                        }
                        let id = i as u64 + 1;
                        let truth = prefix_sums(x);
                        let (res, latency) = request(serve, o.traced, id, &mut depth, || {
                            let w = dense(o.traced, &hot[*h], id);
                            serve.answer_for(ledger, w, x.clone(), mix(o.seed, id))
                        });
                        latencies.push(latency);
                        match res {
                            Ok(a) => {
                                checker.answer(
                                    (id, 0),
                                    &hot_iv[*h],
                                    &truth,
                                    &a.answers,
                                    &a.estimate,
                                    a.expected_rms_error,
                                );
                                released += 1;
                            }
                            Err(e) => {
                                failed += 1;
                                checker.fail(format!("request {id} failed: {e}"));
                            }
                        }
                    }
                    (latencies, checker, released, failed, depth)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    out.window_s = started.elapsed().as_secs_f64();
    for (c, (latencies, checker, released, failed, depth)) in per_client.into_iter().enumerate() {
        out.latencies_ms.extend(latencies);
        out.checker.merge(checker);
        out.checker.ledger(&ledgers[c], released, privacy().epsilon);
        out.answers += released;
        out.failed += failed;
        out.queue_depth_max = out.queue_depth_max.max(depth);
    }
    out.attempted = n_req;
    let stats = engine.stats();
    out.guard("engine.selections", stats.selections, 0);
    out.guard("engine.cache_misses", stats.cache_misses, 0);
    serve_guards(&mut out, &serve);
    if o.traced {
        warm_stages(&mut out, o, &engine, &hot);
    }
    retire(serve);
    out
}

/// `batch_answer`: one cached workload; each request answers
/// [`BATCH_WIDTH`] fresh data vectors.
pub fn batch_answer(o: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let n_req = requests_for(&o.workload, o.seconds);
    let mut rng = StdRng::seed_from_u64(o.seed);
    let w = range_workload(&mut rng);
    let iv = intervals(&w);
    let store_dir = o.scratch.join("batch-store");
    prewrite_store(o.traced, &store_dir, std::slice::from_ref(&w));
    let serve = repeated_setup(&mut out, |_| serve_tier(engine(o.traced, Some(&store_dir))));
    let engine = serve.engine().clone();
    // δ composes additively, so one principal affords fewer than 1/δ
    // answers: each batch is charged to its own ledger.
    let ledgers: Vec<UserLedger> = (0..n_req)
        .map(|i| ledger(o.traced, &format!("batch-{i}"), BATCH_WIDTH as u64))
        .collect();
    let started = Instant::now();
    for (i, ledger) in (0..n_req).zip(&ledgers) {
        let id = i + 1;
        // Each batch's data comes from its own stream, made before the
        // request's clock starts.
        let mut data_rng = StdRng::seed_from_u64(mix(o.seed ^ 0xBA7C, id));
        let xs: Vec<Vec<f64>> = (0..BATCH_WIDTH)
            .map(|_| data(&mut data_rng, DENSE_CELLS))
            .collect();
        let truths: Vec<Vec<f64>> = xs.iter().map(|x| prefix_sums(x)).collect();
        let (res, latency) = request(&serve, o.traced, id, &mut out.queue_depth_max, || {
            serve.answer_batch_for(ledger, dense(o.traced, &w, id), xs, mix(o.seed, id))
        });
        out.attempted += 1;
        out.latencies_ms.push(latency);
        match res {
            Ok(answers) => {
                if answers.len() != BATCH_WIDTH {
                    out.checker.fail(format!(
                        "request {id}: {} answers for {BATCH_WIDTH} data vectors",
                        answers.len()
                    ));
                }
                for (k, (a, truth)) in answers.iter().zip(&truths).enumerate() {
                    out.checker.answer(
                        (id, k),
                        &iv,
                        truth,
                        &a.answers,
                        &a.estimate,
                        a.expected_rms_error,
                    );
                }
                out.answers += answers.len() as u64;
                out.checker
                    .ledger(ledger, answers.len() as u64, privacy().epsilon);
            }
            Err(e) => {
                out.failed += 1;
                out.checker.fail(format!("request {id} failed: {e}"));
            }
        }
    }
    out.window_s = started.elapsed().as_secs_f64();
    let stats = engine.stats();
    out.guard("engine.selections", stats.selections, 0);
    out.guard("engine.cache_misses", stats.cache_misses, 0);
    serve_guards(&mut out, &serve);
    if o.traced {
        warm_stages(&mut out, o, &engine, std::slice::from_ref(&w));
    }
    retire(serve);
    out
}

/// Random intervals over `n` cells: a length uniform in `1..=n`, then a
/// start uniform among the valid ones.
fn random_intervals(rng: &mut StdRng, n: usize, count: usize) -> Vec<(usize, usize)> {
    (0..count)
        .map(|_| {
            let len = rng.gen_range(1..=n);
            let lo = rng.gen_range(0..=(n - len));
            (lo, lo + len - 1)
        })
        .collect()
}

/// `structured_answer`: the matrix-free path on a large domain with random
/// intervals; the strategy is selected in set-up and cached.
pub fn structured_answer(o: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let n_req = requests_for(&o.workload, o.seconds);
    let mut rng = StdRng::seed_from_u64(o.seed);
    let iv = random_intervals(&mut rng, STRUCTURED_CELLS, STRUCTURED_INTERVALS);
    let w = Arc::new(RangeQueryWorkload::from_intervals(
        STRUCTURED_CELLS,
        iv.clone(),
    ));
    let serve = repeated_setup(&mut out, |_| {
        let serve = serve_tier(engine(o.traced, None));
        serve
            .engine()
            .select_structured(&structured(o.traced, &w, 0).descriptor())
            .expect("structured selection");
        serve
    });
    let engine = serve.engine().clone();
    let ledger = ledger(o.traced, "client-0", n_req);
    let started = Instant::now();
    for i in 0..n_req {
        let id = i + 1;
        let mut data_rng = StdRng::seed_from_u64(mix(o.seed ^ 0x57A7, id));
        let x = data(&mut data_rng, STRUCTURED_CELLS);
        let truth = prefix_sums(&x);
        let (res, latency) = request(&serve, o.traced, id, &mut out.queue_depth_max, || {
            serve.answer_structured_for(&ledger, structured(o.traced, &w, id), x, mix(o.seed, id))
        });
        out.attempted += 1;
        out.latencies_ms.push(latency);
        match res {
            Ok(a) => match a.expected_rms_error {
                Some(err) => {
                    out.checker
                        .answer((id, 0), &iv, &truth, &a.answers, &a.estimate, err);
                    out.answers += 1;
                }
                None => {
                    out.answers += 1;
                    out.checker
                        .fail(format!("request {id}: no analytic RMS error"));
                }
            },
            Err(e) => {
                out.failed += 1;
                out.checker.fail(format!("request {id} failed: {e}"));
            }
        }
    }
    out.window_s = started.elapsed().as_secs_f64();
    let stats = engine.stats();
    out.guard(
        "engine.structured_selections",
        stats.structured_selections,
        1,
    );
    out.guard(
        "engine.structured_cache_hits",
        stats.structured_cache_hits,
        n_req,
    );
    out.guard("serve.structured", serve.stats().structured, n_req);
    serve_guards(&mut out, &serve);
    out.checker.ledger(&ledger, out.answers, privacy().epsilon);
    if o.traced {
        let (strategy, fp, _) = engine
            .select_structured(&w.descriptor())
            .expect("cached structured strategy");
        let op = strategy.operator().clone();
        let mut cg_rng = StdRng::seed_from_u64(mix(o.seed ^ 0xC6, 0));
        for _ in 0..3 {
            let x = data(&mut cg_rng, STRUCTURED_CELLS);
            let mut y = op.apply(&x);
            for v in y.iter_mut() {
                *v += cg_rng.gen_range(-50.0..50.0);
            }
            let t0 = Instant::now();
            let est = cg_normal_equations(
                |v| op.apply(v),
                |u| op.apply_transpose(u),
                &y,
                &CgOptions::default(),
            )
            .expect("cg over the structured strategy");
            out.stages.cg_ms.push(ms(t0));
            std::hint::black_box(est);
        }
        let plan = engine.cached_plan(fp).expect("structured plan cached");
        time_store_stages(
            &mut out.stages,
            &o.scratch.join("stage-store"),
            fp,
            &plan,
            None,
        );
    }
    retire(serve);
    out
}
