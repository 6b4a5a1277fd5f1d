//! The trial engine — every candidate evaluation funnels through here.
//!
//! A *trial* is one real execution of the application under a
//! [`ScalingSpec`]. Three properties make trials cheap without changing
//! what the search returns:
//!
//! 1. **Memoization.** Results are cached under a canonical fingerprint
//!    of `(spec, app identity, system identity)`, so any spec executes at
//!    most once per engine. `trials` keeps counting what the sequential
//!    search would have *charged* (first ask per spec, successful or
//!    not); repeat asks are reported separately as cache hits.
//! 2. **Fault forking.** On a system with an active fault plan, each
//!    distinct spec runs under [`FaultPlan::fork`] salted with its
//!    fingerprint: the fault stream a trial sees depends only on the
//!    spec, never on how many trials ran before it. Evaluation is thereby
//!    a pure function of the spec, which is what makes memoization and
//!    speculation sound under injected faults. Inert plans fork to inert
//!    plans, so fault-free behavior is bit-identical to the pre-engine
//!    tuner.
//! 3. **Speculation.** [`TrialEngine::prefetch`] executes a batch of
//!    specs concurrently (scoped threads) and parks the results in the
//!    cache *uncharged*. The caller then replays its sequential pruning
//!    semantics through [`TrialEngine::trial`]; speculative results the
//!    replay never asks for stay uncharged and uncounted, so `trials`
//!    and the returned configuration are bit-identical to a sequential
//!    engine.
//!
//! A fourth property makes trials *durable* without changing what the
//! search returns:
//!
//! 4. **Write-ahead journaling.** With a [`TrialJournal`] attached, every
//!    real execution is appended (and fsynced) to the journal before its
//!    result is used. A later engine replays the journal into its cache
//!    *uncharged* via [`TrialEngine::attach_journal`]; the deterministic
//!    search then re-asks the same specs in the same order, charging the
//!    replayed entries without re-executing them — so a resumed tune is
//!    bit-identical to an uninterrupted one (including its `trials` and
//!    `cache_hits` accounting) while re-charging zero completed trials.
//!    An armed [`CrashPoint`] kills the run (panics with
//!    [`prescaler_faults::SimulatedCrash`]) at a seeded journal-append
//!    boundary, optionally tearing the journal tail first — the
//!    deterministic drill for exactly that recovery path.
//!
//! A fifth makes each execution cheaper: the engine calls
//! [`HostApp::program`] once, and every trial's session — sequential,
//! clean-twin or speculative — runs on one [`VariantCache`] over that
//! program. A kernel variant is compiled once per engine, and its
//! disjoint-access proof once per kernel. The cache lives as long as the
//! engine; nothing the engine returns keeps it alive.
//!
//! [`FaultPlan::fork`]: prescaler_sim::FaultPlan::fork

use crate::profiler::AppProfile;
use crate::search::Evaluation;
use prescaler_faults::{CrashPoint, SimulatedCrash, TearMode};
use prescaler_ir::Program;
use prescaler_ocl::{
    default_exec_threads, run_app_shared, HostApp, PlanChoice, ScalingSpec, VariantCache,
};
use prescaler_persist::{EvalBits, TrialJournal, TrialRecord};
use prescaler_polybench::output_quality;
use prescaler_sim::{HostMethod, SystemModel};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Execution counters of one engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrialStats {
    /// Trials charged to the search (first ask per spec, failed or not).
    pub charged: usize,
    /// Asks answered from the cache after the spec was already charged.
    pub cache_hits: usize,
    /// Real application executions, including uncharged speculative ones.
    pub executions: usize,
    /// Candidates rejected by the static precision-safety analysis
    /// before any execution — skipped entirely, never charged.
    pub pruned_static: usize,
}

struct Entry {
    eval: Option<Evaluation>,
    charged: bool,
}

struct State {
    cache: HashMap<(u64, bool), Entry>,
    stats: TrialStats,
    /// Attached write-ahead journal; `None` runs non-durably. Dropped
    /// (degrading to non-durable) if an append ever fails — durability is
    /// best-effort and must never take the tuning run down with it.
    journal: Option<TrialJournal>,
}

/// Memoizing, optionally speculative evaluator for one `(app, system)`
/// pair. See the module docs for the determinism argument.
pub struct TrialEngine<'a> {
    app: &'a dyn HostApp,
    system: &'a SystemModel,
    clean: SystemModel,
    profile: &'a AppProfile,
    /// The app's program and the kernel variants every trial shares.
    variants: Arc<VariantCache>,
    /// Active fault plan on `system`? Decides namespace split + forking.
    faulty: bool,
    speculate: bool,
    /// Real worker-thread budget shared between speculative trial-level
    /// parallelism and intra-trial data-parallel execution: `k` concurrent
    /// prefetch workers each get `max(1, budget / k)` threads, while
    /// sequential trials get the whole budget.
    exec_threads: usize,
    base_fp: u64,
    /// Armed crash drill: observed once per journaled execution.
    crash: Option<CrashPoint>,
    state: Mutex<State>,
}

impl<'a> TrialEngine<'a> {
    /// Creates an engine whose thread budget is the host's core count.
    /// Speculation is on only when that budget exceeds one core — on a
    /// single core the fan-out would serialize anyway and speculative
    /// misses would cost real time.
    #[must_use]
    pub fn new(app: &'a dyn HostApp, system: &'a SystemModel, profile: &'a AppProfile) -> Self {
        let exec_threads = default_exec_threads();
        Self::build(app, system, profile, exec_threads > 1, exec_threads)
    }

    /// Creates an engine with speculation forced on or off — both modes
    /// return bit-identical results; tests compare them directly.
    #[must_use]
    pub fn with_speculation(
        app: &'a dyn HostApp,
        system: &'a SystemModel,
        profile: &'a AppProfile,
        speculate: bool,
    ) -> Self {
        Self::build(app, system, profile, speculate, default_exec_threads())
    }

    fn build(
        app: &'a dyn HostApp,
        system: &'a SystemModel,
        profile: &'a AppProfile,
        speculate: bool,
        exec_threads: usize,
    ) -> Self {
        let faulty = !system.faults.is_inert();
        let mut base = Fnv::new();
        base.bytes(app.name().as_bytes());
        base.bytes(system.name.as_bytes());
        // Hardware identity, not just the label: a journal recorded on
        // one machine must never replay into a tune for different metal.
        base.u64(system.fingerprint());
        let engine = TrialEngine {
            app,
            system,
            clean: system.without_faults(),
            profile,
            variants: Arc::new(VariantCache::new(app.program())),
            faulty,
            speculate,
            exec_threads,
            base_fp: base.finish(),
            crash: None,
            state: Mutex::new(State {
                cache: HashMap::new(),
                stats: TrialStats::default(),
                journal: None,
            }),
        };
        engine.seed_baseline();
        engine
    }

    /// Locks the engine state, tolerating poison: a [`SimulatedCrash`]
    /// unwinding through a locked section is a drill, not corruption —
    /// every mutation under the lock is complete before any panic point.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The engine's `(app, system)` identity fingerprint — the context a
    /// [`TrialJournal`] is bound to, so a journal can never be replayed
    /// into a different application or system.
    #[must_use]
    pub fn context_fingerprint(&self) -> u64 {
        self.base_fp
    }

    /// Attaches a write-ahead journal and replays `recovered` records
    /// into the memo cache, **uncharged**. Returns how many records were
    /// replayed (records for specs already cached — e.g. the pre-charged
    /// baseline seed — are skipped).
    ///
    /// Replayed entries behave exactly like speculative prefetches: the
    /// deterministic search re-asks the same specs in the same order and
    /// charges them on first ask without re-executing, so a resumed run's
    /// `trials`/`cache_hits` accounting is bit-identical to an
    /// uninterrupted run while `executions` shrinks to only the work the
    /// journal had not yet made durable.
    pub fn attach_journal(&mut self, journal: TrialJournal, recovered: &[TrialRecord]) -> usize {
        let st = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        let mut replayed = 0;
        for rec in recovered {
            let eval = rec.eval.map(|bits| Evaluation {
                time: prescaler_sim::SimTime::from_secs_unchecked(f64::from_bits(bits.time_bits)),
                kernel_time: prescaler_sim::SimTime::from_secs_unchecked(f64::from_bits(
                    bits.kernel_bits,
                )),
                quality: f64::from_bits(bits.quality_bits),
            });
            if let std::collections::hash_map::Entry::Vacant(slot) =
                st.cache.entry((rec.fingerprint, rec.clean))
            {
                slot.insert(Entry {
                    eval,
                    charged: false,
                });
                replayed += 1;
            }
        }
        st.journal = Some(journal);
        replayed
    }

    /// Arms a deterministic crash drill: after the `boundary`-th journaled
    /// execution (counting from this call), the engine tears the journal
    /// tail per the crash point's [`TearMode`] and panics with
    /// [`SimulatedCrash`]. No-op unless a journal is attached.
    pub fn arm_crash(&mut self, crash: CrashPoint) {
        self.crash = Some(crash);
    }

    /// Parks the profiling run's result in the clean namespace: the
    /// profile's reference run *is* a clean baseline evaluation (outputs
    /// equal the reference, so quality is exactly 1.0), and it is already
    /// charged as the profiling trial. A later clean acceptance of the
    /// baseline config dedupes against it.
    fn seed_baseline(&self) {
        let fp = self.fingerprint(&ScalingSpec::baseline());
        let eval = Evaluation {
            time: self.profile.baseline_time,
            kernel_time: self.profile.log.timeline.kernel,
            quality: 1.0,
        };
        let mut st = self.state();
        st.stats.charged += 1;
        st.cache.insert(
            (fp, self.faulty),
            Entry {
                eval: Some(eval),
                charged: true,
            },
        );
    }

    /// The application under test.
    #[must_use]
    pub fn app(&self) -> &'a dyn HostApp {
        self.app
    }

    /// The application's program, as every trial runs it.
    #[must_use]
    pub fn program(&self) -> &Program {
        self.variants.program()
    }

    /// The (possibly faulty) tuning system.
    #[must_use]
    pub fn system(&self) -> &'a SystemModel {
        self.system
    }

    /// The shared baseline profile.
    #[must_use]
    pub fn profile(&self) -> &'a AppProfile {
        self.profile
    }

    /// Snapshot of the engine's counters.
    #[must_use]
    pub fn stats(&self) -> TrialStats {
        self.state().stats
    }

    /// Counts one candidate the static analysis rejected without a
    /// trial. The candidate is never executed, cached, or charged — the
    /// counter exists purely so reports can show the avoided work.
    pub fn record_pruned(&self) {
        self.state().stats.pruned_static += 1;
    }

    /// Evaluates `spec` on the tuning system. Returns the evaluation
    /// (`None` when the run cannot complete — callers prune it like a TOQ
    /// failure) and whether this ask was charged as a trial.
    pub fn trial(&self, spec: &ScalingSpec) -> (Option<Evaluation>, bool) {
        self.trial_in(spec, false)
    }

    /// Evaluates `spec` on the clean twin of the system (the final
    /// acceptance check). On a fault-free system this shares the tuning
    /// namespace — the twin is the system itself.
    pub fn trial_clean(&self, spec: &ScalingSpec) -> (Option<Evaluation>, bool) {
        self.trial_in(spec, true)
    }

    fn trial_in(&self, spec: &ScalingSpec, clean: bool) -> (Option<Evaluation>, bool) {
        // Namespace: clean-twin results are distinct only when the tuning
        // system actually injects faults.
        let ns = clean && self.faulty;
        let fp = self.fingerprint(spec);
        {
            let mut st = self.state();
            if let Some(entry) = st.cache.get_mut(&(fp, ns)) {
                let (eval, charged) = (entry.eval.clone(), entry.charged);
                if charged {
                    st.stats.cache_hits += 1;
                    return (eval, false);
                }
                entry.charged = true;
                st.stats.charged += 1;
                return (eval, true);
            }
        }
        let eval = self.execute(spec, ns, fp, self.exec_threads);
        let mut st = self.state();
        st.stats.executions += 1;
        st.stats.charged += 1;
        st.cache.insert(
            (fp, ns),
            Entry {
                eval: eval.clone(),
                charged: true,
            },
        );
        self.journal_execution(&mut st, fp, ns, &eval, true);
        (eval, true)
    }

    /// Journals one completed execution (write-ahead, fsynced) and runs
    /// the crash drill if one is armed. Called with the state lock held,
    /// after the cache insert — so the record order in the journal is the
    /// deterministic order results entered the cache, and a crash fires
    /// on the calling thread at a reproducible boundary.
    fn journal_execution(
        &self,
        st: &mut State,
        fp: u64,
        ns: bool,
        eval: &Option<Evaluation>,
        charged: bool,
    ) {
        let Some(journal) = st.journal.as_mut() else {
            return;
        };
        let record = TrialRecord {
            fingerprint: fp,
            clean: ns,
            charged,
            eval: eval.as_ref().map(|e| EvalBits {
                time_bits: e.time.as_secs().to_bits(),
                kernel_bits: e.kernel_time.as_secs().to_bits(),
                quality_bits: e.quality.to_bits(),
            }),
        };
        if journal.append(&record).is_err() {
            // Degrade to non-durable rather than fail the tuning run.
            st.journal = None;
            return;
        }
        if let Some(crash) = &self.crash {
            if crash.observe_trial() {
                let boundary = crash.boundary();
                if let Some(journal) = st.journal.as_mut() {
                    let _ = match crash.tear() {
                        TearMode::Clean => Ok(()),
                        TearMode::Truncate { bytes } => journal.tear_tail(u64::from(bytes)),
                        TearMode::Garbage { bytes } => journal.scribble_tail(u64::from(bytes)),
                    };
                }
                std::panic::panic_any(SimulatedCrash { boundary });
            }
        }
    }

    /// Speculatively executes `specs` on the tuning system, in parallel,
    /// parking the results uncharged. No-op when speculation is off.
    /// Blocks until every speculative run has finished, so subsequent
    /// [`TrialEngine::trial`] replays are answered from the cache.
    pub fn prefetch(&self, specs: &[ScalingSpec]) {
        if !self.speculate {
            return;
        }
        let mut todo: Vec<(u64, &ScalingSpec)> = Vec::new();
        {
            let st = self.state();
            for spec in specs {
                let fp = self.fingerprint(spec);
                if st.cache.contains_key(&(fp, false)) || todo.iter().any(|(f, _)| *f == fp) {
                    continue;
                }
                todo.push((fp, spec));
            }
        }
        if todo.is_empty() {
            return;
        }
        // Split the execution budget across the speculative workers so
        // trial-level and intra-trial parallelism never oversubscribe.
        let per_worker = (self.exec_threads / todo.len()).max(1);
        let results: Vec<Option<Evaluation>> = std::thread::scope(|scope| {
            let handles: Vec<_> = todo
                .iter()
                .map(|&(fp, spec)| scope.spawn(move || self.execute(spec, false, fp, per_worker)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        let mut st = self.state();
        for ((fp, _), eval) in todo.into_iter().zip(results) {
            st.stats.executions += 1;
            if let std::collections::hash_map::Entry::Vacant(slot) = st.cache.entry((fp, false)) {
                slot.insert(Entry {
                    eval: eval.clone(),
                    charged: false,
                });
                // Journaled in todo order, under the lock: the record
                // sequence (and any armed crash boundary) is deterministic
                // even though the executions above ran concurrently.
                self.journal_execution(&mut st, fp, false, &eval, false);
            }
        }
    }

    /// One real execution. Pure in `spec`: on a faulty system the run
    /// draws from a fault stream forked off the spec's fingerprint, so
    /// re-executing the same spec replays the same faults.
    fn execute(
        &self,
        spec: &ScalingSpec,
        clean: bool,
        fp: u64,
        threads: usize,
    ) -> Option<Evaluation> {
        let forked;
        let system = if clean {
            &self.clean
        } else if self.faulty {
            forked = self.system.clone().with_faults(self.system.faults.fork(fp));
            &forked
        } else {
            self.system
        };
        let (outputs, log) =
            run_app_shared(self.app, &self.variants, system, spec, threads).ok()?;
        let raw = output_quality(&self.profile.reference, &outputs);
        Some(Evaluation {
            time: log.timeline.total(),
            kernel_time: log.timeline.kernel,
            // Clamp non-finite quality to 0: corrupted (NaN-poisoned)
            // outputs must read as failure, not sneak past TOQ checks.
            quality: if raw.is_finite() { raw } else { 0.0 },
        })
    }

    /// Canonical fingerprint of a spec: FNV-1a over a sorted encoding of
    /// every map, mixed with the app/system identity. Stable across runs
    /// (no hasher randomness) because it doubles as the fault-fork salt.
    fn fingerprint(&self, spec: &ScalingSpec) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.base_fp);

        h.u8(1);
        for (label, prec) in sorted(&spec.object_targets) {
            h.bytes(label.as_bytes());
            h.u8(prec_tag(*prec));
        }
        h.u8(2);
        for (label, plan) in sorted(&spec.write_plans) {
            h.bytes(label.as_bytes());
            plan_bytes(&mut h, plan);
        }
        h.u8(3);
        for (label, plan) in sorted(&spec.read_plans) {
            h.bytes(label.as_bytes());
            plan_bytes(&mut h, plan);
        }
        h.u8(4);
        for (kernel, casts) in sorted(&spec.in_kernel) {
            h.bytes(kernel.as_bytes());
            for (param, prec) in sorted(casts) {
                h.bytes(param.as_bytes());
                h.u8(prec_tag(*prec));
            }
            h.u8(0xFF); // kernel-map terminator
        }
        h.finish()
    }
}

fn sorted<V>(map: &HashMap<String, V>) -> Vec<(&String, &V)> {
    let mut entries: Vec<_> = map.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    entries
}

fn prec_tag(p: prescaler_ir::Precision) -> u8 {
    match p {
        prescaler_ir::Precision::Half => 0,
        prescaler_ir::Precision::Single => 1,
        prescaler_ir::Precision::Double => 2,
    }
}

fn plan_bytes(h: &mut Fnv, plan: &PlanChoice) {
    h.u8(prec_tag(plan.intermediate));
    match plan.host_method {
        HostMethod::Loop => h.u8(0),
        HostMethod::Multithread { threads } => {
            h.u8(1);
            h.u64(threads as u64);
        }
        HostMethod::Pipelined { threads, chunks } => {
            h.u8(2);
            h.u64(threads as u64);
            h.u64(chunks as u64);
        }
    }
}

/// Minimal FNV-1a (64-bit) — the canonical, seed-free fingerprint hash.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u8(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.u8(b);
        }
        self.u8(0); // length/field separator
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.u8(b);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::profile_app;
    use prescaler_ir::Precision;
    use prescaler_polybench::{BenchKind, PolyApp};
    use prescaler_sim::FaultPlan;

    fn fixture() -> (PolyApp, SystemModel) {
        (PolyApp::tiny(BenchKind::Gemm), SystemModel::system1())
    }

    #[test]
    fn repeat_asks_hit_the_cache_and_charge_once() {
        let (app, system) = fixture();
        let profile = profile_app(&app, &system).unwrap();
        let engine = TrialEngine::with_speculation(&app, &system, &profile, false);
        let spec = ScalingSpec::baseline().with_target("A", Precision::Single);

        let (a, charged_a) = engine.trial(&spec);
        let (b, charged_b) = engine.trial(&spec);
        assert!(charged_a && !charged_b);
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(a.time, b.time);
        assert_eq!(a.quality.to_bits(), b.quality.to_bits());
        let stats = engine.stats();
        // The baseline seed is pre-charged, so: 1 executed trial + 1 hit.
        assert_eq!(stats.executions, 1);
        assert_eq!(stats.charged, 2);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn prefetch_is_uncharged_until_replayed() {
        let (app, system) = fixture();
        let profile = profile_app(&app, &system).unwrap();
        let engine = TrialEngine::with_speculation(&app, &system, &profile, true);
        let specs = [
            ScalingSpec::baseline().with_target("A", Precision::Single),
            ScalingSpec::baseline().with_target("B", Precision::Single),
        ];
        engine.prefetch(&specs);
        let stats = engine.stats();
        assert_eq!(stats.executions, 2);
        assert_eq!(stats.charged, 1, "only the baseline seed is charged");

        let (eval, charged) = engine.trial(&specs[0]);
        assert!(charged, "first replay ask charges the speculative run");
        assert!(eval.is_some());
        let stats = engine.stats();
        assert_eq!(stats.executions, 2, "no re-execution");
        assert_eq!(stats.charged, 2);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn speculative_and_sequential_results_are_bit_identical() {
        let (app, system) = fixture();
        let profile = profile_app(&app, &system).unwrap();
        let seq = TrialEngine::with_speculation(&app, &system, &profile, false);
        let par = TrialEngine::with_speculation(&app, &system, &profile, true);
        let specs: Vec<ScalingSpec> = [Precision::Half, Precision::Single]
            .iter()
            .map(|&p| {
                ScalingSpec::baseline()
                    .with_target("A", p)
                    .with_target("C", p)
            })
            .collect();
        par.prefetch(&specs);
        for spec in &specs {
            let (a, ca) = seq.trial(spec);
            let (b, cb) = par.trial(spec);
            assert_eq!(ca, cb);
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.time, b.time);
                    assert_eq!(a.kernel_time, b.kernel_time);
                    assert_eq!(a.quality.to_bits(), b.quality.to_bits());
                }
                (None, None) => {}
                (a, b) => panic!("divergent outcomes: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn faulty_trials_are_idempotent_via_forked_streams() {
        let (app, _) = fixture();
        let system = SystemModel::system1().with_faults(
            FaultPlan::seeded(11)
                .with_transfer_failures(0.05)
                .with_clock_noise(0.2),
        );
        let profile = profile_app(&app, &system).unwrap();
        let engine_a = TrialEngine::with_speculation(&app, &system, &profile, false);
        let engine_b = TrialEngine::with_speculation(&app, &system, &profile, false);
        let warm = ScalingSpec::baseline().with_target("B", Precision::Single);
        let spec = ScalingSpec::baseline().with_target("A", Precision::Single);
        // Engine B evaluates an extra spec first; forked streams make the
        // shared spec's result independent of that history.
        engine_b.trial(&warm);
        let (a, _) = engine_a.trial(&spec);
        let (b, _) = engine_b.trial(&spec);
        match (a, b) {
            (Some(a), Some(b)) => {
                assert_eq!(a.time, b.time, "forked stream must not depend on history");
                assert_eq!(a.quality.to_bits(), b.quality.to_bits());
            }
            (None, None) => {}
            (a, b) => panic!("divergent outcomes: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn fingerprints_ignore_map_iteration_order() {
        let (app, system) = fixture();
        let profile = profile_app(&app, &system).unwrap();
        let engine = TrialEngine::with_speculation(&app, &system, &profile, false);
        let a = ScalingSpec::baseline()
            .with_target("A", Precision::Single)
            .with_target("B", Precision::Half);
        let b = ScalingSpec::baseline()
            .with_target("B", Precision::Half)
            .with_target("A", Precision::Single);
        assert_eq!(engine.fingerprint(&a), engine.fingerprint(&b));
        let c = ScalingSpec::baseline()
            .with_target("A", Precision::Half)
            .with_target("B", Precision::Single);
        assert_ne!(engine.fingerprint(&a), engine.fingerprint(&c));
    }
}
