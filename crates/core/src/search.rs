//! The decision maker: PreScaler's decision-tree search (paper §4.4,
//! Algorithms 1 and 2).
//!
//! The search runs per memory object, in descending effective-execution-
//! time order:
//!
//! 1. **Pre-full-precision scaling** (§4.4.1) seeds every object's initial
//!    type with the best uniform-precision configuration.
//! 2. **Normal search** (Alg. 1, lines 1–13) tries each target precision
//!    in descending order, with the best *direct* conversion method per
//!    event predicted from the inspector database (no execution needed to
//!    pick methods — only one run per target to measure time and check
//!    TOQ), stopping at the first TOQ failure.
//! 3. **Wildcard test** (Alg. 1, lines 14–32) re-scores the accepted
//!    targets allowing *transient* wire types (including the TOQ-failed
//!    type), using predicted transfer times plus the kernel times already
//!    measured; a risky wildcard (compressed wire below both endpoint
//!    types, or a failed type as intermediate) is verified with one real
//!    execution before being adopted.

use crate::engine::TrialEngine;
use crate::inspector::{valid_intermediate, InspectorDb, PlanKey, SystemInspector};
use crate::profiler::{profile_app, AppProfile, ObjectProfile};
use crate::static_prune::StaticAnalysis;
use prescaler_ir::Precision;
use prescaler_ocl::{HostApp, OclError, PlanChoice, ScalingSpec};
use prescaler_sim::{Direction, HostMethod, SimTime, SystemModel};

/// One measured configuration evaluation.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// Total virtual program time.
    pub time: SimTime,
    /// Kernel-only portion.
    pub kernel_time: SimTime,
    /// Output quality vs the baseline reference.
    pub quality: f64,
}

/// The outcome of a tuning run.
#[derive(Clone, Debug)]
pub struct Tuned {
    /// The chosen configuration.
    pub config: ScalingSpec,
    /// Its measured evaluation.
    pub eval: Evaluation,
    /// Baseline total time (speedup denominator).
    pub baseline_time: SimTime,
    /// Number of *charged* trials (profiling, PFP seeding, search,
    /// verification, final run) — what the sequential search pays for.
    /// Memoized repeats are counted in [`Tuned::cache_hits`] instead.
    pub trials: usize,
    /// Evaluations answered from the trial-engine cache instead of a
    /// real execution (e.g. a wildcard candidate that reduces to an
    /// already-measured configuration).
    pub cache_hits: usize,
    /// The baseline profile (for reports).
    pub profile: AppProfile,
    /// The target output quality the configuration was tuned against —
    /// carried with the config so guarded serving can enforce the same
    /// floor without re-deriving it.
    pub toq: f64,
    /// Hardware fingerprint of the system this configuration was tuned
    /// on ([`SystemModel::fingerprint`]) — the paper's crossovers move
    /// between systems, so a spec is only meaningful together with the
    /// system it was decided against.
    pub system_fingerprint: u64,
    /// Candidates the static precision-safety analysis rejected without
    /// a trial (skipped entirely and never charged) — the work the
    /// analysis saved, reported beside [`Tuned::trials`].
    pub pruned_static: usize,
}

impl Tuned {
    /// Speedup over the full-precision baseline.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.baseline_time / self.eval.time
    }

    /// Canonical digest of everything the tuner *decided*: the chosen
    /// configuration, its evaluation bits, the baseline time, the TOQ,
    /// and the system fingerprint. Deliberately excludes the effort
    /// accounting (`trials`, `cache_hits`, `pruned_static`), which
    /// legitimately differs between pruning-on and pruning-off runs —
    /// equal digests mean the same decision was reached.
    #[must_use]
    pub fn decision_digest(&self) -> u64 {
        // Canonical byte encoding (maps sorted, fields `;`-separated),
        // folded through FNV-1a.
        let prec = |p: Precision| match p {
            Precision::Half => "h",
            Precision::Single => "s",
            Precision::Double => "d",
        };
        let mut enc = String::new();
        let mut sorted_targets: Vec<_> = self.config.object_targets.iter().collect();
        sorted_targets.sort_by(|a, b| a.0.cmp(b.0));
        for (label, p) in sorted_targets {
            enc.push_str(&format!("t:{label}={};", prec(*p)));
        }
        for (tag, plans) in [
            ("w", &self.config.write_plans),
            ("r", &self.config.read_plans),
        ] {
            let mut sorted: Vec<_> = plans.iter().collect();
            sorted.sort_by(|a, b| a.0.cmp(b.0));
            for (label, plan) in sorted {
                enc.push_str(&format!(
                    "{tag}:{label}={}/{:?};",
                    prec(plan.intermediate),
                    plan.host_method
                ));
            }
        }
        let mut kernels: Vec<_> = self.config.in_kernel.iter().collect();
        kernels.sort_by(|a, b| a.0.cmp(b.0));
        for (kernel, casts) in kernels {
            let mut sorted: Vec<_> = casts.iter().collect();
            sorted.sort_by(|a, b| a.0.cmp(b.0));
            for (param, p) in sorted {
                enc.push_str(&format!("k:{kernel}.{param}={};", prec(*p)));
            }
        }
        enc.push_str(&format!(
            "e:{:016x}/{:016x}/{:016x};b:{:016x};q:{:016x};f:{:016x}",
            self.eval.time.as_secs().to_bits(),
            self.eval.kernel_time.as_secs().to_bits(),
            self.eval.quality.to_bits(),
            self.baseline_time.as_secs().to_bits(),
            self.toq.to_bits(),
            self.system_fingerprint
        ));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in enc.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

/// The PreScaler tuner.
#[derive(Clone, Copy, Debug)]
pub struct PreScaler<'a> {
    system: &'a SystemModel,
    db: &'a InspectorDb,
    toq: f64,
    use_wildcard: bool,
    use_pfp_seed: bool,
    use_static_prune: bool,
}

impl<'a> PreScaler<'a> {
    /// Creates a tuner for one system with a target output quality.
    #[must_use]
    pub fn new(system: &'a SystemModel, db: &'a InspectorDb, toq: f64) -> PreScaler<'a> {
        PreScaler {
            system,
            db,
            toq,
            use_wildcard: true,
            use_pfp_seed: true,
            use_static_prune: true,
        }
    }

    /// The configured TOQ.
    #[must_use]
    pub fn toq(&self) -> f64 {
        self.toq
    }

    /// The system this tuner targets.
    #[must_use]
    pub fn system(&self) -> &'a SystemModel {
        self.system
    }

    /// Disables the wildcard (transient-conversion) test — an ablation of
    /// the paper's §4.4 design choice.
    #[must_use]
    pub fn without_wildcard(mut self) -> PreScaler<'a> {
        self.use_wildcard = false;
        self
    }

    /// Disables pre-full-precision seeding (§4.4.1) — the decision tree
    /// starts from the original types instead.
    #[must_use]
    pub fn without_pfp_seed(mut self) -> PreScaler<'a> {
        self.use_pfp_seed = false;
        self
    }

    /// Disables static precision-safety pruning — every candidate is
    /// trialed, even ones the range analysis proves must fail. The
    /// prune-equivalence suite pins that this changes only the trial
    /// count, never the decision.
    #[must_use]
    pub fn without_static_prune(mut self) -> PreScaler<'a> {
        self.use_static_prune = false;
        self
    }

    /// Runs the full pipeline: profile → PFP seed → decision tree → final
    /// configuration.
    ///
    /// Degrades gracefully under injected faults: a *candidate* trial that
    /// fails (exhausted retries, corrupted output) is pruned
    /// exactly like a TOQ failure, and the chosen configuration must pass
    /// a final acceptance check on the clean twin of the system — quality
    /// at or above TOQ *and* time no worse than the full-precision
    /// baseline — or the baseline configuration is returned instead.
    ///
    /// # Errors
    ///
    /// Propagates [`OclError`] only from the clean baseline profiling run
    /// (an application that cannot run at full precision cannot be tuned).
    pub fn tune(&self, app: &dyn HostApp) -> Result<Tuned, OclError> {
        let profile = profile_app(app, self.system)?;
        let engine = TrialEngine::new(app, self.system, &profile);
        Ok(self.tune_with_engine(&engine))
    }

    /// [`PreScaler::tune`] over a caller-supplied [`TrialEngine`] — the
    /// engine carries the profile and the memo cache, so report/ablation
    /// paths that evaluate several techniques on one app can share the
    /// profiling run (and any overlapping trials) instead of repeating
    /// them. The profiling run is charged to this tuner's `trials`.
    #[must_use]
    pub fn tune_with_engine(&self, engine: &TrialEngine) -> Tuned {
        let profile = engine.profile();
        let before = engine.stats();

        // Static precision-safety analysis over the baseline profile:
        // one pass up front, consulted (for free) before every trial.
        let analysis = self
            .use_static_prune
            .then(|| StaticAnalysis::of(engine.program(), profile));

        // --- Pre-full-precision scaling (also the PFP baseline). ---
        let (mut current, mut current_eval) = (
            ScalingSpec::baseline(),
            Evaluation {
                time: profile.baseline_time,
                kernel_time: profile.log.timeline.kernel,
                quality: 1.0,
            },
        );
        if self.use_pfp_seed {
            (current, current_eval) = self.pre_full_precision(engine, analysis.as_ref());
        }

        // --- Decision tree over objects. ---
        for obj in &profile.scaling_order {
            (current, current_eval) =
                self.tune_object(engine, analysis.as_ref(), obj, current, current_eval);
        }

        // --- Final acceptance run of the chosen configuration, on the
        // clean twin of the system: the never-worse-than-baseline
        // guarantee must not hinge on injected noise. ---
        let chosen = match engine.trial_clean(&current).0 {
            Some(eval) if eval.quality >= self.toq && eval.time <= profile.baseline_time => {
                (current, eval)
            }
            // Safety net: the chosen configuration failed TOQ, regressed
            // past the baseline, or could not even run — fall back to the
            // full-precision baseline configuration.
            _ => (
                ScalingSpec::baseline(),
                Evaluation {
                    time: profile.baseline_time,
                    kernel_time: profile.log.timeline.kernel,
                    quality: 1.0,
                },
            ),
        };

        let after = engine.stats();
        Tuned {
            config: chosen.0,
            eval: chosen.1,
            baseline_time: profile.baseline_time,
            trials: 1 + (after.charged - before.charged), // +1: profiling
            cache_hits: after.cache_hits - before.cache_hits,
            profile: profile.clone(),
            toq: self.toq,
            system_fingerprint: self.system.fingerprint(),
            pruned_static: after.pruned_static - before.pruned_static,
        }
    }

    /// Whether the static analysis proves this candidate spec must fail
    /// the TOQ oracle: some object it demotes has a `ProvenUnsafe`
    /// verdict at its target precision.
    fn spec_proven_unsafe(
        &self,
        analysis: Option<&StaticAnalysis>,
        profile: &AppProfile,
        spec: &ScalingSpec,
    ) -> bool {
        let Some(analysis) = analysis else {
            return false;
        };
        profile.scaling_order.iter().any(|obj| {
            let target = spec.target_for(&obj.label, obj.original);
            target != obj.original && analysis.proven_unsafe(&obj.label, target)
        })
    }

    /// §4.4.1: test uniform-precision configurations and return the best
    /// one as the tree's starting point. Both uniform candidates are
    /// speculatively prefetched; the replay below keeps the sequential
    /// pruning semantics (a failed type stops the descent).
    fn pre_full_precision(
        &self,
        engine: &TrialEngine,
        analysis: Option<&StaticAnalysis>,
    ) -> (ScalingSpec, Evaluation) {
        let profile = engine.profile();
        let mut best = (
            ScalingSpec::baseline(),
            Evaluation {
                time: profile.baseline_time,
                kernel_time: profile.log.timeline.kernel,
                quality: 1.0,
            },
        );
        let uniform = |target: Precision| {
            let mut spec = ScalingSpec::baseline();
            for obj in &profile.scaling_order {
                spec = self.apply_object_target(spec, profile, &obj.label, target);
            }
            spec
        };
        let candidates: Vec<ScalingSpec> = [Precision::Single, Precision::Half]
            .into_iter()
            .map(uniform)
            .collect();
        // Speculate only on candidates the replay below can reach: the
        // descent stops at the first statically-rejected configuration.
        let reachable = candidates
            .iter()
            .position(|s| self.spec_proven_unsafe(analysis, profile, s))
            .unwrap_or(candidates.len());
        engine.prefetch(&candidates[..reachable]);
        for spec in candidates {
            if self.spec_proven_unsafe(analysis, profile, &spec) {
                // Proven to fail the TOQ oracle: skip the trial entirely
                // and stop the descent exactly where the oracle would
                // have stopped it.
                engine.record_pruned();
                break;
            }
            let Some(eval) = engine.trial(&spec).0 else {
                // An unrunnable uniform configuration is pruned like a TOQ
                // failure; lower precisions will not recover it.
                break;
            };
            let failed = eval.quality < self.toq;
            if !failed && eval.time < best.1.time {
                best = (spec, eval);
            }
            if failed {
                // Lower uniform precisions will not recover quality.
                break;
            }
        }
        best
    }

    /// Algorithm 1 for one memory object. The per-target candidates are
    /// speculatively prefetched in one parallel fan-out; the sequential
    /// replay below preserves Alg. 1's pruning order, and measurements
    /// past the first TOQ failure stay uncharged in the engine's cache.
    fn tune_object(
        &self,
        engine: &TrialEngine,
        analysis: Option<&StaticAnalysis>,
        obj: &ObjectProfile,
        current: ScalingSpec,
        current_eval: Evaluation,
    ) -> (ScalingSpec, Evaluation) {
        let profile = engine.profile();
        let current_type = current.target_for(&obj.label, obj.original);

        // ---------- Normal search ----------
        let mut kernel_time_map: Vec<(Precision, SimTime)> =
            vec![(current_type, current_eval.kernel_time)];
        let mut accepted: Vec<Precision> = vec![current_type];
        let mut failed: Option<Precision> = None;
        let mut normal_best = (current.clone(), current_eval.clone());

        let targets: Vec<(Precision, ScalingSpec)> =
            [Precision::Double, Precision::Single, Precision::Half]
                .into_iter()
                .filter(|t| *t != current_type)
                .map(|t| {
                    (
                        t,
                        self.apply_object_target(current.clone(), profile, &obj.label, t),
                    )
                })
                .collect();
        let proven_unsafe = |target: Precision| {
            target != obj.original && analysis.is_some_and(|a| a.proven_unsafe(&obj.label, target))
        };
        // Speculate only up to the first statically-rejected target: the
        // replay below never asks past it.
        let reachable = targets
            .iter()
            .position(|(t, _)| proven_unsafe(*t))
            .unwrap_or(targets.len());
        let specs: Vec<ScalingSpec> = targets[..reachable]
            .iter()
            .map(|(_, s)| s.clone())
            .collect();
        engine.prefetch(&specs);

        for (target, candidate) in targets {
            if proven_unsafe(target) {
                // The range analysis proves this demotion overflows the
                // stored data, so its trial must fail TOQ: skip it
                // uncharged and stop the descent at exactly the point
                // the oracle would have (Alg. 1, line 10).
                engine.record_pruned();
                failed = Some(target);
                break;
            }
            let Some(eval) = engine.trial(&candidate).0 else {
                // A trial that cannot complete is pruned like a TOQ
                // failure (Alg. 1, line 10).
                failed = Some(target);
                break;
            };
            kernel_time_map.push((target, eval.kernel_time));
            if eval.quality < self.toq {
                failed = Some(target);
                break; // do not descend further (Alg. 1, line 10)
            }
            accepted.push(target);
            if eval.time < normal_best.1.time {
                normal_best = (candidate, eval);
            }
        }

        // ---------- Wildcard test ----------
        // Intermediates the wildcard may route through: every accepted
        // type plus the failed one (Alg. 1, line 18).
        let mut wire_types = accepted.clone();
        if let Some(f) = failed {
            wire_types.push(f);
        }

        let mut wildcard_best: Option<(ScalingSpec, SimTime, Precision)> = None;
        for &target in &accepted {
            let candidate = self.apply_object_target_with_wires(
                current.clone(),
                profile,
                &obj.label,
                target,
                &wire_types,
            );
            let Some(kernel_time) = kernel_time_map
                .iter()
                .find(|(t, _)| *t == target)
                .map(|(_, kt)| *kt)
            else {
                // Accepted targets are always measured; guard anyway so a
                // bookkeeping slip can never panic the search.
                continue;
            };
            let expected = self.expected_transfer_time(profile, &candidate) + kernel_time;
            if wildcard_best.as_ref().is_none_or(|(_, t, _)| expected < *t) {
                wildcard_best = Some((candidate, expected, target));
            }
        }

        if !self.use_wildcard {
            wildcard_best = None;
        }
        if let Some((wc_config, wc_expected, _)) = wildcard_best {
            if wc_expected < normal_best.1.time && wc_config != normal_best.0 {
                // Verify by execution when the wildcard is numerically
                // risky (failed type as wire, or a wire narrower than both
                // endpoints); otherwise adopt it on predicted time and
                // measure it to keep the running evaluation grounded. A
                // verification run that cannot complete simply rejects
                // the wildcard. A wildcard whose wires reduce to an
                // already-measured plan is answered from the memo cache.
                if let Some(eval) = engine.trial(&wc_config).0 {
                    if eval.quality >= self.toq && eval.time < normal_best.1.time {
                        return (wc_config, eval);
                    }
                }
            }
        }

        (normal_best.0, normal_best.1)
    }

    /// Applies `target` to one object in a spec, choosing the best direct
    /// conversion method per event from the inspector DB (Algorithm 2
    /// restricted to direct wires).
    fn apply_object_target(
        &self,
        spec: ScalingSpec,
        profile: &AppProfile,
        label: &str,
        target: Precision,
    ) -> ScalingSpec {
        let Some(obj) = profile.scaling_order.iter().find(|o| o.label == label) else {
            return spec; // unknown object: leave the spec untouched
        };
        self.apply_object_target_with_wires(spec, profile, label, target, &[obj.original, target])
    }

    /// Applies `target` to one object, allowing the given wire types
    /// (full Algorithm 2).
    fn apply_object_target_with_wires(
        &self,
        mut spec: ScalingSpec,
        profile: &AppProfile,
        label: &str,
        target: Precision,
        wires: &[Precision],
    ) -> ScalingSpec {
        let Some(obj) = profile.scaling_order.iter().find(|o| o.label == label) else {
            return spec; // unknown object: leave the spec untouched
        };

        if target == obj.original {
            spec.object_targets.remove(label);
        } else {
            spec.object_targets.insert(label.to_owned(), target);
        }

        if obj.written {
            if let Some((key, _)) =
                self.best_plan_or_analytic(Direction::HtoD, obj.original, target, obj.elems, wires)
            {
                spec.write_plans.insert(
                    label.to_owned(),
                    PlanChoice {
                        intermediate: key.intermediate,
                        host_method: key.host_method,
                    },
                );
            }
        } else {
            spec.write_plans.remove(label);
        }
        if obj.read_back {
            if let Some((key, _)) =
                self.best_plan_or_analytic(Direction::DtoH, target, obj.original, obj.elems, wires)
            {
                spec.read_plans.insert(
                    label.to_owned(),
                    PlanChoice {
                        intermediate: key.intermediate,
                        host_method: key.host_method,
                    },
                );
            }
        } else {
            spec.read_plans.remove(label);
        }
        spec
    }

    /// Predicted total transfer time of a configuration (the paper's
    /// `getExpectedTransferTime`): per transferred object, the DB estimate
    /// of its planned transfer.
    fn expected_transfer_time(&self, profile: &AppProfile, spec: &ScalingSpec) -> SimTime {
        let mut total = SimTime::ZERO;
        for obj in &profile.scaling_order {
            let target = spec.target_for(&obj.label, obj.original);
            if obj.written {
                let wires = spec
                    .write_plans
                    .get(&obj.label)
                    .map_or_else(|| vec![obj.original.min(target)], |p| vec![p.intermediate]);
                if let Some((_, t)) = self.best_plan_or_analytic(
                    Direction::HtoD,
                    obj.original,
                    target,
                    obj.elems,
                    &wires,
                ) {
                    total += t;
                }
            }
            if obj.read_back {
                let wires = spec
                    .read_plans
                    .get(&obj.label)
                    .map_or_else(|| vec![obj.original.min(target)], |p| vec![p.intermediate]);
                if let Some((_, t)) = self.best_plan_or_analytic(
                    Direction::DtoH,
                    target,
                    obj.original,
                    obj.elems,
                    &wires,
                ) {
                    total += t;
                }
            }
        }
        total
    }

    /// Database lookup with an analytic safety net: when the inspector DB
    /// cannot answer (missing or corrupted curves), the best plan is
    /// recomputed directly from the transfer cost model. Degraded mode
    /// costs more per decision but never blocks the search.
    fn best_plan_or_analytic(
        &self,
        direction: Direction,
        src: Precision,
        dst: Precision,
        elems: usize,
        wires: &[Precision],
    ) -> Option<(PlanKey, SimTime)> {
        if let Some(hit) = self.db.best_plan(direction, src, dst, elems, wires) {
            return Some(hit);
        }
        let mut best: Option<(PlanKey, SimTime)> = None;
        for &intermediate in wires {
            if !valid_intermediate(src, intermediate, dst) {
                continue;
            }
            let host_leg_exists = match direction {
                Direction::HtoD => src != intermediate,
                Direction::DtoH => intermediate != dst,
            };
            let methods = if host_leg_exists {
                SystemInspector::candidate_methods(self.system)
            } else {
                vec![HostMethod::Loop]
            };
            for host_method in methods {
                let key = PlanKey {
                    direction,
                    src,
                    intermediate,
                    dst,
                    host_method,
                };
                let t = key.plan().time(self.system, elems).total();
                if best.as_ref().is_none_or(|(_, bt)| t < *bt) {
                    best = Some((key, t));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inspector::SystemInspector;
    use prescaler_polybench::{BenchKind, InputSet, PolyApp};

    fn tune(kind: BenchKind, input: InputSet, scale: f64, toq: f64) -> Tuned {
        let system = SystemModel::system1();
        let db = SystemInspector::inspect(&system);
        let tuner = PreScaler::new(&system, &db, toq);
        let app = PolyApp::scaled(kind, input, scale);
        tuner.tune(&app).expect("tuning runs")
    }

    #[test]
    fn tuned_gemm_beats_baseline_and_meets_toq() {
        let r = tune(BenchKind::Gemm, InputSet::Default, 0.4, 0.9);
        assert!(r.eval.quality >= 0.9, "quality {}", r.eval.quality);
        assert!(
            r.speedup() > 1.0,
            "speedup {} must exceed 1 (baseline {} vs {})",
            r.speedup(),
            r.baseline_time,
            r.eval.time
        );
        assert!(
            r.trials >= 4,
            "profile + PFP + tree trials, got {}",
            r.trials
        );
        assert!(!r.config.is_baseline(), "some object must have been scaled");
    }

    #[test]
    fn default_gemm_output_never_lands_on_half_storage() {
        // GEMM's accumulated output overflows binary16 with default
        // inputs (inner products reach millions, far beyond 65504), so
        // the tuner must not store C as half. Input matrices *may* go to
        // half — their element values fit, and the kernel promotes the
        // multiply to the wider operand.
        let r = tune(BenchKind::Gemm, InputSet::Default, 0.3, 0.9);
        assert_ne!(
            r.config.object_targets.get("C"),
            Some(&Precision::Half),
            "accumulated output stored as half"
        );
        assert!(r.eval.quality >= 0.9);
    }

    #[test]
    fn random_inputs_unlock_lower_precision() {
        let def = tune(BenchKind::Atax, InputSet::Default, 0.05, 0.9);
        let rnd = tune(BenchKind::Atax, InputSet::Random, 0.05, 0.9);
        let count_half = |t: &Tuned| {
            t.config
                .object_targets
                .values()
                .filter(|p| **p == Precision::Half)
                .count()
        };
        assert!(
            count_half(&rnd) >= count_half(&def),
            "random inputs should allow at least as many half objects"
        );
        assert!(rnd.eval.quality >= 0.9);
    }

    #[test]
    fn stricter_toq_never_improves_speedup() {
        let loose = tune(BenchKind::Mvt, InputSet::Default, 0.05, 0.90);
        let strict = tune(BenchKind::Mvt, InputSet::Default, 0.05, 0.99);
        assert!(
            strict.speedup() <= loose.speedup() + 1e-9,
            "strict {} vs loose {}",
            strict.speedup(),
            loose.speedup()
        );
        assert!(strict.eval.quality >= 0.99);
    }

    #[test]
    fn trials_are_a_vanishing_fraction_of_the_entire_space() {
        let r = tune(BenchKind::Bicg, InputSet::Default, 0.05, 0.9);
        let spaces = crate::search_space::object_spaces(&r.profile);
        let entire = crate::search_space::entire(&spaces, 4);
        assert!(
            (r.trials as f64) < entire / 10.0,
            "trials {} vs space {entire}",
            r.trials
        );
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use crate::inspector::SystemInspector;
    use prescaler_polybench::{BenchKind, InputSet, PolyApp};

    #[test]
    fn ablated_variants_never_beat_the_full_tuner() {
        let system = SystemModel::system1();
        let db = SystemInspector::inspect(&system);
        let app = PolyApp::scaled(BenchKind::Atax, InputSet::Random, 0.1);
        let full = PreScaler::new(&system, &db, 0.9).tune(&app).unwrap();
        let no_wc = PreScaler::new(&system, &db, 0.9)
            .without_wildcard()
            .tune(&app)
            .unwrap();
        let no_seed = PreScaler::new(&system, &db, 0.9)
            .without_pfp_seed()
            .tune(&app)
            .unwrap();
        assert!(full.eval.quality >= 0.9);
        assert!(
            full.speedup() >= no_wc.speedup() - 1e-9,
            "full {} vs no-wildcard {}",
            full.speedup(),
            no_wc.speedup()
        );
        // Without PFP seeding the tree can get stuck at a local optimum
        // (the paper's §4.4.1 motivation); it must never do better.
        assert!(
            full.speedup() >= no_seed.speedup() - 1e-9,
            "full {} vs no-seed {}",
            full.speedup(),
            no_seed.speedup()
        );
    }
}
