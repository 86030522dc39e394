//! Level-1 Monte Carlo: Algorithm 1 with **vias** as the components of a
//! **via-array** system.
//!
//! Each trial samples a critical stress per via (Eq. 4), computes nucleation
//! lifetimes under the initial current split, then plays failures forward:
//! the earliest via dies, current redistributes over the survivors, and
//! their *remaining* life rescales by `(j_old/j_new)²` (the paper's
//! "recalculate new current flow, TTF for components" step). The trial
//! records the absolute time of every via failure, from which any failure
//! criterion can be evaluated after the fact.

use emgrid_em::void_growth::GrowthModel;
use emgrid_em::{nucleation, Technology};
use emgrid_runtime::{CancelToken, RuntimeConfig, SessionState, TrialSession};
use emgrid_stats::Rng;

use crate::array::{FailureCriterion, ViaArrayConfig};
use crate::characterization::CharacterizationResult;
use crate::checkpoint::ViaCheckpoint;
use crate::electrical::CurrentModel;
use crate::stress_table::{LayerPair, StressTable};
use crate::variation::{self, VarianceDecomposition, Variation};

/// One Monte Carlo trial: the absolute failure time (seconds) of the k-th
/// via to die, for k = 1..=n (non-decreasing).
#[derive(Debug, Clone, PartialEq)]
pub struct ViaArraySample {
    /// `failure_times[k]` is the time of the (k+1)-th via failure.
    pub failure_times: Vec<f64>,
}

impl ViaArraySample {
    /// Time at which `n_f` vias have failed.
    ///
    /// # Panics
    ///
    /// Panics if `n_f` is zero or exceeds the via count.
    pub fn time_of_failure(&self, n_f: usize) -> f64 {
        assert!(
            n_f >= 1 && n_f <= self.failure_times.len(),
            "n_f {n_f} out of range"
        );
        self.failure_times[n_f - 1]
    }
}

/// A configured level-1 Monte Carlo simulator for one via array.
#[derive(Debug, Clone)]
pub struct ViaArrayMc {
    config: ViaArrayConfig,
    tech: Technology,
    /// Per-via thermomechanical stress `σ_T`, Pa, row-major.
    sigma_t: Vec<f64>,
    /// Total current density across the effective area, A/m².
    current_density: f64,
    current_model: CurrentModel,
    growth: Option<GrowthModel>,
    variation: Option<Variation>,
}

impl ViaArrayMc {
    /// Creates a simulator with explicit per-via stresses.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_t.len()` differs from the via count or
    /// `current_density <= 0`.
    pub fn new(
        config: ViaArrayConfig,
        tech: Technology,
        sigma_t: Vec<f64>,
        current_density: f64,
    ) -> Self {
        assert_eq!(
            sigma_t.len(),
            config.count(),
            "need one stress value per via"
        );
        assert!(current_density > 0.0, "current density must be positive");
        ViaArrayMc {
            config,
            tech,
            sigma_t,
            current_density,
            current_model: CurrentModel::default(),
            growth: None,
            variation: None,
        }
    }

    /// Creates a simulator using the bundled reference stress table.
    pub fn from_reference_table(
        config: &ViaArrayConfig,
        tech: Technology,
        current_density: f64,
    ) -> Self {
        let table = StressTable::reference();
        Self::from_table(&table, config, tech, current_density)
            .expect("reference table covers the paper configurations")
    }

    /// Creates a simulator from a caller-supplied stress table.
    ///
    /// Returns `None` if the table has no entry for the configuration.
    pub fn from_table(
        table: &StressTable,
        config: &ViaArrayConfig,
        tech: Technology,
        current_density: f64,
    ) -> Option<Self> {
        let sigma_t = table.lookup(
            config.layer_pair,
            config.pattern,
            config.geometry.rows,
            config.geometry.cols,
            config.wire_width,
        )?;
        Some(Self::new(*config, tech, sigma_t, current_density))
    }

    /// Selects the current redistribution model (default: uniform).
    pub fn with_current_model(mut self, model: CurrentModel) -> Self {
        self.current_model = model;
        self
    }

    /// Adds a void-growth stage to every via lifetime (default: nucleation
    /// only, per the paper's Cu slit-void argument).
    pub fn with_growth(mut self, growth: GrowthModel) -> Self {
        self.growth = Some(growth);
        self
    }

    /// Enables on-die variation: trials draw void, temperature-field, and
    /// linewidth-field samples from independent derived sub-streams instead
    /// of the legacy single trial stream (default: nominal model).
    pub fn with_variation(mut self, variation: Variation) -> Self {
        self.variation = Some(variation);
        self
    }

    /// The configured variation, if any.
    pub fn variation(&self) -> Option<&Variation> {
        self.variation.as_ref()
    }

    /// The simulated configuration.
    pub fn config(&self) -> &ViaArrayConfig {
        &self.config
    }

    /// The per-via thermomechanical stresses, Pa.
    pub fn sigma_t(&self) -> &[f64] {
        &self.sigma_t
    }

    /// The reference (characterization) current density, A/m².
    pub fn current_density(&self) -> f64 {
        self.current_density
    }

    /// Full lifetime of one via at current density `j` given its sampled
    /// critical stress.
    fn via_life(&self, sigma_c: f64, sigma_t: f64, j: f64) -> f64 {
        let mut life = nucleation::nucleation_time(&self.tech, sigma_c, sigma_t, j);
        if let Some(g) = &self.growth {
            life += g.growth_time(&self.tech, j);
        }
        life
    }

    /// Runs one Monte Carlo trial.
    pub fn simulate_once<R: Rng + ?Sized>(&self, rng: &mut R) -> ViaArraySample {
        let n = self.config.count();
        let rows = self.config.geometry.rows;
        let cols = self.config.geometry.cols;
        let sc_dist = self.tech.critical_stress_distribution();
        let sigma_c: Vec<f64> = (0..n).map(|_| sc_dist.sample(rng)).collect();

        let total_current = self.current_density * self.config.effective_area_m2();
        let via_area = self.config.via_area_m2();
        let mut alive = vec![true; n];
        let currents = self
            .current_model
            .via_currents(rows, cols, &alive, total_current);
        let mut j: Vec<f64> = currents.iter().map(|i| i / via_area).collect();
        let mut remaining: Vec<f64> = (0..n)
            .map(|v| self.via_life(sigma_c[v], self.sigma_t[v], j[v]))
            .collect();

        let mut t = 0.0;
        let mut failure_times = Vec::with_capacity(n);
        for step in 0..n {
            // Earliest remaining failure among alive vias.
            let (victim, dt) = alive
                .iter()
                .enumerate()
                .filter(|&(_, &a)| a)
                .map(|(v, _)| (v, remaining[v]))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite lifetimes"))
                .expect("alive vias remain");
            t += dt;
            failure_times.push(t);
            alive[victim] = false;
            if step + 1 == n {
                break;
            }
            // Elapse time on survivors, then rescale for the new currents.
            let currents = self
                .current_model
                .via_currents(rows, cols, &alive, total_current);
            for v in 0..n {
                if alive[v] {
                    let j_new = currents[v] / via_area;
                    let left = (remaining[v] - dt).max(0.0);
                    remaining[v] = nucleation::rescale_remaining_life(left, j[v], j_new);
                    j[v] = j_new;
                }
            }
        }
        ViaArraySample { failure_times }
    }

    /// Runs one variation-enabled trial.
    ///
    /// Critical-stress draws come from `void_rng`, the correlated
    /// temperature field from `field_rng`, and the correlated linewidth
    /// field from `geom_rng` — three independent sub-streams of the same
    /// `(seed, trial)` pair (see [`emgrid_stats::substream_rng`]), so
    /// enabling one variation source never shifts another's sequence.
    pub fn simulate_once_varied<R: Rng + ?Sized>(
        &self,
        var: &Variation,
        void_rng: &mut R,
        field_rng: &mut R,
        geom_rng: &mut R,
    ) -> ViaArraySample {
        let n = self.config.count();
        let rows = self.config.geometry.rows;
        let cols = self.config.geometry.cols;
        let sc_dist = self.tech.critical_stress_distribution();
        let sigma_c: Vec<f64> = (0..n).map(|_| sc_dist.sample(void_rng)).collect();

        // Per-trial fields: a hotter via lives shorter by the Arrhenius
        // factor; a narrower via sees a higher current density.
        let life_scale: Vec<f64> = if var.temperature_sigma_c > 0.0 {
            variation::correlated_field_2d(rows, cols, field_rng)
                .iter()
                .map(|&f| {
                    Variation::temperature_life_scale(&self.tech, var.temperature_sigma_c * f)
                })
                .collect()
        } else {
            vec![1.0; n]
        };
        let inv_width: Vec<f64> = if var.linewidth_sigma > 0.0 {
            variation::correlated_field_2d(rows, cols, geom_rng)
                .iter()
                .map(|&f| 1.0 / (1.0 + var.linewidth_sigma * f).max(variation::MIN_RELATIVE_WIDTH))
                .collect()
        } else {
            vec![1.0; n]
        };
        let weights = (var.edge_current_factor > 0.0).then(|| var.edge_weights(rows, cols));

        let total_current = self.current_density * self.config.effective_area_m2();
        let via_area = self.config.via_area_m2();
        let mut alive = vec![true; n];
        let currents =
            self.weighted_currents(rows, cols, &alive, total_current, weights.as_deref());
        let mut j: Vec<f64> = (0..n)
            .map(|v| currents[v] * inv_width[v] / via_area)
            .collect();
        let mut remaining: Vec<f64> = (0..n)
            .map(|v| self.via_life(sigma_c[v], self.sigma_t[v], j[v]) * life_scale[v])
            .collect();

        let mut t = 0.0;
        let mut failure_times = Vec::with_capacity(n);
        for step in 0..n {
            let (victim, dt) = alive
                .iter()
                .enumerate()
                .filter(|&(_, &a)| a)
                .map(|(v, _)| (v, remaining[v]))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite lifetimes"))
                .expect("alive vias remain");
            t += dt;
            failure_times.push(t);
            alive[victim] = false;
            if step + 1 == n {
                break;
            }
            let currents =
                self.weighted_currents(rows, cols, &alive, total_current, weights.as_deref());
            for v in 0..n {
                if alive[v] {
                    let j_new = currents[v] * inv_width[v] / via_area;
                    let left = (remaining[v] - dt).max(0.0);
                    remaining[v] = nucleation::rescale_remaining_life(left, j[v], j_new);
                    j[v] = j_new;
                }
            }
        }
        ViaArraySample { failure_times }
    }

    /// Currents from the configured model, optionally reweighted by the
    /// static geometry-derived edge weights and renormalized so the total
    /// stays conserved.
    fn weighted_currents(
        &self,
        rows: usize,
        cols: usize,
        alive: &[bool],
        total_current: f64,
        weights: Option<&[f64]>,
    ) -> Vec<f64> {
        let mut currents = self
            .current_model
            .via_currents(rows, cols, alive, total_current);
        if let Some(w) = weights {
            let mut sum = 0.0;
            for (c, &wv) in currents.iter_mut().zip(w) {
                *c *= wv;
                sum += *c;
            }
            let scale = total_current / sum;
            for c in &mut currents {
                *c *= scale;
            }
        }
        currents
    }

    /// Runs the variation-enabled characterization twice with the same seed
    /// — once as configured, once with the correlated fields frozen — and
    /// returns the full result next to the random-walk variance
    /// decomposition of the open-circuit `ln TTF` (see
    /// [`ViaArrayMc::variance_split`]).
    ///
    /// # Panics
    ///
    /// Panics if no variation is configured.
    pub fn characterize_with_variance(
        &self,
        trials: usize,
        seed: u64,
        runtime: &RuntimeConfig,
    ) -> (CharacterizationResult, VarianceDecomposition) {
        let varied = self.characterize_with(trials, seed, runtime);
        let decomposition = self
            .variance_split(&varied, trials, seed, runtime, None)
            .expect("a run without a cancel token is never cancelled");
        (varied, decomposition)
    }

    /// Decomposes the open-circuit `ln TTF` variance of `varied` — this
    /// model's run of `trials` trials at `seed` — by replaying the run with
    /// the correlated fields frozen. Void draws come from their own
    /// sub-stream, so the two runs share critical-stress samples trial for
    /// trial and the difference isolates the field contribution. With
    /// early termination the decomposition uses the common committed
    /// prefix (all zero below two samples). `None` when `cancel` stops the
    /// frozen run.
    ///
    /// # Panics
    ///
    /// Panics if no variation is configured.
    pub fn variance_split(
        &self,
        varied: &CharacterizationResult,
        trials: usize,
        seed: u64,
        runtime: &RuntimeConfig,
        cancel: Option<&CancelToken>,
    ) -> Option<VarianceDecomposition> {
        let var = self
            .variation
            .expect("variance analysis requires a configured variation");
        let mut frozen_mc = self.clone();
        frozen_mc.variation = Some(var.frozen_fields());
        let session = ViaSession {
            cancel,
            ..ViaSession::default()
        };
        let frozen = frozen_mc
            .characterize_session(trials, seed, runtime, session)
            .filter(|r| !r.report().cancelled)?;
        let ln = |xs: Vec<f64>| -> Vec<f64> {
            xs.into_iter()
                .map(|x| x.max(f64::MIN_POSITIVE).ln())
                .collect()
        };
        let lv = ln(varied.ttf_samples(FailureCriterion::OpenCircuit));
        let lf = ln(frozen.ttf_samples(FailureCriterion::OpenCircuit));
        let common = lv.len().min(lf.len());
        if common < 2 {
            return Some(VarianceDecomposition {
                total: 0.0,
                void: 0.0,
                environment: 0.0,
            });
        }
        Some(VarianceDecomposition::from_ln_samples(
            &lv[..common],
            &lf[..common],
        ))
    }

    /// Runs `trials` trials with a deterministic seed and collects the
    /// results for criterion evaluation and lognormal fitting.
    ///
    /// Sequential, fixed-budget shorthand for [`ViaArrayMc::characterize_with`].
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`.
    pub fn characterize(&self, trials: usize, seed: u64) -> CharacterizationResult {
        self.characterize_with(trials, seed, &RuntimeConfig::sequential())
    }

    /// Runs the characterization on the shared Monte Carlo runtime: trials
    /// are scheduled work-stealing across `runtime.threads`, each on its own
    /// RNG stream derived from `(seed, trial)`, so the samples are
    /// **bit-identical for any thread count**. With an early-stop policy the
    /// run halts once the confidence interval on the open-circuit `ln TTF`
    /// mean is tight enough; the [`emgrid_runtime::RunReport`] on the result
    /// records what actually ran.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`.
    pub fn characterize_with(
        &self,
        trials: usize,
        seed: u64,
        runtime: &RuntimeConfig,
    ) -> CharacterizationResult {
        self.characterize_session(trials, seed, runtime, ViaSession::default())
            .expect("an uncancelled run commits at least one sample")
    }

    /// [`ViaArrayMc::characterize_with`] with checkpoint/resume/cancellation
    /// controls — the entry point the analysis daemon drives.
    ///
    /// A run resumed from a [`ViaCheckpoint`] produces the same result as an
    /// uninterrupted run with the same seed (every trial's randomness comes
    /// from `(seed, trial)` alone). Returns `None` only when a cancellation
    /// stopped the run before any sample was committed; a cancelled run
    /// that did commit samples returns them with `report().cancelled` set.
    ///
    /// # Panics
    ///
    /// As [`ViaArrayMc::characterize_with`], plus if the resume checkpoint
    /// is inconsistent with the trial budget or via count.
    pub fn characterize_session(
        &self,
        trials: usize,
        seed: u64,
        runtime: &RuntimeConfig,
        session: ViaSession<'_>,
    ) -> Option<CharacterizationResult> {
        let _span = emgrid_runtime::obs::span("via-mc");
        let open_circuit = self.config.count() - 1;
        let mut on_checkpoint = session.on_checkpoint;
        let mut adapter = |samples: &[ViaArraySample], stream: &emgrid_stats::OnlineStats| {
            if let Some(cb) = on_checkpoint.as_mut() {
                cb(&ViaCheckpoint {
                    samples: samples.to_vec(),
                    stream: *stream,
                });
            }
        };
        let trial_session = TrialSession {
            resume: session.resume.map(|cp| SessionState {
                outputs: cp.samples,
                stream: cp.stream,
            }),
            cancel: session.cancel,
            checkpoint_every: session.checkpoint_every,
            on_checkpoint: Some(&mut adapter),
        };
        enum Never {}
        let result: Result<_, Never> = emgrid_runtime::run_trials_session(
            trials,
            runtime,
            trial_session,
            |t| {
                Ok(match &self.variation {
                    Some(var) => {
                        let s = t as u64;
                        let mut void_rng =
                            emgrid_stats::substream_rng(seed, s, variation::CHANNEL_VOID);
                        let mut field_rng =
                            emgrid_stats::substream_rng(seed, s, variation::CHANNEL_FIELD);
                        let mut geom_rng =
                            emgrid_stats::substream_rng(seed, s, variation::CHANNEL_GEOMETRY);
                        self.simulate_once_varied(var, &mut void_rng, &mut field_rng, &mut geom_rng)
                    }
                    None => {
                        let mut rng = emgrid_stats::stream_rng(seed, t as u64);
                        self.simulate_once(&mut rng)
                    }
                })
            },
            |s: &ViaArraySample| s.failure_times[open_circuit].max(f64::MIN_POSITIVE).ln(),
        );
        let (samples, report) = match result {
            Ok(pair) => pair,
            Err(never) => match never {},
        };
        if samples.is_empty() {
            return None;
        }
        Some(CharacterizationResult::with_report(
            self.config,
            self.current_density,
            samples,
            report,
        ))
    }
}

/// Checkpoint/resume/cancellation controls for one
/// [`ViaArrayMc::characterize_session`] call; the default is a plain fresh
/// run.
#[derive(Default)]
pub struct ViaSession<'a> {
    /// Checkpoint to resume from (`None` = start at trial zero).
    pub resume: Option<ViaCheckpoint>,
    /// Cooperative cancellation token, polled between trials.
    pub cancel: Option<&'a CancelToken>,
    /// Trials between checkpoint callbacks; 0 disables periodic
    /// checkpointing (a final checkpoint still fires on cancellation).
    pub checkpoint_every: usize,
    /// Receives a snapshot of the committed state at each checkpoint.
    #[allow(clippy::type_complexity)]
    pub on_checkpoint: Option<&'a mut (dyn FnMut(&ViaCheckpoint) + 'a)>,
}

/// Convenience: the default layer pair used throughout the experiments.
pub const DEFAULT_LAYER_PAIR: LayerPair = LayerPair::IntermediateTop;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::FailureCriterion;
    use emgrid_em::SECONDS_PER_YEAR;
    use emgrid_fea::geometry::IntersectionPattern;
    use emgrid_stats::seeded_rng;

    fn paper_mc(pattern: IntersectionPattern) -> ViaArrayMc {
        ViaArrayMc::from_reference_table(
            &ViaArrayConfig::paper_4x4(pattern),
            Technology::default(),
            1e10,
        )
    }

    #[test]
    fn failure_times_are_sorted_and_positive() {
        let mc = paper_mc(IntersectionPattern::Plus);
        let mut rng = seeded_rng(1);
        let s = mc.simulate_once(&mut rng);
        assert_eq!(s.failure_times.len(), 16);
        assert!(s.failure_times[0] > 0.0);
        for w in s.failure_times.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn first_failures_land_in_single_digit_years() {
        // Fig. 8(a): the 1st-via CDF is centered around a few years.
        let mc = paper_mc(IntersectionPattern::Plus);
        let result = mc.characterize(300, 7);
        let med = result.ecdf(FailureCriterion::WeakestLink).median() / SECONDS_PER_YEAR;
        assert!(med > 0.5 && med < 12.0, "median first failure {med} yr");
    }

    #[test]
    fn later_criteria_fail_later() {
        let mc = paper_mc(IntersectionPattern::Plus);
        let mut rng = seeded_rng(3);
        let s = mc.simulate_once(&mut rng);
        assert!(s.time_of_failure(8) > s.time_of_failure(1));
        assert!(s.time_of_failure(16) > s.time_of_failure(8));
    }

    #[test]
    fn current_acceleration_compresses_the_tail() {
        // With redistribution, the gap between the 15th and 16th failure is
        // driven by a 16x current: the last via's residual life shrinks by
        // ~256x vs its original scale. Check the total spread is far less
        // than 16 independent lifetimes would suggest.
        let mc = paper_mc(IntersectionPattern::Plus);
        let mut rng = seeded_rng(5);
        let s = mc.simulate_once(&mut rng);
        let first = s.time_of_failure(1);
        let last = s.time_of_failure(16);
        assert!(last < 20.0 * first, "first {first}, last {last}");
    }

    #[test]
    fn ell_pattern_outlives_plus() {
        // Fig. 8(b): lower σ_T in the L pattern → longer TTF.
        let plus = paper_mc(IntersectionPattern::Plus).characterize(200, 11);
        let ell = paper_mc(IntersectionPattern::Ell).characterize(200, 11);
        let c = FailureCriterion::ViaCount(8);
        assert!(ell.ecdf(c).median() > plus.ecdf(c).median());
    }

    #[test]
    fn higher_current_shortens_life() {
        let config = ViaArrayConfig::paper_4x4(IntersectionPattern::Plus);
        let tech = Technology::default();
        let lo = ViaArrayMc::from_reference_table(&config, tech, 1e10).characterize(100, 13);
        let hi = ViaArrayMc::from_reference_table(&config, tech, 2e10).characterize(100, 13);
        let c = FailureCriterion::ViaCount(8);
        // TTF ∝ 1/j²: doubling current should quarter the median.
        let ratio = lo.ecdf(c).median() / hi.ecdf(c).median();
        assert!((ratio - 4.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    fn network_model_changes_failure_order_statistics() {
        // With crowding, perimeter vias die sooner; the first-failure time
        // drops relative to the uniform model (same seed).
        let config = ViaArrayConfig::paper_4x4(IntersectionPattern::Plus);
        let tech = Technology::default();
        let uniform = ViaArrayMc::from_reference_table(&config, tech, 1e10)
            .characterize(150, 17)
            .ecdf(FailureCriterion::WeakestLink)
            .median();
        let crowded = ViaArrayMc::from_reference_table(&config, tech, 1e10)
            .with_current_model(CurrentModel::Network(Default::default()))
            .characterize(150, 17)
            .ecdf(FailureCriterion::WeakestLink)
            .median();
        assert!(
            crowded < uniform,
            "crowded {crowded} should be below uniform {uniform}"
        );
    }

    #[test]
    fn growth_stage_adds_time() {
        let config = ViaArrayConfig::paper_4x4(IntersectionPattern::Plus);
        let tech = Technology::default();
        let bare = ViaArrayMc::from_reference_table(&config, tech, 1e10)
            .characterize(100, 19)
            .ecdf(FailureCriterion::OpenCircuit)
            .median();
        let with_growth = ViaArrayMc::from_reference_table(&config, tech, 1e10)
            .with_growth(GrowthModel::slit())
            .characterize(100, 19)
            .ecdf(FailureCriterion::OpenCircuit)
            .median();
        assert!(with_growth > bare);
    }

    #[test]
    fn session_resume_and_cancel_match_uninterrupted_run() {
        let mc = paper_mc(IntersectionPattern::Plus);
        let whole = mc.characterize(60, 29);

        // Cancel from the first checkpoint, then resume from its state.
        let token = CancelToken::new();
        let mut last: Option<ViaCheckpoint> = None;
        let mut on_checkpoint = |cp: &ViaCheckpoint| {
            last = Some(cp.clone());
            token.cancel();
        };
        let cancelled = mc
            .characterize_session(
                60,
                29,
                &RuntimeConfig::sequential(),
                ViaSession {
                    cancel: Some(&token),
                    checkpoint_every: 16,
                    on_checkpoint: Some(&mut on_checkpoint),
                    ..ViaSession::default()
                },
            )
            .expect("samples were committed before the cancel");
        assert!(cancelled.report().cancelled);

        let cp = ViaCheckpoint::decode(&last.expect("checkpoint fired").encode()).unwrap();
        assert_eq!(cp.samples.len(), 16);
        let resumed = mc
            .characterize_session(
                60,
                29,
                &RuntimeConfig::threaded(2),
                ViaSession {
                    resume: Some(cp),
                    ..ViaSession::default()
                },
            )
            .unwrap();
        assert!(!resumed.report().cancelled);
        assert_eq!(resumed.report().resumed_from, 16);
        assert_eq!(
            resumed.ttf_samples(FailureCriterion::OpenCircuit),
            whole.ttf_samples(FailureCriterion::OpenCircuit)
        );

        // A token tripped before any trial commits nothing.
        let token = CancelToken::new();
        token.cancel();
        assert!(mc
            .characterize_session(
                60,
                29,
                &RuntimeConfig::sequential(),
                ViaSession {
                    cancel: Some(&token),
                    ..ViaSession::default()
                },
            )
            .is_none());
    }

    #[test]
    fn edge_loaded_arrays_fail_earlier() {
        // Geometry-derived uneven current: edge/corner vias carry more, so
        // the earliest failure moves forward relative to the uniform split
        // (the 1801.08281 direction). Same trial budget, same seed.
        let uniform = paper_mc(IntersectionPattern::Plus)
            .with_variation(Variation::default())
            .characterize(200, 31)
            .ecdf(FailureCriterion::WeakestLink)
            .median();
        let edge_loaded = paper_mc(IntersectionPattern::Plus)
            .with_variation(Variation {
                edge_current_factor: 0.5,
                ..Variation::default()
            })
            .characterize(200, 31)
            .ecdf(FailureCriterion::WeakestLink)
            .median();
        assert!(
            edge_loaded < uniform,
            "edge-loaded {edge_loaded} should be below uniform {uniform}"
        );
    }

    #[test]
    fn edge_weighting_conserves_total_current() {
        let mc = paper_mc(IntersectionPattern::Plus).with_variation(Variation {
            edge_current_factor: 1.0,
            ..Variation::default()
        });
        let total = mc.current_density() * mc.config().effective_area_m2();
        let weights = mc.variation().unwrap().edge_weights(4, 4);
        let currents = mc.weighted_currents(4, 4, &[true; 16], total, Some(&weights));
        let sum: f64 = currents.iter().sum();
        assert!((sum - total).abs() / total < 1e-12);
        // Corner beats edge beats interior.
        assert!(currents[0] > currents[1] && currents[1] > currents[5]);
    }

    #[test]
    fn variation_sources_draw_from_independent_substreams() {
        // Freezing the fields must not change the void draws: with the
        // same seed, the frozen run and the field-enabled run differ only
        // through the fields themselves.
        let base = paper_mc(IntersectionPattern::Plus);
        let frozen_a = base
            .clone()
            .with_variation(Variation::default())
            .characterize(50, 37);
        let frozen_b = base
            .clone()
            .with_variation(
                Variation {
                    temperature_sigma_c: 10.0,
                    linewidth_sigma: 0.08,
                    ..Variation::default()
                }
                .frozen_fields(),
            )
            .characterize(50, 37);
        assert_eq!(
            frozen_a.ttf_samples(FailureCriterion::OpenCircuit),
            frozen_b.ttf_samples(FailureCriterion::OpenCircuit)
        );
    }

    #[test]
    fn variance_decomposition_attributes_field_variance() {
        let mc = paper_mc(IntersectionPattern::Plus).with_variation(Variation {
            temperature_sigma_c: 10.0,
            linewidth_sigma: 0.05,
            ..Variation::default()
        });
        let (result, d) = mc.characterize_with_variance(120, 41, &RuntimeConfig::sequential());
        assert_eq!(result.ttf_samples(FailureCriterion::OpenCircuit).len(), 120);
        assert!(d.total > d.void, "total {} void {}", d.total, d.void);
        assert!(d.environment > 0.0);
        assert!((d.environment - (d.total - d.void)).abs() < 1e-12);

        // Without fields the decomposition collapses onto the void term.
        let bare = paper_mc(IntersectionPattern::Plus).with_variation(Variation::default());
        let (_, d0) = bare.characterize_with_variance(80, 41, &RuntimeConfig::sequential());
        assert_eq!(d0.environment, 0.0);
        assert_eq!(d0.total, d0.void);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let mc = paper_mc(IntersectionPattern::Plus);
        let a = mc.characterize(50, 23);
        let b = mc.characterize(50, 23);
        assert_eq!(
            a.ttf_samples(FailureCriterion::OpenCircuit),
            b.ttf_samples(FailureCriterion::OpenCircuit)
        );
    }
}
