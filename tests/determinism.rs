//! Determinism guarantees of the shared Monte Carlo runtime, end-to-end
//! through both levels of the hierarchical analysis: any thread count must
//! produce bit-identical samples in identical order, with and without early
//! termination.

use emgrid::prelude::*;

const J: f64 = 1e10;

fn via_mc() -> ViaArrayMc {
    ViaArrayMc::from_reference_table(
        &ViaArrayConfig::paper_4x4(IntersectionPattern::Plus),
        Technology::default(),
        J,
    )
}

fn grid_mc() -> PowerGridMc {
    let rel = via_mc()
        .characterize(200, 3)
        .reliability(FailureCriterion::OpenCircuit)
        .unwrap();
    let grid = PowerGrid::from_netlist(GridSpec::custom("det", 10, 10).generate()).unwrap();
    PowerGridMc::new(grid, rel).with_system_criterion(SystemCriterion::IrDropFraction(0.10))
}

#[test]
fn via_characterization_is_thread_count_invariant() {
    let mc = via_mc();
    let seq = mc.characterize_with(150, 17, &RuntimeConfig::threaded(1));
    for threads in [2, 8] {
        let par = mc.characterize_with(150, 17, &RuntimeConfig::threaded(threads));
        // Bit-identical per-trial failure sequences, in trial order.
        assert_eq!(seq.samples(), par.samples(), "threads = {threads}");
        assert_eq!(
            seq.ttf_samples(FailureCriterion::OpenCircuit),
            par.ttf_samples(FailureCriterion::OpenCircuit),
        );
        assert_eq!(par.report().threads, threads);
    }
}

#[test]
fn grid_mc_is_thread_count_invariant() {
    let mc = grid_mc();
    let seq = mc.run_threaded(20, 29, 1).unwrap();
    for threads in [2, 8] {
        let par = mc.run_threaded(20, 29, threads).unwrap();
        // Bit-identical system TTFs AND identical failure orders (the site
        // histogram is sensitive to which array died in which trial).
        assert_eq!(seq.ttf_seconds(), par.ttf_seconds(), "threads = {threads}");
        assert_eq!(seq.failures_per_trial(), par.failures_per_trial());
        assert_eq!(seq.site_failure_counts(), par.site_failure_counts());
    }
}

/// Variation-enabled trials draw the correlated temperature/linewidth
/// fields from per-trial RNG sub-streams, so turning variation on must
/// not cost the thread-count invariance — every sample bit, and the
/// variance decomposition built from a replayed frozen-field run, must
/// agree across thread counts.
#[test]
fn varied_characterization_is_thread_count_invariant() {
    let mc = via_mc().with_variation(Variation {
        edge_current_factor: 0.5,
        temperature_sigma_c: 6.0,
        linewidth_sigma: 0.05,
    });
    let seq = mc.characterize_with(150, 17, &RuntimeConfig::threaded(1));
    for threads in [2, 8] {
        let par = mc.characterize_with(150, 17, &RuntimeConfig::threaded(threads));
        assert_eq!(seq.samples(), par.samples(), "threads = {threads}");
        assert_eq!(
            seq.ttf_samples(FailureCriterion::OpenCircuit),
            par.ttf_samples(FailureCriterion::OpenCircuit),
        );
    }
    let (_, d1) = mc.characterize_with_variance(96, 23, &RuntimeConfig::threaded(1));
    let (_, d4) = mc.characterize_with_variance(96, 23, &RuntimeConfig::threaded(4));
    assert_eq!(d1, d4);
}

/// The grid-level variation fields cross the same contract with the
/// solver's microkernel backend: every `(backend, thread count)` pair
/// must reproduce the same system TTFs and failure orders bit for bit.
#[test]
fn varied_grid_mc_is_thread_and_kernel_backend_invariant() {
    use emgrid::sparse::{FactorOptions, KernelBackend};

    let var = Variation {
        temperature_sigma_c: 8.0,
        linewidth_sigma: 0.05,
        ..Variation::default()
    };
    let mc = grid_mc().with_variation(GridVariation {
        ttf_ln_sigma: var.grid_ttf_ln_sigma(&Technology::default()),
        linewidth_sigma: var.linewidth_sigma,
    });
    let run = |kernels: KernelBackend, threads: usize| {
        mc.clone()
            .with_factor_options(FactorOptions::default().with_kernels(kernels))
            .run_threaded(20, 29, threads)
            .unwrap()
    };
    let seq = run(KernelBackend::Scalar, 1);
    for kernels in [KernelBackend::Scalar, KernelBackend::Blocked] {
        for threads in [2, 8] {
            let par = run(kernels, threads);
            let label = format!("kernels = {}, threads = {threads}", kernels.label());
            assert_eq!(seq.ttf_seconds(), par.ttf_seconds(), "{label}");
            assert_eq!(
                seq.failures_per_trial(),
                par.failures_per_trial(),
                "{label}"
            );
            assert_eq!(
                seq.site_failure_counts(),
                par.site_failure_counts(),
                "{label}"
            );
        }
    }
}

#[test]
fn early_termination_is_thread_count_invariant() {
    // The stopping decision is taken at deterministic batch boundaries on
    // trial-ordered statistics, so even the *number* of trials run must
    // agree across thread counts.
    let mc = via_mc();
    let config = |threads| {
        RuntimeConfig::threaded(threads).with_early_stop(EarlyStop {
            target_half_width: 0.1,
            confidence: 0.95,
            min_trials: 32,
            batch: 32,
        })
    };
    let seq = mc.characterize_with(5_000, 41, &config(1));
    assert!(seq.report().stopped_early, "target should stop this run");
    for threads in [2, 8] {
        let par = mc.characterize_with(5_000, 41, &config(threads));
        assert_eq!(seq.trials(), par.trials(), "threads = {threads}");
        assert_eq!(seq.samples(), par.samples());
        assert_eq!(par.report().stopped_early, seq.report().stopped_early);
    }
}

#[test]
fn trials_run_is_scheduling_independent_telemetry() {
    let mc = via_mc();
    let r = mc.characterize_with(97, 53, &RuntimeConfig::threaded(3));
    let report = r.report();
    assert_eq!(report.trials_requested, 97);
    assert_eq!(report.trials_run, 97);
    assert_eq!(report.trials_per_thread.iter().sum::<usize>(), 97);
    assert_eq!(report.stream.count(), 97);
    assert!(report.wall.as_nanos() > 0);
}

/// The supernodal sparse engine behind every direct solve: the AMD
/// permutation, the supernode partition and every solve bit must be
/// independent of the solver's thread count, including on systems large
/// enough to engage the parallel elimination-tree solve plan.
#[test]
fn sparse_factorization_is_thread_count_invariant() {
    use emgrid::sparse::{FactorOptions, LdlFactor, TripletMatrix};

    // 5-point Laplacian on an 80 x 70 grid: 5600 unknowns, comfortably
    // past the threshold where the planned parallel solve kicks in.
    let (rows, cols) = (80usize, 70usize);
    let n = rows * cols;
    let mut t = TripletMatrix::new(n, n);
    for r in 0..rows {
        for c in 0..cols {
            let i = r * cols + c;
            t.push(i, i, 4.0 + 1e-3);
            if r + 1 < rows {
                let j = (r + 1) * cols + c;
                t.push(i, j, -1.0);
                t.push(j, i, -1.0);
            }
            if c + 1 < cols {
                let j = r * cols + c + 1;
                t.push(i, j, -1.0);
                t.push(j, i, -1.0);
            }
        }
    }
    let a = t.to_csr();
    let b: Vec<f64> = (0..n).map(|i| ((i * 37) % 19) as f64 - 9.0).collect();

    let factor = |threads: usize| {
        LdlFactor::factor_with(&a, &FactorOptions::default().with_threads(threads)).unwrap()
    };
    let seq = factor(1);
    let x_seq = seq.solve(&b);
    for threads in [2, 8] {
        let par = factor(threads);
        assert_eq!(
            par.permutation().as_slice(),
            seq.permutation().as_slice(),
            "AMD permutation must not depend on threads"
        );
        assert_eq!(
            par.supernode_ptr(),
            seq.supernode_ptr(),
            "supernode partition must not depend on threads"
        );
        assert_eq!(par.l_nnz(), seq.l_nnz());
        assert_eq!(par.solve(&b), x_seq, "threads = {threads}");
    }
}

/// The dense-panel microkernel contract, crossed with threading: every
/// `(backend, thread count)` pair must produce byte-identical factor
/// arrays, solves and multi-RHS panels. CI runs this suite once under
/// `EMGRID_KERNELS=scalar` and once under `EMGRID_KERNELS=blocked`; the
/// env var picks the *baseline* backend so both directions of the
/// comparison get exercised.
#[test]
fn sparse_factorization_is_kernel_backend_invariant() {
    use emgrid::sparse::{FactorOptions, KernelBackend, LdlFactor, TripletMatrix};

    let (rows, cols) = (40usize, 33usize);
    let n = rows * cols;
    let mut t = TripletMatrix::new(n, n);
    for r in 0..rows {
        for c in 0..cols {
            let i = r * cols + c;
            t.push(i, i, 4.0 + 1e-3);
            if r + 1 < rows {
                t.push_sym(i, (r + 1) * cols + c, -1.0);
            }
            if c + 1 < cols {
                t.push_sym(i, r * cols + c + 1, -1.0);
            }
        }
    }
    let a = t.to_csr();
    let b: Vec<f64> = (0..n).map(|i| ((i * 37) % 19) as f64 - 9.0).collect();
    let many: Vec<Vec<f64>> = (0..5)
        .map(|s| {
            (0..n)
                .map(|i| ((i * 29 + s * 13) % 23) as f64 - 11.0)
                .collect()
        })
        .collect();

    let baseline = std::env::var("EMGRID_KERNELS")
        .ok()
        .and_then(|v| KernelBackend::parse(&v))
        .unwrap_or(KernelBackend::Scalar);
    let factor = |kernels: KernelBackend, threads: usize| {
        let opts = FactorOptions::default()
            .with_kernels(kernels)
            .with_threads(threads);
        LdlFactor::factor_with(&a, &opts).unwrap()
    };
    let seq = factor(baseline, 1);
    let x_seq = seq.solve(&b);
    let many_seq = seq.solve_many(&many);
    for kernels in [KernelBackend::Scalar, KernelBackend::Blocked] {
        for threads in [1, 2, 8] {
            let f = factor(kernels, threads);
            let label = format!("kernels = {}, threads = {threads}", kernels.label());
            assert_eq!(f.factor_parts(), seq.factor_parts(), "{label}");
            assert_eq!(f.solve(&b), x_seq, "{label}");
            assert_eq!(f.solve_many(&many), many_seq, "{label}");
        }
    }
}

/// Tentpole invariant of the parallel FEA path: the full stress field —
/// every displacement bit — is identical whether the assembly and CG
/// kernels run on 1, 2, or 8 threads.
#[test]
fn fea_stress_field_is_thread_count_invariant() {
    use emgrid::fea::SolveMethod;
    let model = CharacterizationModel {
        array: ViaArrayGeometry::square(2, 0.5, 1.0),
        margin: 0.5,
        resolution: 0.4,
        ..CharacterizationModel::default()
    };
    let solve = |threads: usize| {
        ThermalStressAnalysis::new(model)
            .with_method(SolveMethod::Iterative {
                tolerance: 1e-8,
                max_iterations: 50_000,
            })
            .with_threads(threads)
            .run()
            .expect("coarse model solves")
    };
    let seq = solve(1);
    for threads in [2, 8] {
        let par = solve(threads);
        assert_eq!(
            par.displacements(),
            seq.displacements(),
            "threads = {threads}"
        );
        assert_eq!(par.per_via_peak_stress(), seq.per_via_peak_stress());
    }
}
