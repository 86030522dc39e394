//! Fill-in and wall-time ablation of the direct solver's orderings:
//! natural vs RCM vs AMD vs nested dissection on the one (supernodal)
//! numeric engine, on the two matrix families the workspace actually
//! factors — the fig. 7 FEA stiffness matrix (paper 4x4 array) and a large
//! synthetic power-grid Laplacian.
//!
//! Results land machine-readably in `BENCH_sparse.json`; each `factor`
//! benchmark id embeds the factor's fill (`fill_nnz=`) so the CI smoke
//! job can assert AMD never fills more than RCM without re-running the
//! factorization. Set `EMGRID_BENCH_SMALL=1` (CI) to shrink both
//! matrices and sample counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use emgrid::fea::assembly::{assemble, BoundaryConditions};
use emgrid::prelude::*;
use emgrid::sparse::{
    conjugate_gradient, CgOptions, CsrMatrix, FactorOptions, KernelBackend, LdlFactor, Ordering,
    Preconditioner, TripletMatrix,
};
use std::hint::black_box;

fn grid_laplacian(n: usize) -> CsrMatrix {
    let id = |x: usize, y: usize| y * n + x;
    let mut t = TripletMatrix::new(n * n, n * n);
    for y in 0..n {
        for x in 0..n {
            t.push(id(x, y), id(x, y), 4.01);
            if x + 1 < n {
                t.push_sym(id(x, y), id(x + 1, y), -1.0);
            }
            if y + 1 < n {
                t.push_sym(id(x, y), id(x, y + 1), -1.0);
            }
        }
    }
    t.to_csr()
}

fn fea_matrix(small: bool) -> CsrMatrix {
    let model = if small {
        CharacterizationModel {
            pattern: IntersectionPattern::Plus,
            array: ViaArrayGeometry::square(2, 0.5, 1.0),
            margin: 0.5,
            resolution: 0.5,
            ..CharacterizationModel::default()
        }
    } else {
        CharacterizationModel {
            pattern: IntersectionPattern::Plus,
            array: ViaArrayGeometry::paper_4x4(),
            resolution: 1.0,
            ..CharacterizationModel::default()
        }
    };
    let mesh = model.build_mesh();
    assemble(&mesh, &BoundaryConditions::confined_stack(), -220.0).stiffness
}

const ORDERINGS: [Ordering; 4] = [
    Ordering::Natural,
    Ordering::Rcm,
    Ordering::Amd,
    Ordering::Nd,
];

/// The microkernel axis: both explicit backends on the default AMD
/// configuration. `auto` is excluded — it is one of these two, and
/// benching it twice would only add noise.
const KERNEL_AXIS: [KernelBackend; 2] = [KernelBackend::Scalar, KernelBackend::Blocked];

fn bench_ordering(c: &mut Criterion) {
    c.json_output("BENCH_sparse.json");
    let small = std::env::var("EMGRID_BENCH_SMALL").is_ok_and(|v| v == "1");
    let grid_n = if small { 48 } else { 110 };
    let matrices = [
        ("fea_fig07", fea_matrix(small)),
        ("grid", grid_laplacian(grid_n)),
    ];
    let mut group = c.benchmark_group("ordering_ablation");
    group.sample_size(if small { 3 } else { 5 });
    for (name, a) in &matrices {
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 37) % 19) as f64 - 9.0).collect();
        for ordering in ORDERINGS {
            let opts = FactorOptions::default().with_ordering(ordering);
            let label = ordering.label();
            let factored = LdlFactor::factor_with(a, &opts).expect("SPD bench matrix factors");
            group.bench_with_input(
                BenchmarkId::new(
                    format!("factor/{name}/{label}"),
                    format!("fill_nnz={}", factored.l_nnz()),
                ),
                a,
                |bench, a| {
                    bench.iter(|| black_box(LdlFactor::factor_with(black_box(a), &opts).unwrap()))
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("solve/{name}/{label}"), n),
                &factored,
                |bench, f| bench.iter(|| black_box(f.solve(black_box(&b)))),
            );
        }
        // The microkernel axis on the default AMD configuration: factor,
        // blocked multi-RHS solves and CG with each explicit backend.
        // Backends are bit-identical by contract, so any spread between
        // these ids is pure wall time.
        let many: Vec<Vec<f64>> = (0..8)
            .map(|s| {
                (0..n)
                    .map(|i| ((i * 29 + s * 13) % 23) as f64 - 11.0)
                    .collect()
            })
            .collect();
        for kernels in KERNEL_AXIS {
            let opts = FactorOptions::default().with_kernels(kernels);
            let klabel = kernels.label();
            let factored = LdlFactor::factor_with(a, &opts).unwrap();
            group.bench_with_input(
                BenchmarkId::new(
                    format!("factor/{name}/amd/kernels={klabel}"),
                    format!("fill_nnz={}", factored.l_nnz()),
                ),
                a,
                |bench, a| {
                    bench.iter(|| black_box(LdlFactor::factor_with(black_box(a), &opts).unwrap()))
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("solve_many8/{name}/kernels={klabel}"), n),
                &factored,
                |bench, f| bench.iter(|| black_box(f.solve_many(black_box(&many)))),
            );
            let cg_opts = CgOptions {
                tolerance: 1e-10,
                preconditioner: Preconditioner::IncompleteCholesky,
                kernels,
                ..CgOptions::default()
            };
            group.bench_with_input(
                BenchmarkId::new(format!("cg/{name}/kernels={klabel}"), n),
                a,
                |bench, a| {
                    bench.iter(|| {
                        black_box(
                            conjugate_gradient(black_box(a), black_box(&b), None, &cg_opts)
                                .unwrap(),
                        )
                    })
                },
            );
        }
        // The blocked multi-RHS path against one-at-a-time solves, both on
        // the default AMD factor.
        let factored = LdlFactor::factor_with(a, &FactorOptions::default()).unwrap();
        group.bench_with_input(
            BenchmarkId::new(format!("solve_many8/{name}/blocked"), n),
            &factored,
            |bench, f| bench.iter(|| black_box(f.solve_many(black_box(&many)))),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("solve_many8/{name}/one_by_one"), n),
            &factored,
            |bench, f| {
                bench.iter(|| {
                    many.iter()
                        .map(|rhs| f.solve(black_box(rhs)))
                        .collect::<Vec<_>>()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ordering);
criterion_main!(benches);
