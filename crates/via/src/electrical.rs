//! Current redistribution inside a via array.
//!
//! When vias fail, the survivors carry the array current. The paper's
//! Algorithm 1 recomputes component currents after every failure; this
//! module supplies the two models used for that step:
//!
//! * [`CurrentModel::Uniform`] — surviving vias share the current equally
//!   (the paper's first-order model: TTF scales by `(n/(n−n_f))²`),
//! * [`CurrentModel::Network`] — the via array as a resistor network: two
//!   conducting plates (the wire segments above and below) connected by the
//!   surviving vias. Solving the network captures **current crowding**: vias
//!   near the feeding edges carry more than interior vias (the effect
//!   studied by the multi-via model of the paper's reference \[4\]).

use emgrid_sparse::{FactorOptions, LdlFactor, Ordering, TripletMatrix};

/// Parameters of the plate-network redistribution model (conductances in
/// siemens).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkParams {
    /// Conductance of one via.
    pub via_conductance: f64,
    /// Conductance of one inter-via plate segment (both plates).
    pub plate_conductance: f64,
    /// Conductance tying the collection edge to the external circuit.
    pub contact_conductance: f64,
}

impl Default for NetworkParams {
    fn default() -> Self {
        // A 0.25 µm Cu via is ~0.1 Ω; a via-pitch square of 0.3 µm plate is
        // ~0.1 Ω/sq. Their ratio — not the absolute values — sets the
        // crowding strength.
        NetworkParams {
            via_conductance: 8.0,
            plate_conductance: 10.0,
            contact_conductance: 100.0,
        }
    }
}

/// How current redistributes across surviving vias.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CurrentModel {
    /// Equal sharing among survivors.
    #[default]
    Uniform,
    /// Plate-network solve with current crowding.
    Network(NetworkParams),
}

impl CurrentModel {
    /// Per-via currents (A) for a `rows × cols` array given the alive mask,
    /// normalized so alive currents sum to `total_current`. Dead vias carry
    /// zero.
    ///
    /// Current enters the array from the upper wire (running along the row
    /// direction: the first and last rows of the upper plate) and leaves by
    /// the lower wire (the first and last columns of the lower plate),
    /// matching the Plus-intersection topology.
    ///
    /// # Panics
    ///
    /// Panics if `alive.len() != rows * cols`, if no via is alive, or if
    /// `total_current <= 0`.
    pub fn via_currents(
        &self,
        rows: usize,
        cols: usize,
        alive: &[bool],
        total_current: f64,
    ) -> Vec<f64> {
        let n = rows * cols;
        assert_eq!(alive.len(), n, "alive mask length mismatch");
        assert!(total_current > 0.0, "total current must be positive");
        let alive_count = alive.iter().filter(|&&a| a).count();
        assert!(alive_count > 0, "at least one via must be alive");
        match self {
            CurrentModel::Uniform => {
                let share = total_current / alive_count as f64;
                alive.iter().map(|&a| if a { share } else { 0.0 }).collect()
            }
            CurrentModel::Network(p) => network_currents(rows, cols, alive, total_current, p),
        }
    }
}

/// Solves the two-plate resistor network and returns per-via currents.
fn network_currents(
    rows: usize,
    cols: usize,
    alive: &[bool],
    total_current: f64,
    p: &NetworkParams,
) -> Vec<f64> {
    let n = rows * cols;
    let upper = |r: usize, c: usize| r * cols + c;
    let lower = |r: usize, c: usize| n + r * cols + c;
    let mut g = TripletMatrix::new(2 * n, 2 * n);
    let mut stamp = |a: usize, b: usize, cond: f64| {
        g.push(a, a, cond);
        g.push(b, b, cond);
        g.push(a, b, -cond);
        g.push(b, a, -cond);
    };
    // Plate meshes (both plates identical).
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                stamp(upper(r, c), upper(r, c + 1), p.plate_conductance);
                stamp(lower(r, c), lower(r, c + 1), p.plate_conductance);
            }
            if r + 1 < rows {
                stamp(upper(r, c), upper(r + 1, c), p.plate_conductance);
                stamp(lower(r, c), lower(r + 1, c), p.plate_conductance);
            }
        }
    }
    // Vias.
    for r in 0..rows {
        for c in 0..cols {
            if alive[r * cols + c] {
                stamp(upper(r, c), lower(r, c), p.via_conductance);
            }
        }
    }
    // Ground ties at the collection edge (lower plate, first & last column).
    let mut rhs = vec![0.0; 2 * n];
    for r in 0..rows {
        for c in [0, cols.saturating_sub(1)] {
            let node = lower(r, c);
            g.push(node, node, p.contact_conductance);
        }
    }
    // Injection at the feed edge (upper plate, first & last row).
    let feed_rows: Vec<usize> = if rows == 1 {
        vec![0]
    } else {
        vec![0, rows - 1]
    };
    let feed_count = (feed_rows.len() * cols) as f64;
    for &r in &feed_rows {
        for c in 0..cols {
            rhs[upper(r, c)] += total_current / feed_count;
        }
    }
    let matrix = g.to_csr();
    // RCM, not the AMD default: on these <=128-node networks AMD's ordering
    // setup is not repaid. The `via_mc` bench's `network_4x4_100_trials`
    // row measured ~48 ms with RCM against ~81 ms with AMD (medians).
    let v = LdlFactor::factor_with(
        &matrix,
        &FactorOptions::default().with_ordering(Ordering::Rcm),
    )
    .expect("plate network is SPD while any via is alive")
    .solve(&rhs);
    let mut currents = vec![0.0; n];
    let mut sum = 0.0;
    for r in 0..rows {
        for c in 0..cols {
            let idx = r * cols + c;
            if alive[idx] {
                let i = p.via_conductance * (v[upper(r, c)] - v[lower(r, c)]);
                currents[idx] = i;
                sum += i;
            }
        }
    }
    // Normalize out the tiny current lost to numerical residue so the
    // invariant Σ I_via = I_total holds exactly.
    let scale = total_current / sum;
    for i in &mut currents {
        *i *= scale;
    }
    currents
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_shares_equally_and_skips_dead() {
        let alive = vec![true, false, true, true];
        let i = CurrentModel::Uniform.via_currents(2, 2, &alive, 9.0);
        assert_eq!(i, vec![3.0, 0.0, 3.0, 3.0]);
    }

    #[test]
    fn currents_sum_to_total_for_both_models() {
        let alive = vec![true; 16];
        for model in [
            CurrentModel::Uniform,
            CurrentModel::Network(NetworkParams::default()),
        ] {
            let i = model.via_currents(4, 4, &alive, 0.01);
            let sum: f64 = i.iter().sum();
            assert!((sum - 0.01).abs() < 1e-12, "{model:?}: {sum}");
        }
    }

    #[test]
    fn network_model_crowds_current_at_the_perimeter() {
        let alive = vec![true; 16];
        let i = CurrentModel::Network(NetworkParams::default()).via_currents(4, 4, &alive, 1.0);
        // Feed rows are 0 and 3; collection columns are 0 and 3. A corner
        // via (0,0) must beat the interior via (1,1).
        assert!(i[0] > i[5], "corner {} vs interior {}", i[0], i[5]);
        // All currents positive.
        assert!(i.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn failure_shifts_current_to_neighbors() {
        let mut alive = vec![true; 16];
        let model = CurrentModel::Network(NetworkParams::default());
        let before = model.via_currents(4, 4, &alive, 1.0);
        alive[0] = false; // corner via dies
        let after = model.via_currents(4, 4, &alive, 1.0);
        assert_eq!(after[0], 0.0);
        // Its neighbors (0,1) and (1,0) pick up current.
        assert!(after[1] > before[1]);
        assert!(after[4] > before[4]);
        // Totals conserved.
        let sum: f64 = after.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_via_carries_everything() {
        for model in [
            CurrentModel::Uniform,
            CurrentModel::Network(NetworkParams::default()),
        ] {
            let i = model.via_currents(1, 1, &[true], 2.5);
            assert!((i[0] - 2.5).abs() < 1e-12);
        }
    }

    #[test]
    fn last_survivor_takes_all() {
        let mut alive = vec![false; 16];
        alive[5] = true;
        let model = CurrentModel::Network(NetworkParams::default());
        let i = model.via_currents(4, 4, &alive, 1.0);
        assert!((i[5] - 1.0).abs() < 1e-9);
        assert!(i.iter().enumerate().all(|(k, &v)| k == 5 || v == 0.0));
    }

    #[test]
    #[should_panic(expected = "at least one via must be alive")]
    fn all_dead_panics() {
        CurrentModel::Uniform.via_currents(2, 2, &[false; 4], 1.0);
    }

    #[test]
    fn stronger_plates_reduce_crowding() {
        let alive = vec![true; 16];
        let weak = CurrentModel::Network(NetworkParams {
            plate_conductance: 2.0,
            ..NetworkParams::default()
        })
        .via_currents(4, 4, &alive, 1.0);
        let strong = CurrentModel::Network(NetworkParams {
            plate_conductance: 1000.0,
            ..NetworkParams::default()
        })
        .via_currents(4, 4, &alive, 1.0);
        let spread = |v: &[f64]| {
            let max = v.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x));
            let min = v.iter().fold(f64::INFINITY, |m, &x| m.min(x));
            max / min
        };
        assert!(spread(&weak) > spread(&strong));
        // With near-ideal plates the distribution approaches uniform.
        assert!(spread(&strong) < 1.05);
    }
}
