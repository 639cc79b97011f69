//! The end-to-end characterization driver.
//!
//! Given a parameter space, a monomial basis, and a `measure` closure
//! that runs the routine on the cycle-accurate simulator, this collects
//! `(params, cycles)` observations, fits the macro-model by least
//! squares, and evaluates its accuracy on a held-out deterministic
//! sweep — the paper's "performance characterization" phase
//! (one-time cost, amortized over the whole exploration).

use crate::model::{MacroModel, ModelQuality, Monomial};
use crate::regress::{fit, RegressError};
use crate::stimulus::ParamSpace;
use rand::Rng;

/// Options for a characterization run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CharactOptions {
    /// Random training samples (ISS invocations).
    pub train_samples: usize,
    /// Held-out validation points (deterministic sweep).
    pub validation_points: usize,
}

impl Default for CharactOptions {
    fn default() -> Self {
        CharactOptions {
            train_samples: 64,
            validation_points: 16,
        }
    }
}

/// The outcome of characterizing one routine.
#[derive(Debug, Clone)]
pub struct Characterization {
    /// The fitted macro-model.
    pub model: MacroModel,
    /// Accuracy on the held-out validation set.
    pub quality: ModelQuality,
    /// The training observations (for reports).
    pub observations: Vec<(Vec<u64>, f64)>,
}

/// A pre-drawn set of stimuli: the random training points (in draw
/// order) followed by the deterministic validation sweep.
///
/// Splitting planning from measurement lets a driver consume the shared
/// RNG serially (keeping the stimulus stream independent of scheduling)
/// while the measurements themselves run on a worker pool or come from
/// a memo cache — see [`plan_stimuli`] and [`fit_planned`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StimulusPlan {
    /// Random training stimuli, in the order they were drawn.
    pub train: Vec<Vec<u64>>,
    /// Held-out validation stimuli (deterministic sweep).
    pub validation: Vec<Vec<u64>>,
}

impl StimulusPlan {
    /// Total number of stimuli (training + validation).
    pub fn len(&self) -> usize {
        self.train.len() + self.validation.len()
    }

    /// Whether the plan contains no stimuli.
    pub fn is_empty(&self) -> bool {
        self.train.is_empty() && self.validation.is_empty()
    }

    /// Every stimulus in measurement order: training first, then
    /// validation.
    pub fn points(&self) -> impl Iterator<Item = &[u64]> {
        self.train
            .iter()
            .chain(self.validation.iter())
            .map(Vec::as_slice)
    }
}

/// Draws the full stimulus plan for one characterization: random
/// training samples from `rng` plus the deterministic validation sweep.
/// Consumes exactly `options.train_samples` draws from `rng`.
pub fn plan_stimuli<R: Rng + ?Sized>(
    space: &ParamSpace,
    options: &CharactOptions,
    rng: &mut R,
) -> StimulusPlan {
    let train = (0..options.train_samples)
        .map(|_| space.sample(rng))
        .collect();
    let validation = space.sweep(options.validation_points.max(1));
    StimulusPlan { train, validation }
}

/// Fits a characterization from a stimulus plan and the cycle counts
/// measured for it, in plan order (training first, then validation) —
/// the second half of [`characterize`].
///
/// # Errors
///
/// Returns [`RegressError`] if the fit is degenerate.
///
/// # Panics
///
/// Panics if `basis` is empty or `cycles.len() != plan.len()`.
pub fn fit_planned(
    basis: &[Monomial],
    plan: &StimulusPlan,
    cycles: &[f64],
) -> Result<Characterization, RegressError> {
    assert!(!basis.is_empty(), "empty basis");
    assert_eq!(
        cycles.len(),
        plan.len(),
        "one cycle count per planned stimulus"
    );
    let (train_cycles, validation_cycles) = cycles.split_at(plan.train.len());

    let rows: Vec<Vec<f64>> = plan
        .train
        .iter()
        .map(|p| basis.iter().map(|m| m.eval(p)).collect())
        .collect();
    let coeffs = fit(&rows, train_cycles)?;
    let model = MacroModel::new("routine", basis.to_vec(), coeffs);

    let validation: Vec<(Vec<u64>, f64)> = plan
        .validation
        .iter()
        .cloned()
        .zip(validation_cycles.iter().copied())
        .collect();
    let quality = ModelQuality::evaluate(&model, &validation);

    Ok(Characterization {
        model,
        quality,
        observations: plan
            .train
            .iter()
            .cloned()
            .zip(train_cycles.iter().copied())
            .collect(),
    })
}

/// Characterizes a routine: samples the space, measures cycles through
/// `measure`, fits the basis, and validates on a sweep.
///
/// # Errors
///
/// Returns [`RegressError`] if the fit is degenerate (e.g. fewer samples
/// than basis terms, or a collinear basis over the sampled points).
///
/// # Panics
///
/// Panics if `basis` is empty or its dimensionality does not match the
/// space.
pub fn characterize<R: Rng + ?Sized>(
    space: &ParamSpace,
    basis: &[Monomial],
    options: &CharactOptions,
    rng: &mut R,
    mut measure: impl FnMut(&[u64]) -> f64,
) -> Result<Characterization, RegressError> {
    assert!(!basis.is_empty(), "empty basis");
    for m in basis {
        assert_eq!(m.dims(), space.dims(), "basis/space dimension mismatch");
    }
    let plan = plan_stimuli(space, options, rng);
    let cycles: Vec<f64> = plan.points().map(&mut measure).collect();
    fit_planned(basis, &plan, &cycles)
}

/// Renames a characterized model (the driver fits under a placeholder
/// name).
pub fn with_name(ch: Characterization, name: impl Into<String>) -> Characterization {
    Characterization {
        model: MacroModel::new(name, ch.model.basis().to_vec(), ch.model.coeffs().to_vec()),
        ..ch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2002)
    }

    #[test]
    fn linear_routine_recovered_exactly() {
        let space = ParamSpace::new(vec![(1, 64)]);
        let basis = vec![Monomial::constant(1), Monomial::linear(1, 0)];
        let ch = characterize(
            &space,
            &basis,
            &CharactOptions::default(),
            &mut rng(),
            |p| 12.0 + 6.25 * p[0] as f64,
        )
        .unwrap();
        assert!((ch.model.predict(&[32]) - 212.0).abs() < 1e-6);
        assert!(ch.quality.r_squared > 0.9999);
        assert!(ch.quality.mae_pct < 0.01);
    }

    #[test]
    fn quadratic_routine_needs_quadratic_basis() {
        let space = ParamSpace::new(vec![(1, 40)]);
        let measure = |p: &[u64]| 30.0 + 2.0 * p[0] as f64 + 1.5 * (p[0] * p[0]) as f64;
        // Linear basis underfits...
        let lin = characterize(
            &space,
            &[Monomial::constant(1), Monomial::linear(1, 0)],
            &CharactOptions::default(),
            &mut rng(),
            measure,
        )
        .unwrap();
        // ...quadratic basis nails it.
        let quad = characterize(
            &space,
            &Monomial::degree2_basis(1),
            &CharactOptions::default(),
            &mut rng(),
            measure,
        )
        .unwrap();
        assert!(quad.quality.mae_pct < 0.01);
        assert!(lin.quality.mae_pct > quad.quality.mae_pct);
    }

    #[test]
    fn noisy_routine_fits_within_tolerance() {
        // Cache effects etc. modeled as deterministic jitter ±3%.
        let space = ParamSpace::new(vec![(4, 64)]);
        let ch = characterize(
            &space,
            &[Monomial::constant(1), Monomial::linear(1, 0)],
            &CharactOptions {
                train_samples: 200,
                validation_points: 20,
            },
            &mut rng(),
            |p| {
                let base = 50.0 + 8.0 * p[0] as f64;
                let jitter = ((p[0] * 2654435761) % 7) as f64 - 3.0;
                base * (1.0 + jitter / 100.0)
            },
        )
        .unwrap();
        assert!(ch.quality.mae_pct < 5.0, "mae {}%", ch.quality.mae_pct);
        assert!(ch.quality.r_squared > 0.99);
    }

    #[test]
    fn two_parameter_cross_model() {
        // Schoolbook multiply: cycles ~ c0 + c1*(an*bn).
        let space = ParamSpace::new(vec![(1, 32), (1, 32)]);
        let basis = vec![Monomial::constant(2), Monomial::cross(2, 0, 1)];
        let ch = characterize(
            &space,
            &basis,
            &CharactOptions::default(),
            &mut rng(),
            |p| 40.0 + 3.0 * (p[0] * p[1]) as f64,
        )
        .unwrap();
        assert!((ch.model.predict(&[16, 16]) - (40.0 + 3.0 * 256.0)).abs() < 1e-6);
    }

    #[test]
    fn underdetermined_fit_reports_error() {
        let space = ParamSpace::new(vec![(1, 4)]);
        let basis = Monomial::degree2_basis(1);
        let r = characterize(
            &space,
            &basis,
            &CharactOptions {
                train_samples: 2,
                validation_points: 2,
            },
            &mut rng(),
            |p| p[0] as f64,
        );
        assert!(r.is_err());
    }

    #[test]
    fn planned_fit_matches_inline_characterization() {
        let space = ParamSpace::new(vec![(1, 64)]);
        let basis = vec![Monomial::constant(1), Monomial::linear(1, 0)];
        let opts = CharactOptions {
            train_samples: 16,
            validation_points: 6,
        };
        let measure = |p: &[u64]| 9.0 + 3.5 * p[0] as f64;
        let inline = characterize(&space, &basis, &opts, &mut rng(), measure).unwrap();
        let plan = plan_stimuli(&space, &opts, &mut rng());
        assert_eq!(plan.len(), 22);
        let cycles: Vec<f64> = plan.points().map(measure).collect();
        let planned = fit_planned(&basis, &plan, &cycles).unwrap();
        assert_eq!(planned.model.coeffs(), inline.model.coeffs());
        assert_eq!(planned.quality.mae_pct, inline.quality.mae_pct);
        assert_eq!(planned.observations, inline.observations);
    }

    #[test]
    #[should_panic(expected = "one cycle count per planned stimulus")]
    fn fit_planned_rejects_arity_mismatch() {
        let space = ParamSpace::new(vec![(1, 8)]);
        let plan = plan_stimuli(&space, &CharactOptions::default(), &mut rng());
        let _ = fit_planned(&[Monomial::constant(1)], &plan, &[1.0]);
    }

    #[test]
    fn with_name_renames() {
        let space = ParamSpace::new(vec![(1, 8)]);
        let ch = characterize(
            &space,
            &[Monomial::constant(1), Monomial::linear(1, 0)],
            &CharactOptions::default(),
            &mut rng(),
            |p| p[0] as f64,
        )
        .unwrap();
        let named = with_name(ch, "leaf_add");
        assert_eq!(named.model.name(), "leaf_add");
    }
}
