//! Stage 5 (results interpretation): model the retained counters in terms
//! of problem (and machine) characteristics.
//!
//! §4.2: "we model those parameters in terms of typical characteristics of
//! either the problem in hand or both the problem and hardware type, so that
//! predictions can be made solely based on the latter". Trivial cases use
//! GLMs (matrix size in MM); nonlinear, interacting cases use MARS (NW,
//! where the paper reports an average R² of 0.99 with `earth`).

use crate::dataset::Dataset;
use crate::{BfError, Result};
use bf_linalg::stats;
use bf_regress::glm::{Basis, LinearModel};
use bf_regress::mars::{Mars, MarsParams};
use serde::{Deserialize, Serialize};

/// Which regression family to use for counter models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelStrategy {
    /// Generalized linear model (polynomials + interactions of the
    /// characteristics).
    Glm,
    /// Multivariate adaptive regression splines.
    Mars,
    /// Fit both; keep the one with the better training R².
    Auto,
}

/// The fitted model of one counter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum CounterFit {
    /// The "counter" is itself a problem characteristic: pass it through.
    Identity {
        /// Index into the characteristic vector.
        index: usize,
    },
    /// A GLM over the characteristics.
    Glm(LinearModel),
    /// A MARS model over the characteristics.
    Mars(Mars),
}

/// One counter's model plus its fit diagnostics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CounterModel {
    /// Counter (feature) name.
    pub counter: String,
    /// The fitted regression.
    pub fit: CounterFit,
    /// Training R² of the fit.
    pub r_squared: f64,
    /// Residual deviance (RSS) of the fit — the quantity the paper reports
    /// per counter model.
    pub residual_deviance: f64,
    /// Residual deviance per observation.
    pub mean_residual_deviance: f64,
}

impl CounterModel {
    /// Predicts the counter value from a characteristic vector.
    pub fn predict(&self, chars: &[f64]) -> f64 {
        match &self.fit {
            CounterFit::Identity { index } => chars[*index],
            CounterFit::Glm(m) => m.predict_row(chars),
            CounterFit::Mars(m) => m.predict_row(chars),
        }
    }

    /// The shortest characteristic vector [`Self::predict`] can read:
    /// one past the largest characteristic index the fit reads.
    pub fn input_width(&self) -> usize {
        let last = match &self.fit {
            CounterFit::Identity { index } => Some(*index),
            CounterFit::Glm(m) => m
                .basis
                .iter()
                .flat_map(|b| match *b {
                    Basis::Intercept => [None, None],
                    Basis::Power { feature, .. } | Basis::Log { feature, .. } => {
                        [Some(feature), None]
                    }
                    Basis::Interaction { a, b } => [Some(a), Some(b)],
                })
                .flatten()
                .max(),
            CounterFit::Mars(m) => m
                .basis
                .iter()
                .flat_map(|b| &b.hinges)
                .map(|h| h.feature)
                .max(),
        };
        last.map_or(0, |i| i.saturating_add(1))
    }

    /// Short description of the model family used.
    pub fn family(&self) -> &'static str {
        match &self.fit {
            CounterFit::Identity { .. } => "identity",
            CounterFit::Glm(_) => "glm",
            CounterFit::Mars(_) => "mars",
        }
    }
}

/// The models of all retained counters for one application.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CounterModelSet {
    /// Characteristic names, in predictor order.
    pub characteristics: Vec<String>,
    /// One model per retained counter, aligned with the retained-feature
    /// order used by the reduced forest.
    pub models: Vec<CounterModel>,
}

/// A GLM basis over `p` characteristics: intercept, powers 1..=3 of each,
/// and pairwise interactions.
fn glm_basis(p: usize) -> Vec<Basis> {
    let mut basis = vec![Basis::Intercept];
    for f in 0..p {
        for power in 1..=3u32 {
            basis.push(Basis::Power { feature: f, power });
        }
    }
    for a in 0..p {
        for b in (a + 1)..p {
            basis.push(Basis::Interaction { a, b });
        }
    }
    basis
}

impl CounterModelSet {
    /// Fits a model for every `selected` feature as a function of the
    /// `characteristics` columns of `train`.
    pub fn fit(
        train: &Dataset,
        selected: &[String],
        characteristics: &[String],
        strategy: ModelStrategy,
    ) -> Result<CounterModelSet> {
        if characteristics.is_empty() {
            return Err(BfError::Data("no characteristics given".into()));
        }
        let _span = bf_trace::span!("fit_counter_models", counters = selected.len());
        // Characteristic matrix (inputs to every counter model).
        let char_rows: Vec<Vec<f64>> = {
            let idx: Vec<usize> = characteristics
                .iter()
                .map(|c| {
                    train
                        .feature_index(c)
                        .ok_or_else(|| BfError::Data(format!("characteristic {c} not in data")))
                })
                .collect::<Result<_>>()?;
            train
                .rows
                .iter()
                .map(|r| idx.iter().map(|&j| r[j]).collect())
                .collect()
        };

        let mut models = Vec::with_capacity(selected.len());
        for name in selected {
            if let Some(index) = characteristics.iter().position(|c| c == name) {
                models.push(CounterModel {
                    counter: name.clone(),
                    fit: CounterFit::Identity { index },
                    r_squared: 1.0,
                    residual_deviance: 0.0,
                    mean_residual_deviance: 0.0,
                });
                continue;
            }
            let _one = bf_trace::span!("fit_counter", counter = name.as_str());
            let y = train
                .column(name)
                .ok_or_else(|| BfError::Data(format!("selected feature {name} not in data")))?;
            models.push(Self::fit_one(name, &char_rows, &y, strategy)?);
        }
        Ok(CounterModelSet {
            characteristics: characteristics.to_vec(),
            models,
        })
    }

    fn fit_one(
        name: &str,
        chars: &[Vec<f64>],
        y: &[f64],
        strategy: ModelStrategy,
    ) -> Result<CounterModel> {
        let p = chars[0].len();
        let fit_glm = || -> Result<CounterModel> {
            let m = LinearModel::fit(&glm_basis(p), chars, y)
                .map_err(|e| BfError::Fit(e.to_string()))?;
            let pred = m.predict(chars);
            let r2 = stats::r_squared(&pred, y);
            Ok(CounterModel {
                counter: name.to_string(),
                r_squared: r2,
                residual_deviance: m.residual_deviance,
                mean_residual_deviance: m.mean_residual_deviance(),
                fit: CounterFit::Glm(m),
            })
        };
        let fit_mars = || -> Result<CounterModel> {
            let m = Mars::fit(chars, y, &MarsParams::default())
                .map_err(|e| BfError::Fit(e.to_string()))?;
            let pred = m.predict(chars);
            let rss: f64 = pred
                .iter()
                .zip(y.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            Ok(CounterModel {
                counter: name.to_string(),
                r_squared: m.train_r_squared,
                residual_deviance: rss,
                mean_residual_deviance: rss / y.len() as f64,
                fit: CounterFit::Mars(m),
            })
        };
        match strategy {
            ModelStrategy::Glm => fit_glm(),
            ModelStrategy::Mars => fit_mars(),
            ModelStrategy::Auto => {
                let g = fit_glm()?;
                let m = fit_mars()?;
                // Prefer the simpler GLM unless MARS is clearly better.
                if m.r_squared > g.r_squared + 0.01 {
                    Ok(m)
                } else {
                    Ok(g)
                }
            }
        }
    }

    /// Predicts all counter values for a characteristic vector, aligned
    /// with the retained-feature order.
    pub fn predict(&self, chars: &[f64]) -> Vec<f64> {
        self.models.iter().map(|m| m.predict(chars)).collect()
    }

    /// Average R² across counter models (the paper quotes this for NW).
    pub fn mean_r_squared(&self) -> f64 {
        if self.models.is_empty() {
            return 0.0;
        }
        self.models.iter().map(|m| m.r_squared).sum::<f64>() / self.models.len() as f64
    }

    /// The counter model with the worst residual deviance (the paper calls
    /// out `inst_replay_overhead` as the poorly-modelled outlier for MM).
    pub fn worst_fit(&self) -> Option<&CounterModel> {
        self.models
            .iter()
            .filter(|m| !matches!(m.fit, CounterFit::Identity { .. }))
            .min_by(|a, b| a.r_squared.partial_cmp(&b.r_squared).unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A dataset whose counters are known functions of `size`.
    fn synthetic() -> Dataset {
        let mut ds = Dataset::new(
            vec![
                "size".into(),
                "quadratic".into(),
                "kinked".into(),
                "noisy".into(),
            ],
            "time_ms",
        );
        for i in 1..=40 {
            let s = i as f64 * 16.0;
            let quadratic = 0.01 * s * s + 2.0;
            let kinked = if s < 300.0 {
                s
            } else {
                300.0 + 0.1 * (s - 300.0)
            };
            let noisy = ((i * 2654435761usize) % 100) as f64;
            ds.push(vec![s, quadratic, kinked, noisy], s * 0.01)
                .unwrap();
        }
        ds
    }

    #[test]
    fn glm_models_quadratic_counter_perfectly() {
        let ds = synthetic();
        let set = CounterModelSet::fit(
            &ds,
            &["quadratic".into()],
            &["size".into()],
            ModelStrategy::Glm,
        )
        .unwrap();
        assert!(set.models[0].r_squared > 0.9999);
        let pred = set.models[0].predict(&[100.0]);
        assert!((pred - (0.01 * 100.0 * 100.0 + 2.0)).abs() < 0.5);
    }

    #[test]
    fn mars_wins_on_kinked_counter_under_auto() {
        let ds = synthetic();
        let set = CounterModelSet::fit(
            &ds,
            &["kinked".into()],
            &["size".into()],
            ModelStrategy::Auto,
        )
        .unwrap();
        assert!(
            set.models[0].r_squared > 0.99,
            "r2 {}",
            set.models[0].r_squared
        );
    }

    #[test]
    fn characteristic_passes_through_identity() {
        let ds = synthetic();
        let set = CounterModelSet::fit(
            &ds,
            &["size".into(), "quadratic".into()],
            &["size".into()],
            ModelStrategy::Auto,
        )
        .unwrap();
        assert_eq!(set.models[0].family(), "identity");
        assert_eq!(set.models[0].predict(&[123.0]), 123.0);
    }

    #[test]
    fn input_width_is_one_past_the_last_characteristic_read() {
        let ds = synthetic();
        let chars = ["size".to_string(), "noisy".to_string()];
        let selected = ["size".into(), "noisy".into(), "quadratic".into()];
        let glm = CounterModelSet::fit(&ds, &selected, &chars, ModelStrategy::Glm).unwrap();
        let widths: Vec<usize> = glm.models.iter().map(|m| m.input_width()).collect();
        assert_eq!(widths, [1, 2, 2], "identity 0, identity 1, GLM over both");
        let mars =
            CounterModelSet::fit(&ds, &["kinked".into()], &chars, ModelStrategy::Mars).unwrap();
        assert!((1..=2).contains(&mars.models[0].input_width()));
        let mut constant = mars.models[0].clone();
        let CounterFit::Mars(m) = &mut constant.fit else {
            unreachable!("fitted as MARS")
        };
        m.basis.truncate(1);
        assert_eq!(constant.input_width(), 0, "the intercept reads nothing");
    }

    #[test]
    fn predict_returns_counters_in_selected_order() {
        let ds = synthetic();
        let set = CounterModelSet::fit(
            &ds,
            &["quadratic".into(), "size".into()],
            &["size".into()],
            ModelStrategy::Glm,
        )
        .unwrap();
        let out = set.predict(&[160.0]);
        assert_eq!(out.len(), 2);
        assert!((out[1] - 160.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_counter_has_poor_fit_and_is_worst() {
        let ds = synthetic();
        let set = CounterModelSet::fit(
            &ds,
            &["quadratic".into(), "noisy".into()],
            &["size".into()],
            ModelStrategy::Auto,
        )
        .unwrap();
        let worst = set.worst_fit().unwrap();
        assert_eq!(worst.counter, "noisy");
        assert!(worst.r_squared < 0.9);
        assert!(worst.mean_residual_deviance > 0.0);
    }

    #[test]
    fn rejects_unknown_characteristic_or_feature() {
        let ds = synthetic();
        assert!(CounterModelSet::fit(
            &ds,
            &["quadratic".into()],
            &["nope".into()],
            ModelStrategy::Glm
        )
        .is_err());
        assert!(
            CounterModelSet::fit(&ds, &["nope".into()], &["size".into()], ModelStrategy::Glm)
                .is_err()
        );
    }

    #[test]
    fn mean_r_squared_averages_models() {
        let ds = synthetic();
        let set = CounterModelSet::fit(
            &ds,
            &["quadratic".into(), "kinked".into()],
            &["size".into()],
            ModelStrategy::Auto,
        )
        .unwrap();
        let avg = set.mean_r_squared();
        assert!(avg > 0.99, "avg {avg}");
    }
}
