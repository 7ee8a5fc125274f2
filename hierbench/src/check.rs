//! Output checks: the served report against batch Algorithm 1, as the
//! `stream_batch_equivalence` pin states it — same outlier set, same
//! warnings, scores within 1e-9.

use std::collections::BTreeMap;

use hierod_core::{find_hierarchical_outliers, FindOptions, HierOutlier, HierReport, Warning};
use hierod_hierarchy::{Level, Plant};

/// Location of an outlier, independent of its position in the report.
fn key(o: &HierOutlier) -> String {
    format!(
        "{:?}|{}|{:?}|{:?}|{:?}|{:?}",
        o.level, o.machine, o.job, o.phase, o.sensor, o.index
    )
}

/// The batch answer a served report must reproduce.
pub struct Reference {
    outliers: BTreeMap<String, HierOutlier>,
    warnings: Vec<(String, Level)>,
}

fn warnings(report: &HierReport) -> Vec<(String, Level)> {
    let mut out: Vec<(String, Level)> = report
        .warnings
        .iter()
        .filter_map(|w| {
            let Warning::SuspectedMeasurementError {
                outlier_idx,
                missing_level,
            } = w;
            Some((key(report.outliers.get(*outlier_idx)?), *missing_level))
        })
        .collect();
    out.sort_by(|a, b| (&a.0, a.1.number()).cmp(&(&b.0, b.1.number())));
    out
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(1.0)
}

impl Reference {
    /// Runs batch `find_hierarchical_outliers` from the phase level
    /// with the default policy.
    pub fn batch(plant: &Plant) -> Result<Reference, String> {
        let report = find_hierarchical_outliers(plant, Level::Phase, &FindOptions::default())
            .map_err(|e| format!("batch reference: {e}"))?;
        Ok(Reference {
            outliers: report
                .outliers
                .iter()
                .map(|o| (key(o), o.clone()))
                .collect(),
            warnings: warnings(&report),
        })
    }

    /// Outliers in the reference.
    pub fn len(&self) -> usize {
        self.outliers.len()
    }

    /// Compares a served report; the first difference is the error.
    pub fn check(&self, report: &HierReport) -> Result<(), String> {
        if report.outliers.len() != self.outliers.len() {
            return Err(format!(
                "report has {} outliers, batch has {}",
                report.outliers.len(),
                self.outliers.len()
            ));
        }
        for o in &report.outliers {
            let k = key(o);
            let Some(b) = self.outliers.get(&k) else {
                return Err(format!("outlier {k} is not in the batch report"));
            };
            if o.global_score != b.global_score
                || !close(o.outlierness, b.outlierness)
                || !close(o.support, b.support)
                || o.timestamp != b.timestamp
            {
                return Err(format!("outlier {k} differs: {o:?} vs batch {b:?}"));
            }
        }
        if warnings(report) != self.warnings {
            return Err("measurement-error warnings differ from batch".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{Input, Shape};

    #[test]
    fn reference_accepts_itself_and_rejects_a_changed_score() {
        let input = Input::from_shape(
            Shape {
                machines: 2,
                jobs_per_machine: 3,
                phase_samples: 40,
                redundancy: 2,
            },
            42,
        );
        let reference = Reference::batch(&input.plant).unwrap();
        let mut report =
            find_hierarchical_outliers(&input.plant, Level::Phase, &FindOptions::default())
                .unwrap();
        assert!(reference.len() > 0);
        assert_eq!(reference.check(&report), Ok(()));
        report.outliers.reverse();
        report.warnings.clear();
        if reference.warnings.is_empty() {
            assert_eq!(reference.check(&report), Ok(()), "order does not matter");
        }
        report.outliers[0].outlierness += 1e-6;
        assert!(reference.check(&report).is_err());
    }
}
