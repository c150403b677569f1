//! Differential tests of shared draw streams: every run `run_yields`
//! returns must equal the `run_yield` of its criterion alone, at any
//! thread count, whether that criterion converges early, late, or is
//! stopped only by the budget.

use mpvar_yield::{
    run_yield, run_yields, FailureProblem, PlantedThreshold, Proposal, YieldConfig, YieldError,
    YieldRun, ZDomain,
};

/// Several planted thresholds on `z[0]`, judged on the same trials.
struct PlantedCriteria {
    dims: usize,
    thresholds: Vec<f64>,
}

impl FailureProblem for PlantedCriteria {
    fn dims(&self) -> usize {
        self.dims
    }

    fn criteria(&self) -> usize {
        self.thresholds.len()
    }

    fn evaluate_batch(&self, zs: &[f64]) -> Result<Vec<bool>, YieldError> {
        Ok(zs
            .chunks_exact(self.dims)
            .flat_map(|z| self.thresholds.iter().map(move |&t| z[0] > t))
            .collect())
    }
}

const DIMS: usize = 2;

fn thresholds() -> Vec<f64> {
    // Three tails that converge at different rounds, then one so deep
    // that only the trial budget ends its run.
    [1e-3, 1e-5, 1e-7, 1e-15]
        .iter()
        .map(|&p| {
            PlantedThreshold::for_failure_probability(DIMS, p)
                .unwrap()
                .threshold()
        })
        .collect()
}

fn cfg(threads: usize) -> YieldConfig {
    YieldConfig::new(
        ZDomain::unbounded(DIMS).unwrap(),
        Proposal::ScaledSigma { scale: 3.0 },
    )
    .seed(42)
    .base_round(512)
    .max_trials(40_000)
    .threads(threads)
}

fn separate_runs(threads: usize) -> Vec<YieldRun> {
    thresholds()
        .into_iter()
        .map(|t| {
            let alone = PlantedThreshold::new(DIMS, t).unwrap();
            run_yield(&alone, &cfg(threads)).unwrap()
        })
        .collect()
}

#[test]
fn shared_runs_equal_separate_runs_at_every_thread_count() {
    let problem = PlantedCriteria {
        dims: DIMS,
        thresholds: thresholds(),
    };
    let reference = separate_runs(1);

    // The schedule this test relies on: three criteria converging at
    // three different rounds, the fourth stopped by the budget alone.
    let rounds: Vec<usize> = reference.iter().map(|r| r.rounds().len()).collect();
    assert!(reference[..3].iter().all(YieldRun::converged), "{rounds:?}");
    assert!(rounds[0] < rounds[1] && rounds[1] < rounds[2], "{rounds:?}");
    assert!(!reference[3].converged(), "{rounds:?}");
    assert!(rounds[3] > rounds[2], "{rounds:?}");

    for threads in [1usize, 4, 8] {
        let shared = run_yields(&problem, &cfg(threads)).unwrap();
        assert_eq!(shared, reference, "@ {threads} threads");
        assert_eq!(separate_runs(threads), reference, "@ {threads} threads");
    }
}

#[test]
fn one_criterion_entry_points_reject_several_criteria() {
    let problem = PlantedCriteria {
        dims: DIMS,
        thresholds: thresholds()[..2].to_vec(),
    };
    assert!(matches!(
        run_yield(&problem, &cfg(1)),
        Err(YieldError::InvalidConfig { .. })
    ));
    assert!(matches!(
        mpvar_yield::resume_yield(&problem, &cfg(1), &YieldRun::empty()),
        Err(YieldError::InvalidConfig { .. })
    ));
    let none = PlantedCriteria {
        dims: DIMS,
        thresholds: Vec::new(),
    };
    assert!(matches!(
        run_yields(&none, &cfg(1)),
        Err(YieldError::InvalidConfig { .. })
    ));
}

#[test]
fn a_short_flag_vector_is_an_error() {
    /// Claims two criteria but returns one flag per trial.
    struct Miscounted;
    impl FailureProblem for Miscounted {
        fn dims(&self) -> usize {
            DIMS
        }
        fn criteria(&self) -> usize {
            2
        }
        fn evaluate_batch(&self, zs: &[f64]) -> Result<Vec<bool>, YieldError> {
            Ok(vec![false; zs.len() / DIMS])
        }
    }
    assert!(matches!(
        run_yields(&Miscounted, &cfg(1)),
        Err(YieldError::InvalidConfig { .. })
    ));
}
