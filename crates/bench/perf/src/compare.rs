//! `ac3-perf compare a.json b.json`: judge run `b` against baseline `a`.
//!
//! One row per workload × end-to-end metric, plus `failed_share` and the
//! outcome fingerprint:
//!
//! * `ok` — `b` is no worse than `a` by more than the metric's bound (or
//!   its absolute floor, for `setup_s`); simulated metrics, fingerprints
//!   and `failed_share` must not move at all when both runs used one seed;
//! * `worse` — it is;
//! * `unresolved` — the reps of either run spread wider than the bound, so
//!   the medians cannot settle it — unless every rep of `b` reads better
//!   than every rep of `a`, which is `ok`.

use crate::metrics::{Better, Rule, END_TO_END};
use serde_json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the reported value and the per-rep samples
/// behind it.
pub struct Side<'a> {
    pub value: f64,
    pub samples: &'a [f64],
}

/// (max − min) / median of a side's samples; 0 for a single sample.
fn spread(side: &Side) -> f64 {
    if side.samples.len() < 2 || side.value == 0.0 {
        return 0.0;
    }
    let max = side.samples.iter().copied().fold(f64::MIN, f64::max);
    let min = side.samples.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / side.value.abs()
}

/// How much worse `b` is than `a`, in `a`'s unit (negative: better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Higher => a - b,
        Better::Lower => b - a,
    }
}

/// Judge one metric. `same_seed` makes [`Rule::Exact`] metrics strict;
/// across seeds they fall back to their relative bound.
pub fn judge(
    better: Better,
    bound: f64,
    rule: Rule,
    same_seed: bool,
    a: &Side,
    b: &Side,
) -> Verdict {
    let floor = match rule {
        Rule::Exact if same_seed => {
            return if a.value == b.value { Verdict::Ok } else { Verdict::Worse };
        }
        Rule::Exact => 0.0,
        Rule::Relative { floor } => floor,
    };
    if spread(a) > bound || spread(b) > bound {
        let clean_win =
            a.samples.iter().all(|x| b.samples.iter().all(|y| worsening(better, *x, *y) < 0.0));
        return if clean_win { Verdict::Ok } else { Verdict::Unresolved };
    }
    let allowed = (bound * a.value.abs()).max(floor);
    if worsening(better, a.value, b.value) > allowed {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn get<'a>(value: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(value, |v, key| v.as_object()?.get(key))
}

fn numbers(value: Option<&Value>) -> Vec<f64> {
    value
        .and_then(Value::as_array)
        .map(|items| items.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn load(path: &str) -> Result<Value, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&body).map_err(|e| format!("{path} does not parse: {e}"))
}

pub fn main(args: &[String]) -> Result<(), String> {
    let [a_path, b_path] = args else {
        return Err("usage: ac3-perf compare <a/result.json> <b/result.json>".to_string());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let seed = |v: &Value| get(v, &["seed"]).and_then(Value::as_u64);
    let same_seed = seed(&a).is_some() && seed(&a) == seed(&b);
    let workloads =
        get(&a, &["workloads"]).and_then(Value::as_object).ok_or("a has no workloads")?;

    let mut tally = [0usize; 3];
    println!("{:<20} {:<24} {:>14} {:>14}  verdict", "workload", "metric", "a", "b");
    let mut row = |workload: &str, metric: &str, a: String, b: String, verdict: Verdict| {
        tally[verdict as usize] += 1;
        println!("{workload:<20} {metric:<24} {a:>14} {b:>14}  {}", verdict.label());
    };
    for (name, a_entry) in workloads.iter() {
        let (Some(a_run), Some(b_run)) =
            (get(a_entry, &["untraced"]), get(&b, &["workloads", name, "untraced"]))
        else {
            continue;
        };
        for def in &END_TO_END {
            let value =
                |run: &Value| get(run, &["metrics", def.name, "value"]).and_then(Value::as_f64);
            let (Some(av), Some(bv)) = (value(a_run), value(b_run)) else {
                return Err(format!("{name}/{} is missing from a run", def.name));
            };
            let a_samples = numbers(get(a_run, &["samples", def.name]));
            let b_samples = numbers(get(b_run, &["samples", def.name]));
            let verdict = judge(
                def.better,
                def.bound,
                def.rule,
                same_seed,
                &Side { value: av, samples: &a_samples },
                &Side { value: bv, samples: &b_samples },
            );
            row(name, def.name, format!("{av:.6}"), format!("{bv:.6}"), verdict);
        }
        let share = |run: &Value| get(run, &["failed_share"]).and_then(Value::as_f64);
        let (af, bf) = (share(a_run).unwrap_or(0.0), share(b_run).unwrap_or(0.0));
        let verdict = if bf <= af { Verdict::Ok } else { Verdict::Worse };
        row(name, "failed_share", format!("{af:.6}"), format!("{bf:.6}"), verdict);
        if same_seed {
            let fp = |run: &'_ Value| {
                get(run, &["fingerprint"]).and_then(Value::as_str).unwrap_or("?").to_string()
            };
            let (afp, bfp) = (fp(a_run), fp(b_run));
            let verdict = if afp == bfp { Verdict::Ok } else { Verdict::Worse };
            row(
                name,
                "fingerprint",
                afp[..12.min(afp.len())].into(),
                bfp[..12.min(bfp.len())].into(),
                verdict,
            );
        }
    }
    println!(
        "{} ok, {} worse, {} unresolved{}",
        tally[Verdict::Ok as usize],
        tally[Verdict::Worse as usize],
        tally[Verdict::Unresolved as usize],
        if same_seed { "" } else { " (different seeds: simulated metrics judged by bound)" }
    );
    if tally[Verdict::Worse as usize] > 0 {
        return Err("at least one metric is worse".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIME: Rule = Rule::Relative { floor: 0.0 };

    fn side(samples: &[f64]) -> Side<'_> {
        Side { value: crate::stats::median(samples), samples }
    }

    #[test]
    fn relative_bound_in_both_directions() {
        let a = side(&[10.0, 10.1, 9.9]);
        // Lower is better: 10.9 is within 10 %, 11.2 is not.
        assert_eq!(
            judge(Better::Lower, 0.1, TIME, true, &a, &side(&[10.9, 10.9, 10.9])),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.1, TIME, true, &a, &side(&[11.2, 11.2, 11.2])),
            Verdict::Worse
        );
        // Higher is better: the same numbers read the other way round.
        assert_eq!(
            judge(Better::Higher, 0.1, TIME, true, &a, &side(&[11.2, 11.2, 11.2])),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Higher, 0.1, TIME, true, &a, &side(&[8.8, 8.8, 8.8])),
            Verdict::Worse
        );
    }

    #[test]
    fn absolute_floor_forgives_small_setups() {
        let rule = Rule::Relative { floor: 0.02 };
        let a = side(&[0.010, 0.010, 0.010]);
        let b = side(&[0.025, 0.025, 0.025]);
        assert_eq!(judge(Better::Lower, 0.15, rule, true, &a, &b), Verdict::Ok);
        assert_eq!(judge(Better::Lower, 0.15, TIME, true, &a, &b), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_rep_wins() {
        let noisy = side(&[8.0, 10.0, 12.0]);
        let close = side(&[9.0, 10.5, 11.0]);
        assert_eq!(judge(Better::Lower, 0.1, TIME, true, &noisy, &close), Verdict::Unresolved);
        let clean = side(&[5.0, 6.0, 7.0]);
        assert_eq!(judge(Better::Lower, 0.1, TIME, true, &noisy, &clean), Verdict::Ok);
    }

    #[test]
    fn simulated_metrics_are_exact_on_one_seed_and_bounded_across_seeds() {
        let (a, b) = (side(&[4.0]), side(&[4.01]));
        assert_eq!(judge(Better::Lower, 0.05, Rule::Exact, true, &a, &b), Verdict::Worse);
        assert_eq!(judge(Better::Lower, 0.05, Rule::Exact, true, &a, &side(&[4.0])), Verdict::Ok);
        assert_eq!(judge(Better::Lower, 0.05, Rule::Exact, false, &a, &b), Verdict::Ok);
    }
}
