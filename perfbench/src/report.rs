//! Metric names and units, the summary statistics the benchmark reports
//! and the one-line JSON result it ends with.

use std::fmt::Write as _;

/// A metric the benchmark prints: name, unit.
pub type Spec = (&'static str, &'static str);

/// Printed with `--trace 0`: what a user of the training stack sees.
pub const END_TO_END: &[Spec] = &[
    ("setup_s", "s"),
    ("rounds_per_s", "1/s"),
    ("round_ms_p50", "ms"),
    ("round_ms_tail", "ms"),
    ("cpu_ms_per_round", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Printed with `--trace 1`: one entry per layer boundary, plus the
/// run-level figures that read 0 or vary with the seed on some workloads
/// (so they cannot carry a regression bound).
pub const PER_LAYER: &[Spec] = &[
    ("core.engine_round_ms", "ms"),
    ("core.driver_self_ms", "ms"),
    ("core.allocs_per_round", "count"),
    ("core.alloc_bytes_per_round", "bytes"),
    ("core.recode_ms", "ms"),
    ("core.recodes", "count"),
    ("ml.gradient_ms", "ms"),
    ("ml.eval_ms", "ms"),
    ("ml.opt_step_ms", "ms"),
    ("coding.encode_ms", "ms"),
    ("coding.decode_ms", "ms"),
    ("coding.plan_hits", "count"),
    ("coding.plan_solves", "count"),
    ("coding.plan_hit_ratio", "ratio"),
    ("coding.plan_solve_ms", "ms"),
    ("coding.pool_hits_per_round", "count"),
    ("runtime.dispatch_ms", "ms"),
    ("runtime.collect_ms", "ms"),
    ("runtime.wait_ms", "ms"),
    ("runtime.worker_busy_ms", "ms"),
    ("runtime.late_replies_per_round", "count"),
    ("runtime.useful_reply_ratio", "ratio"),
    ("net.spawn_s", "s"),
    ("net.handshake_s", "s"),
    ("net.bytes_sent_per_round", "bytes"),
    ("net.bytes_received_per_round", "bytes"),
    ("net.frames_per_round", "count"),
    ("net.dispatch_ms", "ms"),
    ("net.collect_ms", "ms"),
    ("net.worker_exit_errors", "count"),
    ("comm.bytes_saved_per_round", "bytes"),
    ("comm.wire_error", "l2"),
    ("comm.codec_ns_per_elem", "ns"),
    ("sim.event_ms", "ms"),
    ("telemetry.drift_rounds", "count"),
    ("telemetry.deadline_updates", "count"),
    ("obs.trace_overhead", "ratio"),
    ("wire_bytes_per_round", "bytes"),
    ("failed_round_frac", "ratio"),
    ("approx_round_frac", "ratio"),
    ("loss_gap", "ratio"),
    ("sim_cluster_s", "s"),
];

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1–16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The percentile ladder the tail is chosen from, in hundredths of a
/// percent.
const LADDER: [u64; 6] = [5000, 9000, 9500, 9900, 9990, 9999];

/// The tail percentile for `n` samples: the highest ladder rung with at
/// least ten samples beyond its nearest-rank value. `None` below 20
/// samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .find(|&&q| n as u64 - nearest_rank(n, q) >= 10)
        .map(|&q| q as f64 / 100.0)
}

/// 1-based nearest-rank position of percentile `q` (hundredths of a
/// percent) among `n` samples.
fn nearest_rank(n: usize, q: u64) -> u64 {
    ((n as u64 * q).div_ceil(10_000)).max(1)
}

/// The nearest-rank percentile `p` (in percent) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = nearest_rank(sorted.len(), (p * 100.0).round() as u64);
    sorted[rank as usize - 1]
}

/// The median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The benchmark's last line of output.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    /// One JSON object: `correct`, `attempted`, `failed`, `metrics`.
    ///
    /// # Errors
    ///
    /// A metric that is not a finite number, or has an invalid name or
    /// unit.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !valid_name(name) || !valid_unit(unit) {
                return Err(format!("invalid metric name or unit: {name:?} {unit:?}"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            if i > 0 {
                out.push(',');
            }
            // `{}` prints the shortest decimal that reads back as the
            // same f64, never an exponent.
            let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A JSON reader just large enough for [`Outcome::to_json`]'s output.
    mod json {
        #[derive(Debug, Clone, PartialEq)]
        pub enum Value {
            Bool(bool),
            Num(f64),
            Str(String),
            Obj(Vec<(String, Value)>),
        }

        pub fn parse(s: &str) -> Result<Value, String> {
            let mut p = Parser {
                s: s.as_bytes(),
                i: 0,
            };
            let v = p.value()?;
            p.ws();
            if p.i != p.s.len() {
                return Err(format!("trailing input at {}", p.i));
            }
            Ok(v)
        }

        struct Parser<'a> {
            s: &'a [u8],
            i: usize,
        }

        impl Parser<'_> {
            fn ws(&mut self) {
                while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
                    self.i += 1;
                }
            }

            fn eat(&mut self, c: u8) -> Result<(), String> {
                self.ws();
                if self.s.get(self.i) == Some(&c) {
                    self.i += 1;
                    Ok(())
                } else {
                    Err(format!("expected {:?} at {}", c as char, self.i))
                }
            }

            fn value(&mut self) -> Result<Value, String> {
                self.ws();
                match self.s.get(self.i) {
                    Some(b'{') => self.object(),
                    Some(b'"') => self.string().map(Value::Str),
                    Some(b't') => self.word("true", Value::Bool(true)),
                    Some(b'f') => self.word("false", Value::Bool(false)),
                    _ => self.number(),
                }
            }

            fn word(&mut self, w: &str, v: Value) -> Result<Value, String> {
                if self.s[self.i..].starts_with(w.as_bytes()) {
                    self.i += w.len();
                    Ok(v)
                } else {
                    Err(format!("bad literal at {}", self.i))
                }
            }

            fn number(&mut self) -> Result<Value, String> {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .map_err(|e| e.to_string())?
                    .parse::<f64>()
                    .map(Value::Num)
                    .map_err(|e| format!("bad number at {start}: {e}"))
            }

            fn string(&mut self) -> Result<String, String> {
                self.eat(b'"')?;
                let start = self.i;
                while self.s.get(self.i).is_some_and(|&c| c != b'"' && c != b'\\') {
                    self.i += 1;
                }
                let out =
                    String::from_utf8(self.s[start..self.i].to_vec()).map_err(|e| e.to_string())?;
                self.eat(b'"')?;
                Ok(out)
            }

            fn object(&mut self) -> Result<Value, String> {
                self.eat(b'{')?;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("expected , or }} at {}", self.i)),
                    }
                }
            }
        }
    }

    fn from_json(line: &str) -> Outcome {
        use json::Value;
        let Value::Obj(top) = json::parse(line).unwrap() else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let (Value::Bool(correct), Value::Num(attempted), Value::Num(failed), Value::Obj(ms)) =
            (&top[0].1, &top[1].1, &top[2].1, &top[3].1)
        else {
            panic!("wrong field types in {line}")
        };
        let metrics = ms
            .iter()
            .map(|(name, m)| {
                let Value::Obj(fields) = m else {
                    panic!("metric {name}")
                };
                let (Value::Num(v), Value::Str(u)) = (&fields[0].1, &fields[1].1) else {
                    panic!("metric {name} fields")
                };
                assert_eq!(
                    (fields[0].0.as_str(), fields[1].0.as_str()),
                    ("value", "unit")
                );
                (name.clone(), *v, u.clone())
            })
            .collect();
        Outcome {
            correct: *correct,
            attempted: *attempted as u64,
            failed: *failed as u64,
            metrics,
        }
    }

    #[test]
    fn json_round_trips_every_digit() {
        let outcome = Outcome {
            correct: true,
            attempted: 768,
            failed: 0,
            metrics: vec![
                ("round_ms_p50".into(), 26.123456789012345, "ms".into()),
                ("setup_s".into(), 0.000123456789, "s".into()),
                ("peak_rss_mb".into(), 1e21, "MiB".into()),
                ("obs.trace_overhead".into(), -0.0125, "ratio".into()),
            ],
        };
        let line = outcome.to_json().unwrap();
        assert_eq!(from_json(&line), outcome);
    }

    #[test]
    fn json_refuses_non_finite_values_and_bad_names() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![("x".into(), f64::NAN, "ms".into())],
        };
        assert!(outcome.to_json().is_err());
        outcome.metrics = vec![("bad name".into(), 1.0, "ms".into())];
        assert!(outcome.to_json().is_err());
    }

    #[test]
    fn metric_names_and_units_use_the_allowed_charset() {
        let all: Vec<&Spec> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
        for bad in ["", ".x", "a b", "é", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name("core.allocs_per_round") && valid_name("9-lives_x.y"));
    }

    #[test]
    fn tail_has_at_least_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            let rank = nearest_rank(n, (p * 100.0).round() as u64);
            assert!(n as u64 - rank >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
