//! Structured trial rows, their JSONL round-trip, and aggregation.
//!
//! Every executed trial yields one [`TrialRow`] keyed by
//! `(variant, seed, repeat)` with an ordered metric map. Rows serialize to
//! JSONL with deterministic field order and shortest-round-trip float
//! formatting, so the file is byte-identical across `--jobs` counts and
//! parseable back for baseline diffs. [`Summary`] aggregates rows into
//! per-(variant, metric) mean/min/percentile tables — the generalization
//! of the hand-rolled tables in `table.rs`-based figure code.

use super::spec::Stat;
use crate::table::TextTable;
use laminar_sim::stats::nearest_rank;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One trial's structured result.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRow {
    /// Variant name.
    pub variant: String,
    /// Trial seed.
    pub seed: u64,
    /// Repeat number.
    pub repeat: u32,
    /// Metrics in recording order (stable across runs).
    pub metrics: Vec<(String, f64)>,
    /// Free-text annotation (e.g. the fault schedule), empty when unused.
    pub note: String,
}

impl TrialRow {
    /// Looks up a metric by key.
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Formats a metric value deterministically: shortest round-trip decimal
/// (Rust's `Display` for `f64`), with non-finite values clamped to `0`
/// (rows are data files; NaN would poison every downstream aggregate).
fn fmt_metric(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Serializes rows to JSONL, one object per line, fixed field order.
pub fn write_rows_jsonl(spec_name: &str, rows: &[TrialRow]) -> String {
    let mut out = String::new();
    for r in rows {
        out.push_str("{\"spec\":\"");
        escape_into(&mut out, spec_name);
        out.push_str("\",\"variant\":\"");
        escape_into(&mut out, &r.variant);
        let _ = write!(
            out,
            "\",\"seed\":{},\"repeat\":{},\"metrics\":{{",
            r.seed, r.repeat
        );
        for (i, (k, v)) in r.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(&mut out, k);
            out.push_str("\":");
            out.push_str(&fmt_metric(*v));
        }
        out.push_str("},\"note\":\"");
        escape_into(&mut out, &r.note);
        out.push_str("\"}\n");
    }
    out
}

struct Cursor<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn skip_ws(&mut self) {
        while self.i < self.s.len() && (self.s[self.i] as char).is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.i < self.s.len() && self.s[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.i).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        while self.i < self.s.len() {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("truncated escape")?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .ok_or("truncated \\u escape")?;
                            self.i += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                        }
                        other => return Err(format!("unknown escape `\\{}`", other as char)),
                    }
                }
                c => out.push(c as char),
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.i;
        while self.i < self.s.len()
            && matches!(
                self.s[self.i],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }
}

/// Parses one rows-JSONL line (the exact subset [`write_rows_jsonl`]
/// emits), returning `(spec_name, row)`.
fn parse_row_line(line: &str) -> Result<(String, TrialRow), String> {
    let mut c = Cursor {
        s: line.as_bytes(),
        i: 0,
    };
    c.eat(b'{')?;
    let mut spec = String::new();
    let mut row = TrialRow {
        variant: String::new(),
        seed: 0,
        repeat: 0,
        metrics: Vec::new(),
        note: String::new(),
    };
    loop {
        let key = c.string()?;
        c.eat(b':')?;
        match key.as_str() {
            "spec" => spec = c.string()?,
            "variant" => row.variant = c.string()?,
            "seed" => row.seed = c.number()? as u64,
            "repeat" => row.repeat = c.number()? as u32,
            "note" => row.note = c.string()?,
            "metrics" => {
                c.eat(b'{')?;
                if c.peek() == Some(b'}') {
                    c.eat(b'}')?;
                } else {
                    loop {
                        let k = c.string()?;
                        c.eat(b':')?;
                        let v = c.number()?;
                        row.metrics.push((k, v));
                        match c.peek() {
                            Some(b',') => c.eat(b',')?,
                            _ => {
                                c.eat(b'}')?;
                                break;
                            }
                        }
                    }
                }
            }
            other => return Err(format!("unknown row field `{other}`")),
        }
        match c.peek() {
            Some(b',') => c.eat(b',')?,
            _ => {
                c.eat(b'}')?;
                break;
            }
        }
    }
    Ok((spec, row))
}

/// Parses a rows-JSONL document (e.g. a committed gate baseline).
pub fn parse_rows_jsonl(text: &str) -> Result<Vec<TrialRow>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| {
            parse_row_line(l)
                .map(|(_, row)| row)
                .map_err(|e| format!("rows line {}: {e}", i + 1))
        })
        .collect()
}

/// Aggregate of one (variant, metric) series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Agg {
    /// Number of trials aggregated.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl Agg {
    fn from_values(mut xs: Vec<f64>) -> Agg {
        xs.sort_unstable_by(f64::total_cmp);
        let n = xs.len();
        let pct = |p: f64| nearest_rank(&xs, p).unwrap_or(0.0);
        Agg {
            count: n,
            mean: if n == 0 {
                0.0
            } else {
                xs.iter().sum::<f64>() / n as f64
            },
            min: xs.first().copied().unwrap_or(0.0),
            max: xs.last().copied().unwrap_or(0.0),
            p50: pct(0.5),
            p95: pct(0.95),
        }
    }

    /// Reads one statistic.
    pub fn stat(&self, stat: Stat) -> f64 {
        match stat {
            Stat::Mean => self.mean,
            Stat::Min => self.min,
            Stat::Max => self.max,
            Stat::P50 => self.p50,
            Stat::P95 => self.p95,
        }
    }
}

/// Per-(variant, metric) aggregation of a row set.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    entries: BTreeMap<(String, String), Agg>,
}

impl Summary {
    /// Aggregates rows (all repeats and seeds pooled per variant).
    pub fn from_rows(rows: &[TrialRow]) -> Summary {
        let mut series: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
        for r in rows {
            for (k, v) in &r.metrics {
                series
                    .entry((r.variant.clone(), k.clone()))
                    .or_default()
                    .push(*v);
            }
        }
        Summary {
            entries: series
                .into_iter()
                .map(|(k, xs)| (k, Agg::from_values(xs)))
                .collect(),
        }
    }

    /// The aggregate for a (variant, metric) pair.
    pub fn get(&self, variant: &str, metric: &str) -> Option<&Agg> {
        self.entries.get(&(variant.to_string(), metric.to_string()))
    }

    /// One statistic of a (variant, metric) pair.
    pub fn stat(&self, variant: &str, metric: &str, stat: Stat) -> Option<f64> {
        self.get(variant, metric).map(|a| a.stat(stat))
    }

    /// Renders the aggregate table, variants/metrics in key order.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "variant", "metric", "n", "mean", "min", "p50", "p95", "max",
        ]);
        let f = |x: f64| {
            if x == 0.0 || x.abs() >= 0.01 {
                format!("{x:.3}")
            } else {
                format!("{x:.6}")
            }
        };
        for ((variant, metric), a) in &self.entries {
            t.row(vec![
                variant.clone(),
                metric.clone(),
                a.count.to_string(),
                f(a.mean),
                f(a.min),
                f(a.p50),
                f(a.p95),
                f(a.max),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<TrialRow> {
        vec![
            TrialRow {
                variant: "laminar".into(),
                seed: 1,
                repeat: 0,
                metrics: vec![("throughput".into(), 100.5), ("violations".into(), 0.0)],
                note: "crash@17s \"q\"".into(),
            },
            TrialRow {
                variant: "laminar".into(),
                seed: 2,
                repeat: 0,
                metrics: vec![("throughput".into(), 120.25), ("violations".into(), 0.0)],
                note: String::new(),
            },
            TrialRow {
                variant: "verl".into(),
                seed: 1,
                repeat: 0,
                metrics: vec![("throughput".into(), 60.0)],
                note: String::new(),
            },
        ]
    }

    #[test]
    fn jsonl_round_trips() {
        let rs = rows();
        let text = write_rows_jsonl("demo", &rs);
        assert_eq!(text.lines().count(), 3);
        let back = parse_rows_jsonl(&text).expect("parse");
        assert_eq!(back, rs);
    }

    #[test]
    fn serialization_is_deterministic() {
        let rs = rows();
        assert_eq!(write_rows_jsonl("demo", &rs), write_rows_jsonl("demo", &rs));
    }

    #[test]
    fn summary_aggregates_per_variant() {
        let s = Summary::from_rows(&rows());
        let a = s.get("laminar", "throughput").expect("agg");
        assert_eq!(a.count, 2);
        assert!((a.mean - 110.375).abs() < 1e-9);
        assert_eq!(a.min, 100.5);
        assert_eq!(a.max, 120.25);
        assert_eq!(s.stat("verl", "throughput", Stat::Mean), Some(60.0));
        assert_eq!(s.stat("verl", "violations", Stat::Mean), None);
        let table = s.render();
        assert!(table.contains("laminar"), "{table}");
        assert!(table.contains("throughput"), "{table}");
    }

    #[test]
    fn non_finite_metrics_serialize_as_zero() {
        let r = TrialRow {
            variant: "v".into(),
            seed: 0,
            repeat: 0,
            metrics: vec![("bad".into(), f64::NAN)],
            note: String::new(),
        };
        let text = write_rows_jsonl("s", &[r]);
        assert!(text.contains("\"bad\":0"), "{text}");
        parse_rows_jsonl(&text).expect("still parses");
    }
}
