//! Harness-side plumbing: the seeded input generator, exact sample
//! statistics, `/proc` readers and the per-node [`Report`] container.

use std::collections::BTreeMap;
use std::time::{SystemTime, UNIX_EPOCH};

/// The harness's own input generator (splitmix64). Deliberately not the
/// program's `DetRng`: inputs must stay the same when the program changes.
#[derive(Debug, Clone)]
pub struct Gen(u64);

impl Gen {
    /// An independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Gen {
        let mut g = Gen(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Nanoseconds since the UNIX epoch: the clock every process of a socket
/// fleet shares, read by the harness at the instant of the event.
pub fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Exact quantile of raw samples (linear interpolation between the two
/// neighbouring order statistics). Sorts in place; 0 for an empty set.
pub fn quantile(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    samples[lo] as f64 * (1.0 - frac) + samples[hi] as f64 * frac
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<u64>() as f64 / samples.len() as f64
    }
}

/// User + system CPU of this process in microseconds (all threads), from
/// `/proc/self/stat`. Linux reports clock ticks of `USER_HZ` = 100.
pub fn cpu_us() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, i.e. the 12th and 13th after it.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    (utime + stime) * 10_000
}

/// Peak resident set of this process in KiB (`VmHWM`).
pub fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// What one group member (or one node process) measured. Nodes print it as
/// text lines, the parent parses and [`merge`](Report::merge)s them: sums
/// add, samples concatenate.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Raw process id of the member that measured this.
    pub id: u64,
    pub sums: BTreeMap<String, f64>,
    pub samples: BTreeMap<String, Vec<u64>>,
    /// Per remote sender: what this member delivered of its in-window
    /// messages.
    pub delivered: BTreeMap<u64, DeliveredRange>,
    /// This member's own in-window sequence range (`first..=last`).
    pub window: Option<(u64, u64)>,
}

/// The in-window deliveries one member saw from one sender.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveredRange {
    pub first: u64,
    pub last: u64,
    pub count: u64,
    /// Deliveries whose sequence number was not the previous one plus one.
    pub out_of_order: u64,
}

impl Report {
    pub fn add(&mut self, name: &str, v: f64) {
        *self.sums.entry(name.to_string()).or_insert(0.0) += v;
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    pub fn push(&mut self, name: &str, v: u64) {
        self.samples.entry(name.to_string()).or_default().push(v);
    }

    pub fn take_samples(&mut self, name: &str) -> Vec<u64> {
        self.samples.remove(name).unwrap_or_default()
    }

    /// Folds `other`'s sums and samples into `self` (delivery ranges and
    /// windows stay per member and are not merged).
    pub fn merge(&mut self, other: &Report) {
        for (k, v) in &other.sums {
            self.add(k, *v);
        }
        for (k, v) in &other.samples {
            self.samples
                .entry(k.clone())
                .or_default()
                .extend_from_slice(v);
        }
    }

    /// The line protocol a node prints between `REPORT` and `END`.
    pub fn to_lines(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        // Writing to a `String` cannot fail.
        for (k, v) in &self.sums {
            let _ = writeln!(out, "R {k} {v}");
        }
        for (k, v) in &self.samples {
            let _ = write!(out, "S {k}");
            for s in v {
                let _ = write!(out, " {s}");
            }
            out.push('\n');
        }
        for (s, d) in &self.delivered {
            let _ = writeln!(
                out,
                "D {s} {} {} {} {}",
                d.first, d.last, d.count, d.out_of_order
            );
        }
        if let Some((first, last)) = self.window {
            let _ = writeln!(out, "W {first} {last}");
        }
        out
    }

    /// Parses one line of [`to_lines`](Report::to_lines) into `self`.
    pub fn absorb_line(&mut self, line: &str) -> Result<(), String> {
        let bad = || format!("malformed report line: {line:?}");
        let mut words = line.split_whitespace();
        let tag = words.next().ok_or_else(bad)?;
        let num = |words: &mut std::str::SplitWhitespace<'_>| -> Result<u64, String> {
            words.next().and_then(|w| w.parse().ok()).ok_or_else(bad)
        };
        match tag {
            "R" => {
                let name = words.next().ok_or_else(bad)?;
                let v: f64 = words.next().and_then(|w| w.parse().ok()).ok_or_else(bad)?;
                self.add(name, v);
            }
            "S" => {
                let name = words.next().ok_or_else(bad)?.to_string();
                let vals: Result<Vec<u64>, _> = words.map(|w| w.parse::<u64>()).collect();
                self.samples
                    .entry(name)
                    .or_default()
                    .extend(vals.map_err(|_| bad())?);
            }
            "D" => {
                let sender = num(&mut words)?;
                let d = DeliveredRange {
                    first: num(&mut words)?,
                    last: num(&mut words)?,
                    count: num(&mut words)?,
                    out_of_order: num(&mut words)?,
                };
                self.delivered.insert(sender, d);
            }
            "W" => self.window = Some((num(&mut words)?, num(&mut words)?)),
            _ => return Err(bad()),
        }
        Ok(())
    }
}
