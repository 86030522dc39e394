//! Reads the program's own span table through `runtime::obs`'s public
//! text report, so counts that only the program records (sparse solves,
//! factorizations, checkpoint commits) land next to the benchmark's
//! timings without adding spans to program code.

use emgrid_runtime::obs;

/// One aggregated program span: its `/`-joined path, call count and total
/// seconds.
#[derive(Debug, Clone)]
pub struct ObsSpan {
    pub path: Vec<String>,
    pub count: u64,
    pub seconds: f64,
}

/// Parses one total column of the report (`1.234s`, `5.678ms`, `9.0us`).
fn parse_seconds(text: &str) -> Option<f64> {
    let (number, scale) = if let Some(v) = text.strip_suffix("ms") {
        (v, 1e-3)
    } else if let Some(v) = text.strip_suffix("us") {
        (v, 1e-6)
    } else {
        (text.strip_suffix('s')?, 1.0)
    };
    number.parse::<f64>().ok().map(|v| v * scale)
}

/// The current process-wide span table, parsed.
pub fn snapshot() -> Vec<ObsSpan> {
    let report = obs::span_report();
    let mut stack: Vec<String> = Vec::new();
    let mut out = Vec::new();
    for line in report.lines().skip(1) {
        let depth = (line.len() - line.trim_start().len()) / 2;
        let mut fields = line.split_whitespace();
        let (Some(name), Some(count), Some(total)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        let (Some(count), Some(seconds)) = (
            count.strip_suffix('x').and_then(|c| c.parse().ok()),
            parse_seconds(total),
        ) else {
            continue;
        };
        stack.truncate(depth);
        stack.push(name.to_owned());
        out.push(ObsSpan {
            path: stack.clone(),
            count,
            seconds,
        });
    }
    out
}

/// Calls and seconds summed over spans whose leaf name passes `leaf` and
/// whose parent name passes `parent` (`""` for a root span).
pub fn sum(spans: &[ObsSpan], leaf: &str, parent: impl Fn(&str) -> bool) -> (u64, f64) {
    spans
        .iter()
        .filter(|s| {
            let n = s.path.len();
            s.path[n - 1] == leaf && parent(if n > 1 { &s.path[n - 2] } else { "" })
        })
        .fold((0, 0.0), |(c, t), s| (c + s.count, t + s.seconds))
}
