//! Host-time spans recorded by the harness around its calls into each layer.
//! Spans stay in memory during a run and are written out when it ends.

use crate::json::Json;
use std::time::Instant;

/// One recorded span. `parent` is the index of the span that was open when
/// this one started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub seed: u64,
}

/// The span recorder of one workload run.
#[derive(Debug)]
pub struct Spans {
    /// Off for the timed passes: end-to-end metrics are measured untraced.
    enabled: bool,
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &str, enabled: bool) -> Spans {
        Spans {
            enabled,
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        seed: u64,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            seed,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    #[cfg(test)]
    fn push_closed(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            seed: 0,
        });
    }

    /// Each span's self time: its duration minus the part its direct
    /// children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut children_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(parent) = s.parent {
                children_ns[parent] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(children_ns)
            .map(|(s, children)| (s.end_ns - s.start_ns).saturating_sub(children))
            .collect()
    }

    /// Total seconds spent in the spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let self_ns = self.self_ns();
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("self_ns", Json::Num(self_ns[id] as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("workload", Json::str(self.workload.as_str())),
                ("seed", Json::Num(s.seed as f64)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        let mut spans = Spans::new("w", true);
        spans.push_closed("core.run", 0, 1_000, None); // 0
        spans.push_closed("core.build", 100, 400, Some(0)); // 1
        spans.push_closed("workload.generator_new", 150, 250, Some(1)); // 2
        spans.push_closed("core.take_trace", 500, 700, Some(0)); // 3
                                                                 // A grandchild is taken off its parent only.
        assert_eq!(
            spans.self_ns(),
            vec![1_000 - 300 - 200, 300 - 100, 100, 200]
        );
        assert_eq!(spans.total_s("core.take_trace"), 200e-9);
    }

    #[test]
    fn scopes_nest_and_record_their_parent() {
        let mut spans = Spans::new("w", true);
        let out = spans.scope("outer", 7, |spans| {
            spans.scope("inner", 7, |_| ());
            spans.scope("inner", 7, |_| 42)
        });
        assert_eq!(out, 42);
        spans.scope("next", 8, |_| ());
        let parents: Vec<_> = spans
            .spans
            .iter()
            .map(|s| (s.name, s.parent, s.seed))
            .collect();
        assert_eq!(
            parents,
            vec![
                ("outer", None, 7),
                ("inner", Some(0), 7),
                ("inner", Some(0), 7),
                ("next", None, 8)
            ]
        );
        assert!(spans.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans.self_ns()[0] <= spans.spans[0].end_ns - spans.spans[0].start_ns);
        let mut off = Spans::new("w", false);
        assert_eq!(off.scope("unrecorded", 1, |_| 5), 5);
        assert!(off.spans.is_empty());
        let jsonl = spans.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        for line in jsonl.lines() {
            let v = Json::parse(line).expect("each line is JSON");
            assert_eq!(v.get("workload").and_then(Json::as_str), Some("w"));
        }
    }
}
