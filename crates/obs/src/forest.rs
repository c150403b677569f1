//! Rebuilding the span forest from a flat `mpvar-trace/v1` stream.
//!
//! Spans are written on **completion**, so children precede parents in
//! the file, and concurrent threads interleave arbitrarily. The
//! builder is therefore order-independent: it indexes every span
//! first, then resolves parent links against the whole set. Anything
//! that cannot form a forest — an orphaned parent id, a duplicated
//! span id, a parent cycle — is a named [`ForestError`], never a
//! panic: adversarial trace files are expected input here.

use std::collections::HashMap;
use std::fmt;

use mpvar_trace::schema::SpanEntry;

/// A structural failure while rebuilding the span forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForestError {
    /// A span names a parent id that appears nowhere in the stream
    /// (e.g. the parent's completion line was truncated away).
    OrphanedParent {
        /// The child span's id.
        span: u64,
        /// The missing parent id it references.
        parent: u64,
    },
    /// Two spans share one id; parentage would be ambiguous.
    DuplicateSpanId {
        /// The duplicated id.
        span: u64,
    },
    /// Parent links loop (a span is its own ancestor), so the spans
    /// reachable from no root would be traversed forever.
    ParentCycle {
        /// A span on the cycle.
        span: u64,
    },
}

impl fmt::Display for ForestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForestError::OrphanedParent { span, parent } => {
                write!(f, "span {span} references orphaned parent {parent}")
            }
            ForestError::DuplicateSpanId { span } => {
                write!(f, "duplicate span id {span}")
            }
            ForestError::ParentCycle { span } => {
                write!(f, "parent links form a cycle through span {span}")
            }
        }
    }
}

impl std::error::Error for ForestError {}

/// The rebuilt forest: spans plus resolved child lists, both addressed
/// by index into the original span vector.
#[derive(Debug, Clone)]
pub struct SpanForest {
    spans: Vec<SpanEntry>,
    children: Vec<Vec<usize>>,
    roots: Vec<usize>,
}

impl SpanForest {
    /// Builds the forest, accepting spans in **any** order (completion
    /// order, start order, or adversarially shuffled across threads).
    ///
    /// Children and roots are sorted by `start_ns` (ties by id) so
    /// traversal order is deterministic regardless of file order.
    ///
    /// # Errors
    ///
    /// [`ForestError`] naming the first structural violation.
    pub fn build(spans: Vec<SpanEntry>) -> Result<Self, ForestError> {
        let mut index: HashMap<u64, usize> = HashMap::with_capacity(spans.len());
        for (i, span) in spans.iter().enumerate() {
            if index.insert(span.id, i).is_some() {
                return Err(ForestError::DuplicateSpanId { span: span.id });
            }
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, span) in spans.iter().enumerate() {
            match span.parent {
                None => roots.push(i),
                Some(parent) => match index.get(&parent) {
                    Some(&p) => children[p].push(i),
                    None => {
                        return Err(ForestError::OrphanedParent {
                            span: span.id,
                            parent,
                        })
                    }
                },
            }
        }
        let by_start = |spans: &[SpanEntry], list: &mut Vec<usize>| {
            list.sort_by_key(|&i| (spans[i].start_ns, spans[i].id));
        };
        by_start(&spans, &mut roots);
        for list in &mut children {
            by_start(&spans, list);
        }
        // Every span must be reachable from a root; leftovers sit on a
        // parent cycle (each has a resolving parent, yet no path up to
        // a parentless span).
        let mut reached = vec![false; spans.len()];
        let mut stack: Vec<usize> = roots.clone();
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut reached[i], true) {
                continue;
            }
            stack.extend(children[i].iter().copied());
        }
        if let Some(unreached) = reached.iter().position(|&r| !r) {
            return Err(ForestError::ParentCycle {
                span: spans[unreached].id,
            });
        }
        Ok(SpanForest {
            spans,
            children,
            roots,
        })
    }

    /// All spans, in original input order.
    pub fn spans(&self) -> &[SpanEntry] {
        &self.spans
    }

    /// The span at `index`.
    pub fn span(&self, index: usize) -> &SpanEntry {
        &self.spans[index]
    }

    /// Root span indices, ascending by start time.
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Child indices of the span at `index`, ascending by start time.
    pub fn children(&self, index: usize) -> &[usize] {
        &self.children[index]
    }

    /// Self time of the span at `index`: its duration minus the sum of
    /// its direct children's durations, clamped at zero (cross-thread
    /// children can overlap their parent, so the naive difference may
    /// go negative).
    pub(crate) fn self_time_ns(&self, index: usize) -> u64 {
        let child_total: u64 = self.children[index]
            .iter()
            .map(|&c| self.spans[c].dur_ns)
            .sum();
        self.spans[index].dur_ns.saturating_sub(child_total)
    }

    /// The wall-clock extent of the whole trace: latest span end minus
    /// earliest span start (0 for an empty forest).
    pub(crate) fn extent_ns(&self) -> u64 {
        let start = self.spans.iter().map(|s| s.start_ns).min();
        let end = self.spans.iter().map(|s| s.start_ns + s.dur_ns).max();
        match (start, end) {
            (Some(s), Some(e)) => e.saturating_sub(s),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, dur_ns: u64) -> SpanEntry {
        SpanEntry {
            id,
            parent,
            name: format!("s{id}"),
            thread: 0,
            start_ns,
            dur_ns,
            fields: BTreeMap::new(),
        }
    }

    #[test]
    fn builds_independent_of_input_order() {
        let in_order = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 50, 40),
        ];
        let mut shuffled = in_order.clone();
        shuffled.reverse();
        let a = SpanForest::build(in_order).expect("forest");
        let b = SpanForest::build(shuffled).expect("forest");
        let names = |f: &SpanForest| -> Vec<String> {
            let root = f.roots()[0];
            f.children(root)
                .iter()
                .map(|&c| f.span(c).name.clone())
                .collect()
        };
        assert_eq!(names(&a), names(&b));
        assert_eq!(names(&a), ["s2", "s3"]);
        assert_eq!(a.self_time_ns(a.roots()[0]), 30);
    }

    #[test]
    fn orphaned_parent_is_a_named_error() {
        let err = SpanForest::build(vec![span(5, Some(99), 0, 1)]).unwrap_err();
        assert_eq!(
            err,
            ForestError::OrphanedParent {
                span: 5,
                parent: 99
            }
        );
    }

    #[test]
    fn duplicate_id_is_a_named_error() {
        let err = SpanForest::build(vec![span(7, None, 0, 1), span(7, None, 2, 1)]).unwrap_err();
        assert_eq!(err, ForestError::DuplicateSpanId { span: 7 });
    }

    #[test]
    fn parent_cycle_is_a_named_error() {
        let err =
            SpanForest::build(vec![span(1, Some(2), 0, 1), span(2, Some(1), 0, 1)]).unwrap_err();
        assert!(matches!(err, ForestError::ParentCycle { .. }));
    }

    #[test]
    fn overlapping_cross_thread_children_clamp_self_time() {
        // Children total 120ns under an 100ns parent (they overlap in
        // wall time on other threads): self time clamps to 0.
        let forest = SpanForest::build(vec![
            span(1, None, 0, 100),
            span(2, Some(1), 0, 60),
            span(3, Some(1), 0, 60),
        ])
        .expect("forest");
        assert_eq!(forest.self_time_ns(forest.roots()[0]), 0);
    }
}
