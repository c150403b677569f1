//! Span guards: scoped, nested, thread-attributed timing records.
//!
//! A span is recorded **on completion** (guard drop), carrying its
//! start offset from the process-wide trace epoch, its wall-clock
//! duration, the numeric id of the thread it ran on, and its parent
//! span. Parentage follows a thread-local stack of active spans;
//! fork-join workers (which start with an empty stack) are parented
//! explicitly via [`SpanGuard::enter_with_parent`].

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::collector::dispatch_span;

/// Identifier of a recorded span (unique within the process).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

/// One structured field value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Text.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// The ordered field list of a span.
pub type Fields = Vec<(&'static str, FieldValue)>;

/// A completed span, as delivered to sinks.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique span id.
    pub id: u64,
    /// Parent span id (`None` for a root).
    pub parent: Option<u64>,
    /// Span name (one of [`crate::names`] for built-in instrumentation).
    pub name: &'static str,
    /// Numeric id of the thread the span ran on (assigned per thread,
    /// in first-span order).
    pub thread: u64,
    /// Start offset from the process trace epoch, nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, nanoseconds.
    pub dur_ns: u64,
    /// Structured fields.
    pub fields: Fields,
}

impl SpanRecord {
    /// Builds an already-completed span record on the current thread:
    /// a fresh id, the current thread-local parent, and a start time
    /// back-dated by `wall` from now.
    ///
    /// This is the entry point for instrumentation that measures a
    /// duration itself (e.g. the study engine's per-node wall clock)
    /// rather than holding a guard open.
    pub fn completed(name: &'static str, fields: Fields, wall: Duration) -> Self {
        let dur_ns = duration_ns(wall);
        let now = epoch_ns();
        SpanRecord {
            id: next_span_id(),
            parent: current_span().map(|s| s.0),
            name,
            thread: thread_ordinal(),
            start_ns: now.saturating_sub(dur_ns),
            dur_ns,
            fields,
        }
    }

    /// Delivers this record to every installed collector's sinks
    /// (no-op while tracing is disabled). The counterpart of the guard
    /// drop for records built via [`SpanRecord::completed`].
    pub fn emit(self) {
        dispatch_span(&self);
    }

    /// The value of a field, if present.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The value of a string field, if present and textual.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        match self.field(key) {
            Some(FieldValue::Str(s)) => Some(s),
            _ => None,
        }
    }
}

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_ORDINAL: RefCell<Option<u64>> = const { RefCell::new(None) };
}

fn next_span_id() -> u64 {
    NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}

/// Nanoseconds since the process trace epoch (first instrumented call).
fn epoch_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    duration_ns(epoch.elapsed())
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The calling thread's stable numeric id (assigned on first use).
pub(crate) fn thread_ordinal() -> u64 {
    THREAD_ORDINAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        *slot.get_or_insert_with(|| NEXT_THREAD.fetch_add(1, Ordering::Relaxed))
    })
}

/// The innermost active span on the calling thread, if any.
///
/// Capture this before handing work to another thread, then parent the
/// worker's spans with [`SpanGuard::enter_with_parent`].
pub(crate) fn current_span() -> Option<SpanId> {
    STACK.with(|stack| stack.borrow().last().copied().map(SpanId))
}

struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    fields: Fields,
    start_ns: u64,
    started: Instant,
}

/// An RAII guard recording one span when dropped.
///
/// Construct via the [`crate::span!`] macro (which skips field
/// evaluation while tracing is disabled) or the `enter*` constructors.
#[must_use = "a span measures the scope it is bound to"]
pub struct SpanGuard(Option<ActiveSpan>);

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(a) => write!(f, "SpanGuard({} #{})", a.name, a.id),
            None => write!(f, "SpanGuard(disabled)"),
        }
    }
}

impl SpanGuard {
    /// A no-op guard (tracing disabled).
    pub fn disabled() -> Self {
        SpanGuard(None)
    }

    /// Opens a span parented to the calling thread's innermost span.
    pub fn enter(name: &'static str, fields: Fields) -> Self {
        Self::enter_with_parent(current_span(), name, fields)
    }

    /// Opens a span with an explicit parent — the cross-thread
    /// constructor for fork-join workers, which start with an empty
    /// span stack.
    pub fn enter_with_parent(parent: Option<SpanId>, name: &'static str, fields: Fields) -> Self {
        if !crate::enabled() {
            return Self::disabled();
        }
        let id = next_span_id();
        STACK.with(|stack| stack.borrow_mut().push(id));
        SpanGuard(Some(ActiveSpan {
            id,
            parent: parent.map(|s| s.0),
            name,
            fields,
            start_ns: epoch_ns(),
            started: Instant::now(),
        }))
    }

    /// The span's id (`None` when disabled). Pass to
    /// [`SpanGuard::enter_with_parent`] on worker threads.
    pub fn id(&self) -> Option<SpanId> {
        self.0.as_ref().map(|a| SpanId(a.id))
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else {
            return;
        };
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards drop LIFO in well-formed code; tolerate out-of-order
            // drops by removing this id wherever it sits.
            if let Some(pos) = stack.iter().rposition(|&id| id == active.id) {
                stack.remove(pos);
            }
        });
        let record = SpanRecord {
            id: active.id,
            parent: active.parent,
            name: active.name,
            thread: thread_ordinal(),
            start_ns: active.start_ns,
            dur_ns: duration_ns(active.started.elapsed()),
            fields: active.fields,
        };
        dispatch_span(&record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use crate::sink::RecordingSink;
    use std::sync::Arc;

    #[test]
    fn disabled_spans_are_no_ops() {
        // No collector installed in this test's scope at construction
        // time: the macro must yield a disabled guard with no id.
        let guard = SpanGuard::disabled();
        assert!(guard.id().is_none());
        drop(guard);
        assert_eq!(current_span(), None);
    }

    #[test]
    fn nesting_and_cross_thread_parenting() {
        let _lock = crate::collector::test_serial();
        let sink = Arc::new(RecordingSink::new());
        let collector = Collector::new(vec![sink.clone()]);
        let session = collector.install();

        let outer = SpanGuard::enter("outer", vec![]);
        let outer_id = outer.id().expect("enabled");
        {
            let inner = SpanGuard::enter("inner", vec![("k", FieldValue::U64(1))]);
            assert_eq!(current_span(), inner.id());
        }
        // Simulate a worker thread with an explicit parent.
        let parent = current_span();
        assert_eq!(parent, Some(outer_id));
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let w = SpanGuard::enter_with_parent(parent, "worker", vec![]);
                assert_eq!(current_span(), w.id());
            });
        });
        drop(outer);
        drop(session);

        let spans = sink.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("span recorded");
        assert_eq!(by_name("inner").parent, Some(outer_id.0));
        assert_eq!(by_name("worker").parent, Some(outer_id.0));
        assert_eq!(by_name("outer").parent, None);
        assert_ne!(by_name("worker").thread, by_name("outer").thread);
        assert_eq!(by_name("inner").field("k"), Some(&FieldValue::U64(1)));
    }

    #[test]
    fn completed_records_backdate_start() {
        let _lock = crate::collector::test_serial();
        let sink = Arc::new(RecordingSink::new());
        let collector = Collector::new(vec![sink.clone()]);
        let _session = collector.install();
        let wall = Duration::from_millis(5);
        let rec = SpanRecord::completed("node", vec![], wall);
        assert_eq!(rec.dur_ns, 5_000_000);
        assert!(rec.parent.is_none());
    }
}
