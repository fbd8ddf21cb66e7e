//! Hierarchical timed spans.

use std::cell::RefCell;

use crate::sink::{with_active, EventKind};

thread_local! {
    /// The open span names on this thread, root first.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// The current span path joined with `/`, with `name` appended.
fn current_path_with(name: &str) -> String {
    SPAN_STACK.with(|stack| {
        let stack = stack.borrow();
        if stack.is_empty() {
            name.to_string()
        } else {
            format!("{}/{}", stack.join("/"), name)
        }
    })
}

/// Opens a timed span; the returned guard closes it on drop.
///
/// While a sink is installed, the span emits a `span_start` event
/// immediately and a `span_end` event with its duration when dropped,
/// and nests under any span already open on this thread (the path is
/// `/`-joined). With no sink installed this is free: the guard holds
/// nothing and drop does nothing.
///
/// Spans are thread-local; open and close them from serial
/// orchestration code, not inside `par_map` workers (worker threads
/// would each start their own root, and event order would depend on
/// scheduling — see the crate-level determinism contract).
pub fn span(name: &str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { active: None };
    }
    let path = current_path_with(name);
    SPAN_STACK.with(|stack| stack.borrow_mut().push(name.to_string()));
    let start_ms = with_active(|sink| {
        let start = sink.now_ms();
        sink.emit(EventKind::SpanStart, &path, None);
        start
    })
    .unwrap_or(0);
    SpanGuard {
        active: Some(OpenSpan { path, start_ms }),
    }
}

#[derive(Debug)]
struct OpenSpan {
    path: String,
    start_ms: u64,
}

/// Guard for an open [`span`]; closes the span when dropped.
#[derive(Debug)]
#[must_use = "a span closes when its guard drops; bind it with `let _span = ...`"]
pub struct SpanGuard {
    active: Option<OpenSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.active.take() else {
            return;
        };
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        with_active(|sink| {
            let duration = sink.now_ms().saturating_sub(open.start_ms);
            sink.emit(EventKind::SpanEnd, &open.path, Some(duration));
        });
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::sink::{with_sink, RecordingSink};

    #[test]
    fn spans_nest_and_time() {
        let sink = Arc::new(RecordingSink::with_virtual_clock());
        with_sink(sink.clone(), || {
            let _outer = span("outer");
            let _inner = span("inner");
        });
        let events = sink.events();
        let paths: Vec<(&str, EventKind)> =
            events.iter().map(|e| (e.path.as_str(), e.kind)).collect();
        assert_eq!(
            paths,
            vec![
                ("outer", EventKind::SpanStart),
                ("outer/inner", EventKind::SpanStart),
                ("outer/inner", EventKind::SpanEnd),
                ("outer", EventKind::SpanEnd),
            ]
        );
        // Virtual clock: every reading ticks once, so durations are exact.
        assert!(events[2].duration_ms.is_some());
        assert!(events[3].duration_ms >= events[2].duration_ms);
    }

    #[test]
    fn disabled_span_is_inert() {
        let _span = span("nobody-listening");
        // No sink: the stack must stay empty so later spans root correctly.
        SPAN_STACK.with(|stack| assert!(stack.borrow().is_empty()));
    }
}
