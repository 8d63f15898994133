//! Sinks that receive [`TraceEvent`]s: no-op, `Vec`-buffered, and JSONL writer.

use std::io::Write;
use std::sync::Mutex;

use crate::event::TraceEvent;
use crate::export::jsonl_line;

/// Receives trace events. Implementations must be thread-safe: the live
/// backends emit from one thread per node.
pub trait TraceSink: Send + Sync {
    /// Record one event. Called on the hot path only when tracing is enabled.
    fn record(&self, event: TraceEvent);
}

/// Discards everything. Useful as an explicit "tracing off" sink.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn record(&self, _event: TraceEvent) {}
}

/// Buffers events in memory for later export or analysis.
#[derive(Debug, Default)]
pub struct VecSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl VecSink {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of every event recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace buffer poisoned").clone()
    }

    /// Drains the buffer, returning the recorded events.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("trace buffer poisoned"))
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace buffer poisoned").len()
    }

    /// Whether no event has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for VecSink {
    fn record(&self, event: TraceEvent) {
        self.events
            .lock()
            .expect("trace buffer poisoned")
            .push(event);
    }
}

/// Streams every event as one JSON object per line to the wrapped writer.
pub struct JsonlSink {
    writer: Mutex<Box<dyn Write + Send>>,
}

impl JsonlSink {
    /// Wraps a writer (file, `Vec<u8>`, ...). Lines are written eagerly; call
    /// [`JsonlSink::flush`] before reading the output elsewhere.
    pub fn new(writer: impl Write + Send + 'static) -> Self {
        Self {
            writer: Mutex::new(Box::new(writer)),
        }
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) -> std::io::Result<()> {
        self.writer.lock().expect("trace writer poisoned").flush()
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: TraceEvent) {
        let mut writer = self.writer.lock().expect("trace writer poisoned");
        let _ = writeln!(writer, "{}", jsonl_line(&event));
    }
}
