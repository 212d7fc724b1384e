//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own wrapper types around each
//! seam call (name, start, end, parent, request id), aggregated on the
//! fly into per-layer call counts, total time and self time (duration
//! minus the child spans it encloses), and kept in memory up to a cap
//! for the Chrome trace written at exit.
//!
//! The recorder is thread-local: every seam wrapper runs on the
//! benchmark thread (the service worker never calls back into the
//! benchmark), and a thread-local keeps the wrappers `Send + Sync`
//! without a lock on the hot path. With tracing off, a wrapper pays one
//! thread-local flag read per call.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// A seam (or benchmark container) a span can be recorded for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One round of the workload (container: the measured whole).
    Round,
    /// Building device rows (`DeviceSim::new`, cursors, policies).
    Build,
    /// One `DeviceSim::run_until` call (container).
    RunUntil,
    /// One sampled `DeviceSim::step` (container; its self time is the
    /// physics and bookkeeping between the seams).
    Step,
    /// `TraceSource::segments_in` / `demand_at`.
    Trace,
    /// `Policy::decide` on a step that ran no inline calibration.
    Decide,
    /// `Policy::decide` on a step that ran an inline calibration.
    Calibrate,
    /// `Policy::observe` (the profiler update).
    Observe,
    /// `TelemetrySink::record_sample` / `record_calibration`.
    Telemetry,
    /// `CalibrationBackend::snapshot`.
    Snapshot,
    /// `CalibrationBackend::submit` / `CalibrationService::submit_request`.
    Submit,
    /// `CalibrationBackend::adopt`.
    Adopt,
    /// `CalibrationService::step`.
    ServeStep,
    /// Benchmark-side capture of check inputs (profiler clones).
    Capture,
    /// The device loop waiting for the service worker at a window end.
    Wait,
}

/// Number of [`Layer`] variants.
pub const N_LAYERS: usize = 15;

impl Layer {
    /// Every layer, in table order.
    pub const ALL: [Layer; N_LAYERS] = [
        Layer::Round,
        Layer::Build,
        Layer::RunUntil,
        Layer::Step,
        Layer::Trace,
        Layer::Decide,
        Layer::Calibrate,
        Layer::Observe,
        Layer::Telemetry,
        Layer::Snapshot,
        Layer::Submit,
        Layer::Adopt,
        Layer::ServeStep,
        Layer::Capture,
        Layer::Wait,
    ];

    /// The span name in tables and the Chrome trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Round => "bench.round",
            Layer::Build => "fleet.build",
            Layer::RunUntil => "sim.run_until",
            Layer::Step => "sim.step",
            Layer::Trace => "workload.trace",
            Layer::Decide => "policy.decide",
            Layer::Calibrate => "policy.decide+calibrate",
            Layer::Observe => "profiler.observe",
            Layer::Telemetry => "telemetry.sink",
            Layer::Snapshot => "serve.snapshot",
            Layer::Submit => "serve.submit",
            Layer::Adopt => "serve.adopt",
            Layer::ServeStep => "serve.step",
            Layer::Capture => "bench.capture",
            Layer::Wait => "serve.wait",
        }
    }

    /// Recorded only on sampled steps (its ledger total is scaled up
    /// by the sampling ratio) rather than on every call.
    pub fn sampled(self) -> bool {
        matches!(
            self,
            Layer::Step
                | Layer::Trace
                | Layer::Decide
                | Layer::Observe
                | Layer::Telemetry
                | Layer::Snapshot
        )
    }

    /// A container whose self time is not a layer of its own: `Round`
    /// is the measured whole, `RunUntil` mostly encloses unsampled
    /// steps.
    pub fn container(self) -> bool {
        matches!(self, Layer::Round | Layer::RunUntil)
    }
}

/// Per-layer aggregate over every recorded span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans recorded.
    pub calls: u64,
    /// Summed duration, ns (tracing overhead subtracted).
    pub total_ns: f64,
    /// Summed self time (duration minus enclosed child spans), ns.
    pub self_ns: f64,
    /// Child spans closed inside these spans.
    pub children: u64,
}

/// One recorded span, as written to the Chrome trace.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// The seam.
    pub layer: Layer,
    /// Start, ns since the recorder was installed.
    pub start_ns: u64,
    /// End, ns since the recorder was installed.
    pub end_ns: u64,
    /// Span id (1-based, unique per run).
    pub id: u64,
    /// Enclosing span's id, 0 for a root.
    pub parent: u64,
    /// Calibration-request id shared by the spans of one request, 0
    /// when the span belongs to none.
    pub req: u64,
}

struct Open {
    layer: Layer,
    start: u64,
    child_ns: f64,
    children: u32,
    id: u64,
    req: u64,
}

/// Everything a traced run recorded.
pub struct Recording {
    /// Per-layer aggregates, indexed like [`Layer::ALL`].
    pub agg: [Agg; N_LAYERS],
    /// Recorded spans in close order (capped).
    pub spans: Vec<SpanRec>,
    /// Spans aggregated but not kept because the cap was reached.
    pub dropped: u64,
    /// Measured cost of recording one empty span, ns (subtracted from
    /// every span's duration).
    pub span_cost_ns: f64,
    /// Measured time a child span adds to its parent beyond its own
    /// duration, ns (subtracted from the parent's self time).
    pub child_cost_ns: f64,
    /// Spans closed of layers recorded on every call (not sampled).
    pub always_closed: u64,
}

struct State {
    origin: Instant,
    stack: Vec<Open>,
    next_id: u64,
    rec: Recording,
    cap: usize,
}

thread_local! {
    static TRACING: Cell<bool> = const { Cell::new(false) };
    static SAMPLING: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// Whether a traced run is recording on this thread.
#[inline]
pub fn tracing() -> bool {
    TRACING.with(Cell::get)
}

/// Whether the current step is a sampled one (sampled layers record).
#[inline]
pub fn sampling() -> bool {
    SAMPLING.with(Cell::get)
}

/// Pause (`false`) or resume (`true`) recording on an installed
/// recorder; a traced run alternates traced and untraced rounds.
pub fn set_tracing(on: bool) {
    let installed = STATE.with(|s| s.borrow().is_some());
    TRACING.with(|t| t.set(on && installed));
    if !on {
        SAMPLING.with(|t| t.set(false));
    }
}

/// Open or close the sampling gate for the sampled layers.
pub fn set_sampling(on: bool) {
    SAMPLING.with(|s| s.set(on && tracing()));
}

/// Start recording on this thread, keeping at most `cap` spans for the
/// Chrome trace, and measure the recorder's own per-span cost.
pub fn install(cap: usize) {
    STATE.with(|s| {
        *s.borrow_mut() = Some(State {
            origin: Instant::now(),
            stack: Vec::with_capacity(16),
            next_id: 1,
            rec: Recording {
                agg: [Agg::default(); N_LAYERS],
                spans: Vec::new(),
                dropped: 0,
                span_cost_ns: 0.0,
                child_cost_ns: 0.0,
                always_closed: 0,
            },
            cap,
        });
    });
    TRACING.with(|t| t.set(true));
    let (span_cost, child_cost) = calibrate();
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let st = s.as_mut().expect("installed above");
        st.rec = Recording {
            agg: [Agg::default(); N_LAYERS],
            spans: Vec::new(),
            dropped: 0,
            span_cost_ns: span_cost,
            child_cost_ns: child_cost,
            always_closed: 0,
        };
        st.next_id = 1;
    });
}

/// Stop recording and hand back what was recorded.
pub fn take() -> Option<Recording> {
    TRACING.with(|t| t.set(false));
    SAMPLING.with(|t| t.set(false));
    STATE.with(|s| s.borrow_mut().take().map(|st| st.rec))
}

/// Measure the cost of an empty span and the extra time one child adds
/// to its parent, as medians over repeated trials.
fn calibrate() -> (f64, f64) {
    const N: usize = 2000;
    let mut empty = Vec::with_capacity(N);
    let mut parent0 = Vec::with_capacity(N);
    let mut parent1 = Vec::with_capacity(N);
    for _ in 0..N {
        enter(Layer::Capture, 0);
        empty.push(exit_raw().0);
        enter(Layer::Capture, 0);
        parent0.push(exit_raw().0);
        enter(Layer::Capture, 0);
        enter(Layer::Capture, 0);
        let child = exit_raw().0;
        parent1.push(exit_raw().0 - child);
    }
    let span_cost = crate::stats::median(&mut empty);
    let p0 = crate::stats::median(&mut parent0);
    let p1 = crate::stats::median(&mut parent1);
    (span_cost, (p1 - p0).max(0.0))
}

fn now_ns(st: &State) -> u64 {
    st.origin.elapsed().as_nanos() as u64
}

/// Open a span of `layer` for request `req` (0: none).
pub fn enter(layer: Layer, req: u64) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let Some(st) = s.as_mut() else { return };
        let id = st.next_id;
        st.next_id += 1;
        st.stack.push(Open {
            layer,
            start: 0,
            child_ns: 0.0,
            children: 0,
            id,
            req,
        });
        // Read the clock last so the bookkeeping above stays outside
        // the span.
        let t = now_ns(st);
        st.stack.last_mut().expect("pushed above").start = t;
    });
}

/// Close the innermost span; returns its raw duration in ns and the
/// number of child spans it enclosed.
pub fn exit_raw() -> (f64, u32) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let Some(st) = s.as_mut() else {
            return (0.0, 0);
        };
        let end = now_ns(st);
        let open = st.stack.pop().expect("exit without enter");
        let raw = end.saturating_sub(open.start) as f64;
        let span_cost = st.rec.span_cost_ns;
        let dur = (raw - span_cost).max(0.0);
        let self_ns =
            (dur - open.child_ns - f64::from(open.children) * st.rec.child_cost_ns).max(0.0);
        let parent = match st.stack.last_mut() {
            Some(p) => {
                // The parent saw the child's whole raw interval.
                p.child_ns += raw;
                p.children += 1;
                p.id
            }
            None => 0,
        };
        if !open.layer.sampled() {
            st.rec.always_closed += 1;
        }
        let agg = &mut st.rec.agg[open.layer as usize];
        agg.calls += 1;
        agg.total_ns += dur;
        agg.self_ns += self_ns;
        agg.children += u64::from(open.children);
        if st.rec.spans.len() < st.cap {
            st.rec.spans.push(SpanRec {
                layer: open.layer,
                start_ns: open.start,
                end_ns: end,
                id: open.id,
                parent,
                req: open.req,
            });
        } else {
            st.rec.dropped += 1;
        }
        (raw, open.children)
    })
}

/// Close the innermost span.
pub fn exit() {
    exit_raw();
}

/// Spans closed so far of layers recorded on every call: a sampled
/// step that encloses one is not a plain step.
pub fn always_closed() -> u64 {
    STATE.with(|s| s.borrow().as_ref().map_or(0, |st| st.rec.always_closed))
}

/// Spans opened so far (the next span id − 1).
pub fn opened() -> u64 {
    STATE.with(|s| s.borrow().as_ref().map_or(0, |st| st.next_id - 1))
}

/// The measured cost of one empty span, ns.
pub fn span_cost_ns() -> f64 {
    STATE.with(|s| s.borrow().as_ref().map_or(0.0, |st| st.rec.span_cost_ns))
}

/// Tag the most recently closed span of `layer` with request id `req`
/// (for spans whose request is only known after the call, such as the
/// service step that turned out to publish a given cohort). Looks back
/// over at most the last 64 kept spans.
pub fn tag_last_of(layer: Layer, req: u64) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        if let Some(st) = s.as_mut() {
            if let Some(span) = st
                .rec
                .spans
                .iter_mut()
                .rev()
                .take(64)
                .find(|sp| sp.layer == layer)
            {
                span.req = req;
            }
        }
    });
}

/// Open a span only when `on`; returns `on` for the matching
/// [`exit_if`].
#[inline]
pub fn enter_if(on: bool, layer: Layer, req: u64) -> bool {
    if on {
        enter(layer, req);
    }
    on
}

/// Close the span opened by a matching [`enter_if`].
#[inline]
pub fn exit_if(opened: bool) {
    if opened {
        exit();
    }
}

/// Render the recorded spans as a Chrome trace (`traceEvents`, complete
/// `"X"` events in microseconds) for chrome://tracing or Perfetto.
pub fn chrome_trace(rec: &Recording, workload: &str) -> String {
    let mut out = String::with_capacity(rec.spans.len() * 120 + 256);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":\"");
    out.push_str(workload);
    let _ = write!(
        out,
        "\",\"dropped_spans\":{}}},\"traceEvents\":[",
        rec.dropped
    );
    for (i, s) in rec.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
            s.layer.name(),
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.req
        );
    }
    out.push_str("]}");
    out
}
