//! Query budgets, cooperative cancellation and run outcomes.
//!
//! The paper's early-termination machinery (Section IV) stops *branches*;
//! this module is the layer that stops *queries*. A [`Budget`] bounds an
//! enumeration session three ways:
//!
//! * **`max_cliques`** — stop after this many cliques have been emitted to
//!   the caller's reporter. Enforced at the *ordered output point* (after the
//!   deterministic sequencer), so a capped run emits exactly the first `N`
//!   cliques of the deterministic stream regardless of thread count — an
//!   exact byte-prefix of the unbudgeted run.
//! * **`max_steps`** — abort after this many branch steps summed across all
//!   workers. A branch step is one iteration of a branching loop (the same
//!   granularity the parallel driver's donation check uses), so the bound
//!   tracks actual work, not wall clock.
//! * **`cancel`** — a cooperative [`CancelToken`] that any thread may trip.
//!   Workers observe it between branch steps and unwind promptly.
//! * **`deadline`** — a wall-clock bound. The clock is polled on the same
//!   relaxed-atomic branch-step cadence the step cap uses (every
//!   `DEADLINE_CHECK_INTERVAL` steps, so the hot loop stays monotonic
//!   loads), surfacing as `Outcome::Truncated(DeadlineExceeded)`.
//!
//! Whatever trips first, the ordered output stream is cut at a *clean* point:
//! the sequencer never emits a rank assembled from partially-aborted parts,
//! so a truncated run's bytes are always an exact prefix of the full
//! deterministic stream (see `parallel`). The final [`Outcome`] reports
//! whether the run ran to completion or was truncated, and why.
//!
//! Internally every budget compiles into a crate-private `BudgetState`: a handful of
//! shared atomics that cost one relaxed load per branch step when armed and
//! nothing at all when no budget is attached (the solver carries an
//! `Option<&BudgetState>` and skips the checks entirely for `None`).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mce_graph::VertexId;

use crate::report::CliqueReporter;

/// Cooperative cancellation handle for an enumeration session.
///
/// Cloning shares the underlying flag: cancel any clone and every worker of
/// the session observes it between branch steps. Cancellation is a latch —
/// once tripped it stays tripped.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the token; every session holding a clone stops at its next
    /// branch-step check.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Resource bounds of one enumeration session. The default is unlimited.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Stop after this many cliques have been emitted to the caller.
    pub max_cliques: Option<u64>,
    /// Abort after this many branch steps summed across all workers.
    pub max_steps: Option<u64>,
    /// External cooperative cancellation.
    pub cancel: Option<CancelToken>,
    /// Abort once this much wall-clock time has elapsed since the session's
    /// budget state was compiled (i.e. since admission).
    pub deadline: Option<Duration>,
}

impl Budget {
    /// A budget with no limits (the classic fire-and-forget run).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget capping only the number of emitted cliques.
    pub fn cliques(max: u64) -> Self {
        Budget {
            max_cliques: Some(max),
            ..Self::default()
        }
    }

    /// A budget capping only the number of branch steps.
    pub fn steps(max: u64) -> Self {
        Budget {
            max_steps: Some(max),
            ..Self::default()
        }
    }

    /// A budget capping only the wall-clock time.
    pub fn within(deadline: Duration) -> Self {
        Budget {
            deadline: Some(deadline),
            ..Self::default()
        }
    }

    /// Whether any bound or token is attached.
    pub fn is_limited(&self) -> bool {
        self.max_cliques.is_some()
            || self.max_steps.is_some()
            || self.cancel.is_some()
            || self.deadline.is_some()
    }

    /// Returns this budget with the given cancellation token attached.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Returns this budget with the given wall-clock deadline attached.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Why a truncated run stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TruncationReason {
    /// [`Budget::max_cliques`] was reached.
    CliqueLimit,
    /// [`Budget::max_steps`] was exhausted.
    StepLimit,
    /// The session's [`CancelToken`] was tripped.
    Cancelled,
    /// [`Budget::deadline`] elapsed before the run finished.
    DeadlineExceeded,
}

impl std::fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TruncationReason::CliqueLimit => write!(f, "clique limit"),
            TruncationReason::StepLimit => write!(f, "step limit"),
            TruncationReason::Cancelled => write!(f, "cancelled"),
            TruncationReason::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// How an enumeration session ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The full result was produced.
    Complete,
    /// The run stopped early; the emitted stream is an exact prefix of the
    /// complete deterministic stream.
    Truncated {
        /// Which bound tripped first.
        reason: TruncationReason,
    },
}

impl Outcome {
    /// Whether the run was cut short.
    pub fn is_truncated(&self) -> bool {
        matches!(self, Outcome::Truncated { .. })
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Outcome::Complete => write!(f, "complete"),
            Outcome::Truncated { reason } => write!(f, "truncated ({reason})"),
        }
    }
}

// Encoding of the first-tripped reason in `BudgetState::reason`.
const REASON_NONE: u8 = 0;
const REASON_CLIQUES: u8 = 1;
const REASON_STEPS: u8 = 2;
const REASON_CANCELLED: u8 = 3;
const REASON_DEADLINE: u8 = 4;

/// Branch steps between wall-clock polls of an armed deadline. Keeps the hot
/// loop at one relaxed `fetch_add` per step (the same cadence the step cap
/// pays) while bounding deadline-detection latency to this many steps per
/// worker.
pub(crate) const DEADLINE_CHECK_INTERVAL: u64 = 64;

/// Shared runtime state of one budgeted session: the compiled [`Budget`]
/// plus the atomics every worker consults between branch steps.
#[derive(Debug)]
pub(crate) struct BudgetState {
    /// Latched stop signal (set by whichever bound trips first).
    stop: AtomicBool,
    /// First reason that tripped (`REASON_*`), set exactly once.
    reason: AtomicU8,
    /// Branch steps consumed across all workers.
    steps: AtomicU64,
    /// Step bound (`u64::MAX` when unlimited).
    max_steps: u64,
    /// Cliques emitted through [`BudgetReporter`] so far.
    emitted: AtomicU64,
    /// Emission bound (`u64::MAX` when unlimited).
    max_cliques: u64,
    /// External cancellation, polled alongside the latch.
    token: Option<CancelToken>,
    /// Wall-clock bound, compiled to an absolute instant at admission.
    deadline: Option<Instant>,
}

impl BudgetState {
    /// Compiles a budget into its shared runtime state.
    pub fn new(budget: &Budget) -> Self {
        BudgetState {
            stop: AtomicBool::new(false),
            reason: AtomicU8::new(REASON_NONE),
            steps: AtomicU64::new(0),
            max_steps: budget.max_steps.unwrap_or(u64::MAX),
            emitted: AtomicU64::new(0),
            max_cliques: budget.max_cliques.unwrap_or(u64::MAX),
            token: budget.cancel.clone(),
            deadline: budget.deadline.map(|d| Instant::now() + d),
        }
    }

    /// Latches the stop signal with `reason` (the first caller wins).
    fn trip(&self, reason: u8) {
        let _ =
            self.reason
                .compare_exchange(REASON_NONE, reason, Ordering::Relaxed, Ordering::Relaxed);
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Whether workers must stop, polling the external token as a side
    /// effect. Does not consume a branch step.
    #[inline]
    pub fn should_stop(&self) -> bool {
        if self.stop.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(token) = &self.token {
            if token.is_cancelled() {
                self.trip(REASON_CANCELLED);
                return true;
            }
        }
        false
    }

    /// Whether the armed deadline has passed, tripping the latch when so.
    fn check_deadline(&self) -> bool {
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                self.trip(REASON_DEADLINE);
                true
            }
            _ => false,
        }
    }

    /// Accounts one branch step; returns `true` when the caller must abort
    /// (budget exhausted, deadline passed or session cancelled).
    #[inline]
    pub fn note_step(&self) -> bool {
        if self.should_stop() {
            return true;
        }
        let taken = self.steps.fetch_add(1, Ordering::Relaxed) + 1;
        if taken > self.max_steps {
            self.trip(REASON_STEPS);
            return true;
        }
        // Poll the clock on the first step and every interval thereafter: the
        // common (deadline-free) case pays only the `Option` discriminant.
        if self.deadline.is_some() && taken % DEADLINE_CHECK_INTERVAL == 1 && self.check_deadline()
        {
            return true;
        }
        false
    }

    /// Emission gate of the ordered output point: `true` means "forward this
    /// clique", `false` means the clique cap is reached (the stop signal is
    /// latched and the clique is dropped).
    #[inline]
    pub fn try_emit(&self) -> bool {
        if self.max_cliques == u64::MAX {
            return true;
        }
        if self.emitted.load(Ordering::Relaxed) >= self.max_cliques {
            self.trip(REASON_CLIQUES);
            return false;
        }
        self.emitted.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Branch steps consumed so far across all workers (the counter
    /// [`Self::note_step`] advances). Serving layers read this after a run to
    /// charge per-client step quotas.
    pub fn steps_taken(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// The session's outcome so far: `Complete` until a bound trips.
    pub fn outcome(&self) -> Outcome {
        // A cancelled token (or an expired deadline) may not have been polled
        // since the last worker exited; surface both.
        if !self.should_stop() {
            self.check_deadline();
        }
        match self.reason.load(Ordering::Relaxed) {
            REASON_CLIQUES => Outcome::Truncated {
                reason: TruncationReason::CliqueLimit,
            },
            REASON_STEPS => Outcome::Truncated {
                reason: TruncationReason::StepLimit,
            },
            REASON_CANCELLED => Outcome::Truncated {
                reason: TruncationReason::Cancelled,
            },
            REASON_DEADLINE => Outcome::Truncated {
                reason: TruncationReason::DeadlineExceeded,
            },
            _ => Outcome::Complete,
        }
    }

    /// Latches the stop signal without a budget reason — used by the fault
    /// containment in `parallel` to drain the remaining workers quickly after
    /// a panic was caught. The reason latch is left to whatever (if anything)
    /// tripped first; callers that stop a run this way report the fault
    /// through a typed error, not through the outcome.
    pub(crate) fn halt_for_fault(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// Reporter adapter enforcing [`Budget::max_cliques`] at the deterministic
/// output point: forwards cliques until the cap, then latches the stop signal
/// and drops the rest. Because it sits *after* the ordered sequencer, the
/// forwarded cliques are exactly the first `N` of the deterministic stream at
/// any thread count.
pub(crate) struct BudgetReporter<'a, R: CliqueReporter + Send + ?Sized> {
    inner: &'a mut R,
    state: &'a BudgetState,
}

impl<'a, R: CliqueReporter + Send + ?Sized> BudgetReporter<'a, R> {
    /// Wraps `inner` under the session's budget state.
    pub fn new(inner: &'a mut R, state: &'a BudgetState) -> Self {
        BudgetReporter { inner, state }
    }
}

impl<R: CliqueReporter + Send + ?Sized> CliqueReporter for BudgetReporter<'_, R> {
    fn report(&mut self, clique: &[VertexId]) {
        if self.state.try_emit() {
            self.inner.report(clique);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::CountReporter;

    #[test]
    fn unlimited_budget_never_stops() {
        let state = BudgetState::new(&Budget::unlimited());
        for _ in 0..1000 {
            assert!(!state.note_step());
            assert!(state.try_emit());
        }
        assert_eq!(state.outcome(), Outcome::Complete);
        assert!(!Budget::unlimited().is_limited());
    }

    #[test]
    fn step_budget_trips_exactly_at_the_bound() {
        let state = BudgetState::new(&Budget::steps(3));
        assert!(!state.note_step());
        assert!(!state.note_step());
        assert!(!state.note_step());
        assert!(state.note_step(), "fourth step exceeds the bound");
        assert!(state.should_stop());
        assert_eq!(
            state.outcome(),
            Outcome::Truncated {
                reason: TruncationReason::StepLimit
            }
        );
    }

    #[test]
    fn clique_budget_forwards_exactly_the_cap() {
        let state = BudgetState::new(&Budget::cliques(2));
        let mut counter = CountReporter::new();
        {
            let mut reporter = BudgetReporter::new(&mut counter, &state);
            for _ in 0..5 {
                reporter.report(&[1, 2]);
            }
        }
        assert_eq!(counter.count, 2);
        assert!(state.should_stop());
        assert_eq!(
            state.outcome(),
            Outcome::Truncated {
                reason: TruncationReason::CliqueLimit
            }
        );
    }

    #[test]
    fn exact_cap_without_overflow_stays_complete() {
        // Emitting exactly max_cliques cliques never trips the cap: a graph
        // with exactly N cliques under --limit N reports Complete.
        let state = BudgetState::new(&Budget::cliques(2));
        assert!(state.try_emit());
        assert!(state.try_emit());
        assert_eq!(state.outcome(), Outcome::Complete);
    }

    #[test]
    fn cancel_token_is_shared_and_latched() {
        let token = CancelToken::new();
        let state = BudgetState::new(&Budget::unlimited().with_cancel(token.clone()));
        assert!(!state.should_stop());
        token.cancel();
        assert!(state.should_stop());
        assert!(state.note_step());
        assert_eq!(
            state.outcome(),
            Outcome::Truncated {
                reason: TruncationReason::Cancelled
            }
        );
        assert!(token.is_cancelled());
    }

    #[test]
    fn cancellation_is_observed_even_without_a_step_check() {
        // A token tripped after the last branch step must still surface in
        // the outcome.
        let token = CancelToken::new();
        let state = BudgetState::new(&Budget::unlimited().with_cancel(token.clone()));
        assert_eq!(state.outcome(), Outcome::Complete);
        token.cancel();
        assert!(state.outcome().is_truncated());
    }

    #[test]
    fn first_reason_wins() {
        let state = BudgetState::new(&Budget {
            max_cliques: Some(0),
            max_steps: Some(0),
            cancel: None,
            deadline: None,
        });
        assert!(!state.try_emit(), "cap 0 drops everything");
        assert!(state.note_step());
        assert_eq!(
            state.outcome(),
            Outcome::Truncated {
                reason: TruncationReason::CliqueLimit
            }
        );
    }

    #[test]
    fn expired_deadline_trips_on_the_step_cadence() {
        let state = BudgetState::new(&Budget::within(Duration::ZERO));
        // The first step polls the clock (the check interval is anchored at
        // step 1), so an already-expired deadline stops the run immediately.
        assert!(state.note_step());
        assert!(state.should_stop());
        assert_eq!(
            state.outcome(),
            Outcome::Truncated {
                reason: TruncationReason::DeadlineExceeded
            }
        );
    }

    #[test]
    fn expired_deadline_surfaces_without_any_step() {
        // A deadline that passes after the last branch step (or before the
        // first) must still show in the outcome.
        let state = BudgetState::new(&Budget::within(Duration::ZERO));
        assert_eq!(
            state.outcome(),
            Outcome::Truncated {
                reason: TruncationReason::DeadlineExceeded
            }
        );
    }

    #[test]
    fn distant_deadline_never_trips() {
        let state = BudgetState::new(&Budget::within(Duration::from_secs(3600)));
        for _ in 0..(3 * DEADLINE_CHECK_INTERVAL) {
            assert!(!state.note_step());
        }
        assert_eq!(state.outcome(), Outcome::Complete);
    }

    #[test]
    fn halt_for_fault_stops_without_a_reason() {
        let state = BudgetState::new(&Budget::unlimited());
        state.halt_for_fault();
        assert!(state.should_stop());
        assert_eq!(state.outcome(), Outcome::Complete);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Outcome::Complete.to_string(), "complete");
        assert_eq!(
            Outcome::Truncated {
                reason: TruncationReason::StepLimit
            }
            .to_string(),
            "truncated (step limit)"
        );
        assert_eq!(
            Outcome::Truncated {
                reason: TruncationReason::DeadlineExceeded
            }
            .to_string(),
            "truncated (deadline exceeded)"
        );
        assert!(!Outcome::Complete.is_truncated());
    }

    #[test]
    fn budget_constructors() {
        assert_eq!(Budget::cliques(5).max_cliques, Some(5));
        assert_eq!(Budget::steps(7).max_steps, Some(7));
        assert_eq!(
            Budget::within(Duration::from_millis(9)).deadline,
            Some(Duration::from_millis(9))
        );
        assert!(Budget::cliques(1).is_limited());
        assert!(Budget::within(Duration::from_secs(1)).is_limited());
        assert!(Budget::unlimited()
            .with_cancel(CancelToken::new())
            .is_limited());
        assert!(Budget::unlimited()
            .with_deadline(Duration::from_secs(1))
            .deadline
            .is_some());
    }
}
