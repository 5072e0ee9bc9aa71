//! Kernel-hosted reactors: simulated processes that run as event handlers
//! instead of on a stack of their own.
//!
//! A [`Reactor`] is a reactive loop — wait for an event, charge a cost,
//! forward the event — written as a state machine. Each call to
//! [`Reactor::step`] runs until the code would next yield the virtual CPU
//! and returns that yield as a [`Step`]. The DES kernel runs a step inline
//! on whichever stack is dispatching, so handing the CPU to a reactor
//! costs no stack switch. A reactor still owns a pid, and each step is
//! a dispatch in the `(time, sequence)` order exactly where the blocking
//! form of the same loop would have resumed, so the logical schedule is
//! identical either way. [`drive`] runs the same reactor as a blocking
//! process, which is what `cp-native` (and any [`crate::Executor`]
//! without a hosting kernel) does.
//!
//! **A step never blocks.** Inside a step a reactor may read the clock,
//! wake processes, push to unbounded queues, spawn, report incidents and
//! abort; the blocking `ProcCtx` calls (`advance`, `block`,
//! `block_timeout`, `join`) fail the run with a
//! [`crate::SimError::ProcessPanicked`] naming the reactor.
//!
//! The non-blocking *poll cores* ([`crate::sync::MsgQueue::poll_pop`],
//! [`crate::sync::MsgQueue::poll_push`] and the mailbox and MPI cores
//! built the same way) return [`Poll`]: either the value, or the [`Step`]
//! to take before polling again. A reactor returns that step; a blocking
//! process carries it out with [`ProcCtx::drive_poll`], which is how the
//! blocking calls are built. A reactor with many waits in a row is easier
//! to write as an `async` body run by [`crate::task`].

use crate::error::Pid;
use crate::kernel::ProcCtx;
use crate::time::SimDuration;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// How a reactor step (or a pending poll) yields the virtual CPU.
#[derive(Debug, Clone)]
pub enum Step {
    /// Spend `d` of virtual time, then step again.
    Advance(SimDuration),
    /// Wait for an `unblock`, then step again. A wake banked while the
    /// reactor ran is consumed at once, without a dispatch.
    Block(Reason),
    /// Like `Block`, but step again after the given virtual time if no
    /// `unblock` came first — the step form of [`ProcCtx::block_timeout`].
    /// The next step tells the two apart by the clock.
    BlockTimeout(Reason, SimDuration),
    /// The process is finished; any process joining it is released.
    Exit,
}

/// What a non-blocking poll core returns.
#[derive(Debug)]
pub enum Poll<T> {
    /// The operation completed.
    Ready(T),
    /// Not yet: take this step, then poll again.
    Pending(Step),
}

/// A simulated process written as a state machine of non-blocking steps.
pub trait Reactor: Send {
    /// Run until the next yield and return it. Must not call a blocking
    /// [`ProcCtx`] method.
    fn step(&mut self, ctx: &ProcCtx) -> Step;
}

impl<F: FnMut(&ProcCtx) -> Step + Send> Reactor for F {
    fn step(&mut self, ctx: &ProcCtx) -> Step {
        self(ctx)
    }
}

/// Run `reactor` to completion in the calling process, carrying out
/// each step with the blocking `ProcCtx` calls. This is the
/// default [`crate::Executor::spawn_reactor`], and gives the same schedule
/// as kernel hosting.
pub fn drive<R: Reactor + ?Sized>(ctx: &ProcCtx, reactor: &mut R) {
    while carry_out(ctx, reactor.step(ctx)) {}
}

/// Carry out `step` in the calling process with the blocking `ProcCtx`
/// calls; `false` for [`Step::Exit`].
pub(crate) fn carry_out(ctx: &ProcCtx, step: Step) -> bool {
    match step {
        Step::Advance(d) => ctx.advance(d),
        Step::Block(reason) => ctx.block(reason),
        Step::BlockTimeout(reason, d) => {
            ctx.block_timeout(reason, d);
        }
        Step::Exit => return false,
    }
    true
}

/// Why a process is blocked, as the deadlock report prints it.
///
/// Building one does not allocate for the common forms: a static text, an
/// optional shared label (`"{label}: {text}"`), and up to two numbers that
/// fill the text's `{}` placeholders (`None` prints as `ANY`). The text is
/// rendered only when a report needs it.
#[derive(Debug, Clone)]
pub struct Reason {
    label: Option<Arc<str>>,
    text: Cow<'static, str>,
    args: Option<[Option<i64>; 2]>,
}

impl Reason {
    /// A reason with fixed text.
    pub const fn new(text: &'static str) -> Reason {
        Reason {
            label: None,
            text: Cow::Borrowed(text),
            args: None,
        }
    }

    /// Fill the text's `{}` placeholders, in order, with `a` and `b`.
    pub fn with_args(mut self, a: Option<i64>, b: Option<i64>) -> Reason {
        self.args = Some([a, b]);
        self
    }

    /// Prefix the text with `"{label}: "`.
    pub fn on(mut self, label: &Arc<str>) -> Reason {
        self.label = Some(label.clone());
        self
    }

    /// The reason of a process blocked in `join(target)`.
    pub fn join(target: Pid) -> Reason {
        Reason::new("join(pid={})").with_args(Some(target as i64), None)
    }
}

impl From<&'static str> for Reason {
    fn from(text: &'static str) -> Reason {
        Reason::new(text)
    }
}

impl From<String> for Reason {
    fn from(text: String) -> Reason {
        Reason {
            label: None,
            text: Cow::Owned(text),
            args: None,
        }
    }
}

impl fmt::Display for Reason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(label) = &self.label {
            write!(f, "{label}: ")?;
        }
        let Some(args) = self.args else {
            return f.write_str(&self.text);
        };
        let mut parts = self.text.split("{}");
        f.write_str(parts.next().unwrap_or(""))?;
        for (i, part) in parts.enumerate() {
            match args.get(i).copied().flatten() {
                Some(v) => write!(f, "{v}")?,
                None => f.write_str("ANY")?,
            }
            f.write_str(part)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reason_renders_label_and_placeholders() {
        let label: Arc<str> = Arc::from("rank3");
        let r = Reason::new("MPI_Recv(src={}, tag={})")
            .with_args(None, Some(-7))
            .on(&label);
        assert_eq!(r.to_string(), "rank3: MPI_Recv(src=ANY, tag=-7)");
        assert_eq!(Reason::join(4).to_string(), "join(pid=4)");
        assert_eq!(Reason::from("plain {}").to_string(), "plain {}");
        assert_eq!(Reason::from(String::from("owned")).to_string(), "owned");
    }
}
