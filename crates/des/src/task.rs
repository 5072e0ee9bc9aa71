//! Async tasks: a [`Reactor`] written as a straight-line `async` body.
//!
//! A reactor with several waits in sequence (receive, charge, send, reply)
//! becomes an awkward state enum when written by hand. [`task`] lets the
//! same loop be written as an `async` block instead: each `.await` on a
//! [`TaskCtx`] yield hands exactly one [`Step`] back to whoever steps the
//! reactor, and the next step resumes the body right after it. The
//! adapter polls the body with [`std::task::Waker::noop`]; nothing but the
//! kernel (or [`crate::drive`]) ever resumes it, so no executor, waker or
//! extra crate is involved, and the body must await nothing but its
//! [`TaskCtx`].
//!
//! The body runs inline in a step, so the reactor rule applies between
//! awaits: no blocking `ProcCtx` call. A lock guard held across an `.await`
//! would be held while other processes run; `parking_lot` guards are not
//! `Send`, so the compiler rejects that for the `Send` body a task needs.

use crate::kernel::ProcCtx;
use crate::reactor::{Poll, Reactor, Step};
use crate::time::SimDuration;
use parking_lot::Mutex;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Waker};

type Body = Pin<Box<dyn Future<Output = ()> + Send>>;
type Start = Box<dyn FnOnce(TaskCtx) -> Body + Send>;

/// The step a suspended body handed back, waiting for the adapter.
type Slot = Arc<Mutex<Option<Step>>>;

/// A reactor that runs an `async` body; build one with [`task`].
pub struct Task {
    start: Option<Start>,
    body: Option<Body>,
    slot: Slot,
}

/// Run `body` as a reactor. It is called on the first step with the
/// task's [`TaskCtx`]; the future it returns is polled once per step, and
/// its completion is [`Step::Exit`].
pub fn task<F, Fut>(body: F) -> Task
where
    F: FnOnce(TaskCtx) -> Fut + Send + 'static,
    Fut: Future<Output = ()> + Send + 'static,
{
    Task {
        start: Some(Box::new(move |t| Box::pin(body(t)))),
        body: None,
        slot: Arc::new(Mutex::new(None)),
    }
}

impl Reactor for Task {
    fn step(&mut self, ctx: &ProcCtx) -> Step {
        let slot = &self.slot;
        let start = &mut self.start;
        let body = self.body.get_or_insert_with(|| {
            let start = start.take().expect("a finished task is not stepped again");
            start(TaskCtx {
                ctx: ctx.clone(),
                slot: slot.clone(),
            })
        });
        match body.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
            std::task::Poll::Ready(()) => Step::Exit,
            std::task::Poll::Pending => self
                .slot
                .lock()
                .take()
                .expect("a task body awaits only its TaskCtx yields"),
        }
    }
}

/// A task body's handle: its process context, and the awaitable yields.
#[derive(Clone)]
pub struct TaskCtx {
    ctx: ProcCtx,
    slot: Slot,
}

impl TaskCtx {
    /// The task's process context, for the non-blocking calls (clock,
    /// wakes, spawns, incidents, abort).
    pub fn ctx(&self) -> &ProcCtx {
        &self.ctx
    }

    /// Yield `step`; resumes once it is carried out.
    pub fn step(&self, step: Step) -> impl Future<Output = ()> + Send + '_ {
        YieldStep {
            slot: &self.slot,
            step: Some(step),
        }
    }

    /// Spend `d` of virtual time: the task form of [`ProcCtx::advance`].
    pub async fn advance(&self, d: SimDuration) {
        self.step(Step::Advance(d)).await;
    }

    /// Carry a non-blocking poll core through to its value, yielding each
    /// pending step: the task form of [`ProcCtx::drive_poll`]. A core that
    /// asks the process to exit ends the task here, and this never
    /// returns.
    pub async fn poll<T>(&self, mut core: impl FnMut() -> Poll<T>) -> T {
        loop {
            match core() {
                Poll::Ready(v) => return v,
                Poll::Pending(Step::Exit) => loop {
                    self.step(Step::Exit).await;
                },
                Poll::Pending(step) => self.step(step).await,
            }
        }
    }
}

/// The future of one [`TaskCtx::step`] yield.
struct YieldStep<'a> {
    slot: &'a Slot,
    step: Option<Step>,
}

impl Future for YieldStep<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> std::task::Poll<()> {
        match self.step.take() {
            Some(step) => {
                *self.slot.lock() = Some(step);
                std::task::Poll::Pending
            }
            None => std::task::Poll::Ready(()),
        }
    }
}
