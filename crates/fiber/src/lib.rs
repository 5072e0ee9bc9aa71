#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
//! # cp-fiber — stackful fibers for the simulation kernel
//!
//! The DES kernel (`cp-des`) lets exactly one simulated process hold the
//! virtual CPU at a time, so running each process on an OS thread of its
//! own buys no parallelism; it only turns every handoff into a futex
//! wake-up and a sleep. A [`Fiber`] instead runs a process on a stack of
//! its own inside one carrier OS thread, and a handoff is a user-space
//! stack switch.
//!
//! This crate holds all of the workspace's `unsafe` code, behind a safe
//! interface:
//!
//! * [`Fiber::new`] maps a [`STACK_SIZE`] stack, committed lazily, with a
//!   `PROT_NONE` guard page below it: an overflow is a `SIGSEGV`, never
//!   silent corruption.
//! * [`Fiber::switch`] suspends the calling context — another fiber, or
//!   the thread's own stack — and runs the target, passing it a message.
//!   The switch saves every callee-saved register plus MXCSR and the x87
//!   control word, so floating-point modes stay with the fiber that set
//!   them.
//! * A fiber's entry closure runs under `catch_unwind` at the bottom of
//!   its stack. A panic never crosses into the carrier: it is kept for
//!   [`Fiber::take_panic`]. When the entry returns, the fiber switches to
//!   its thread's own stack for good, whose pending `switch` returns
//!   [`FINISHED`].
//!
//! Soundness rests on three rules. Two are checked on every switch: a
//! fiber is run by one thread only, the first to switch to it (it never
//! migrates, so thread-locals and `!Send` data on its stack stay put), and
//! a running or finished fiber cannot be switched to. The third holds by
//! construction: a started fiber keeps itself alive while suspended, so
//! its stack is unmapped only when it is new or finished — never under
//! live frames. A suspended fiber
//! that nobody resumes is leaked, not freed; its owner should run it to
//! the end (the DES kernel does, by unwinding it).
//!
//! Only x86_64 Linux has a switch; other targets fail to build.
//!
//! ```
//! use cp_fiber::{Fiber, FINISHED};
//!
//! let fiber = Fiber::new(|first| assert_eq!(first, 7)).unwrap();
//! assert_eq!(fiber.clone().switch(7), FINISHED);
//! assert!(fiber.take_panic().is_none());
//! ```

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "cp-fiber switches stacks with x86_64 System V assembly and maps them with \
     Linux mmap; the DES kernel runs every simulated process on a fiber and has \
     no other target"
);

mod stack;
mod switch;

use stack::Stack;
use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Usable stack of every fiber: 2 MiB, the default of a std thread, so
/// whatever ran on a thread of its own fits.
pub const STACK_SIZE: usize = 2 << 20;

/// What the thread's own stack receives from [`Fiber::switch`]: it is
/// resumed only when a fiber finishes.
pub const FINISHED: usize = usize::MAX;

/// Fiber states, in the low two bits of [`Inner::state`]; the bits above
/// hold the id of the carrier thread that runs it (zero while new).
const NEW: u64 = 0;
const RUNNING: u64 = 1;
const SUSPENDED: u64 = 2;
const DONE: u64 = 3;
const STATE_BITS: u64 = 3;

type Entry = Box<dyn FnOnce(usize) + Send>;
type Payload = Box<dyn Any + Send>;

struct Inner {
    /// State and home carrier; see [`NEW`].
    state: AtomicU64,
    /// The saved stack pointer while not running.
    sp: UnsafeCell<*mut u8>,
    /// The entry closure, until the fiber first runs.
    entry: Mutex<Option<Entry>>,
    /// The payload of a panic that ended the entry closure.
    panic: Mutex<Option<Payload>>,
    stack: Stack,
}

// SAFETY: `sp` is written by `Fiber::new` before the fiber is shared, and
// afterwards only by the thread that holds the fiber RUNNING (saving its
// context as it switches away); it is read only by the thread whose
// compare-exchange in `switch` just claimed the fiber, which is exclusive,
// and a started fiber can be claimed only by its home thread. `state` is
// atomic. `entry` and `panic` are mutexes of `Send` data. `stack` is an
// address range owned by this fiber alone and unmapped only in `drop`.
unsafe impl Send for Inner {}
// SAFETY: as for `Send`: no field is touched through `&Inner` without the
// atomic state claim or a mutex.
unsafe impl Sync for Inner {}

impl Drop for Inner {
    fn drop(&mut self) {
        let state = *self.state.get_mut() & STATE_BITS;
        if state == NEW || state == DONE {
            // SAFETY: a new fiber never ran, and a finished one returned
            // from its entry closure: the frames left on its stack own
            // nothing. A started, unfinished fiber holds a handle to
            // itself on its own stack, so it never gets here; were it to,
            // leaking the stack is the safe choice.
            unsafe { self.stack.unmap() }
        }
    }
}

/// The per-thread half of the switching: which fiber runs, and where the
/// thread's own stack was suspended.
struct Carrier {
    /// This thread's carrier id, assigned on first use (never zero).
    id: Cell<u64>,
    /// The running fiber; `None` while the thread's own stack runs.
    current: Cell<Option<Arc<Inner>>>,
    /// The thread's own stack pointer while a fiber runs.
    root_sp: Cell<*mut u8>,
    /// A fiber that finished, released once off its own stack.
    finished: Cell<Option<Arc<Inner>>>,
}

thread_local! {
    static CARRIER: Carrier = const {
        Carrier {
            id: Cell::new(0),
            current: Cell::new(None),
            root_sp: Cell::new(std::ptr::null_mut()),
            finished: Cell::new(None),
        }
    };
}

static NEXT_CARRIER_ID: AtomicU64 = AtomicU64::new(1);

impl Carrier {
    /// This thread's id, shifted past the state bits.
    fn home(&self) -> u64 {
        if self.id.get() == 0 {
            self.id.set(NEXT_CARRIER_ID.fetch_add(1, Ordering::Relaxed));
        }
        self.id.get() << 2
    }
}

/// A stackful coroutine that runs on the first thread to switch to it.
///
/// `Fiber` is a shared handle: clones refer to the same fiber. It can be
/// created and passed between threads, but once started it runs only on
/// its home thread.
#[derive(Clone)]
pub struct Fiber {
    inner: Arc<Inner>,
}

impl Fiber {
    /// A new fiber that will run `entry` on a fresh [`STACK_SIZE`] stack.
    /// `entry` receives the message of the first switch to the fiber.
    /// Fails only if the stack cannot be mapped.
    pub fn new(entry: impl FnOnce(usize) + Send + 'static) -> io::Result<Fiber> {
        let inner = Arc::new(Inner {
            state: AtomicU64::new(NEW),
            sp: UnsafeCell::new(std::ptr::null_mut()),
            entry: Mutex::new(Some(Box::new(entry))),
            panic: Mutex::new(None),
            stack: Stack::map(STACK_SIZE)?,
        });
        // SAFETY: the stack top is page aligned with a whole unused stack
        // below it. The argument is this fiber's `Inner`, which outlives
        // every run of it: whoever switches to a fiber hands the carrier
        // a strong reference first. `sp` is not shared yet.
        unsafe {
            *inner.sp.get() =
                switch::initial_frame(inner.stack.top(), Arc::as_ptr(&inner) as usize);
        }
        Ok(Fiber { inner })
    }

    /// Suspend the calling context and run this fiber, which receives
    /// `msg`: a new fiber as its entry's argument, a suspended one as the
    /// return value of the `switch` it is suspended in.
    ///
    /// Returns the message the calling context is resumed with. A fiber
    /// is resumed by whoever switches to it next; the thread's own stack
    /// is resumed only when a fiber finishes, and then receives
    /// [`FINISHED`].
    ///
    /// # Panics
    ///
    /// If this fiber is running (the caller itself, say) or finished, or
    /// was started by another thread.
    pub fn switch(self, msg: usize) -> usize {
        CARRIER.with(|c| {
            let home = c.home();
            let target = self.inner;
            let claim = |from: u64| {
                target.state.compare_exchange(
                    from,
                    home | RUNNING,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
            };
            if let Err(state) = claim(home | SUSPENDED).or_else(|_| claim(NEW)) {
                panic!(
                    "cp-fiber: cannot switch to a fiber that is {}",
                    match state & STATE_BITS {
                        RUNNING => "running",
                        DONE => "finished",
                        _ => "suspended on another thread",
                    }
                );
            }
            // SAFETY: the claim above gave this thread the fiber.
            let resume = unsafe { *target.sp.get() };
            let me = c.current.replace(Some(target));
            let save = match &me {
                Some(me) => {
                    me.state.store(home | SUSPENDED, Ordering::Release);
                    me.sp.get()
                }
                None => c.root_sp.as_ptr(),
            };
            // SAFETY: `resume` is the saved context of a fiber this thread
            // just claimed, so it is not running and may run here, and its
            // stack is mapped: the carrier now holds a reference to it.
            // `save` is the slot of the calling context, which stops
            // running here; a calling fiber keeps itself alive through
            // `me`, which stays on its stack until it is resumed.
            let got = unsafe { switch::switch_context(save, resume, msg) };
            drop(c.finished.take());
            drop(me);
            got
        })
    }

    /// The payload of the panic that ended this fiber's entry closure, if
    /// one did; taken, so a second call returns `None`.
    pub fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.inner
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }
}

/// The first Rust frame of every fiber: run the entry closure, keep its
/// panic, and switch to the thread's own stack for good. `extern` with no
/// unwinding, so even a bug here aborts rather than unwind into the
/// trampoline.
extern "sysv64" fn fiber_main(msg: usize, inner: *const Inner) -> ! {
    // SAFETY: `initial_frame` was given this fiber's `Inner`, and the
    // carrier's `current` holds a strong reference to it while it runs.
    let inner = unsafe { &*inner };
    let entry = inner
        .entry
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
        .expect("a fiber starts once");
    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(move || entry(msg))) {
        *inner.panic.lock().unwrap_or_else(PoisonError::into_inner) = Some(payload);
    }
    CARRIER.with(|c| {
        let me = c.current.take().expect("a running fiber is current");
        let home = me.state.load(Ordering::Relaxed) & !STATE_BITS;
        me.state.store(home | DONE, Ordering::Release);
        // The thread's own stack drops this reference, once this stack is
        // no longer in use.
        c.finished.set(Some(me));
        let mut abandoned = std::ptr::null_mut();
        // SAFETY: while any fiber runs, the thread's own stack is
        // suspended in `Fiber::switch` (a thread's first fiber is started
        // from it, and fibers return to it only here), so `root_sp` is
        // its saved context. This fiber is finished and is never
        // resumed, so its saved pointer goes nowhere.
        unsafe { switch::switch_context(&mut abandoned, c.root_sp.get(), FINISHED) };
        unreachable!("a finished fiber was resumed")
    })
}
