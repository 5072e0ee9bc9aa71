//! Behaviour of the stack switch that the DES kernel relies on: messages
//! and register state survive switches, floating-point control state
//! stays with its fiber, panics stop at the fiber's entry, the misuse
//! checks fire, and an overflow hits the guard page.

use cp_fiber::{Fiber, FINISHED, STACK_SIZE};
use std::arch::asm;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::sync::{Arc, Mutex};

/// A handle slot two fibers use to find each other.
type Slot = Arc<Mutex<Option<Fiber>>>;

fn slot() -> Slot {
    Arc::new(Mutex::new(None))
}

fn get(slot: &Slot) -> Fiber {
    slot.lock()
        .unwrap()
        .clone()
        .expect("slot filled before the run")
}

#[test]
fn switch_round_trip_carries_messages() {
    let (a, b) = (slot(), slot());
    let log = Arc::new(Mutex::new(Vec::new()));
    let fa = {
        let (b, log) = (b.clone(), log.clone());
        Fiber::new(move |first| {
            log.lock().unwrap().push(("a", first));
            let back = get(&b).switch(2);
            log.lock().unwrap().push(("a", back));
        })
        .unwrap()
    };
    let fb = {
        let (a, log) = (a.clone(), log.clone());
        Fiber::new(move |first| {
            log.lock().unwrap().push(("b", first));
            let back = get(&a).switch(3);
            log.lock().unwrap().push(("b", back));
        })
        .unwrap()
    };
    *a.lock().unwrap() = Some(fa.clone());
    *b.lock().unwrap() = Some(fb.clone());

    assert_eq!(fa.clone().switch(1), FINISHED, "a finished");
    assert_eq!(
        fb.clone().switch(4),
        FINISHED,
        "b was suspended in its switch to a"
    );
    assert_eq!(
        *log.lock().unwrap(),
        vec![("a", 1), ("b", 2), ("a", 3), ("b", 4)]
    );
    assert!(fa.take_panic().is_none() && fb.take_panic().is_none());
}

#[test]
fn values_live_across_ten_thousand_switches() {
    const ROUNDS: u64 = 10_000;
    let (a, b) = (slot(), slot());
    let results = Arc::new(Mutex::new(Vec::new()));
    // Each switch passes the sender's round; b starts one message behind
    // a, so it always hears a's next round.
    let player = |me: u64, peer: Slot, results: Arc<Mutex<Vec<(u64, u64, f64)>>>| {
        move |_first: usize| {
            // Integers and floats live across every switch; black_box
            // keeps the compiler from folding them into constants.
            let (mut n, mut sum, mut x) = (black_box(me), 0u64, black_box(me as f64 + 0.5));
            for i in 0..ROUNDS {
                n = n
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                sum = sum.wrapping_add(n ^ i);
                x = x * 1.000_001 + 0.25;
                let echoed = get(&peer).switch(i as usize);
                assert_eq!(
                    echoed as u64,
                    i + me - 1,
                    "fiber {me} hears its peer's round"
                );
            }
            results.lock().unwrap().push((n, sum, x));
        }
    };
    let fa = Fiber::new(player(1, b.clone(), results.clone())).unwrap();
    let fb = Fiber::new(player(2, a.clone(), results.clone())).unwrap();
    *a.lock().unwrap() = Some(fa.clone());
    *b.lock().unwrap() = Some(fb.clone());
    assert_eq!(fa.clone().switch(0), FINISHED);
    assert_eq!(fb.clone().switch(ROUNDS as usize), FINISHED);

    // The same arithmetic with no switches in between.
    let expect = |me: u64| {
        let (mut n, mut sum, mut x) = (me, 0u64, me as f64 + 0.5);
        for i in 0..ROUNDS {
            n = n
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            sum = sum.wrapping_add(n ^ i);
            x = x * 1.000_001 + 0.25;
        }
        (n, sum, x)
    };
    assert_eq!(*results.lock().unwrap(), vec![expect(1), expect(2)]);
}

fn mxcsr() -> u32 {
    let mut v = 0u32;
    // SAFETY: stmxcsr stores the 4-byte MXCSR to a valid local.
    unsafe { asm!("stmxcsr [{}]", in(reg) &mut v, options(nostack)) };
    v
}

fn set_mxcsr(v: u32) {
    // SAFETY: ldmxcsr loads a valid control value (reserved bits clear);
    // the tests only change rounding and flush-to-zero modes.
    unsafe { asm!("ldmxcsr [{}]", in(reg) &v, options(nostack)) };
}

fn fcw() -> u16 {
    let mut v = 0u16;
    // SAFETY: fnstcw stores the 2-byte x87 control word to a valid local.
    unsafe { asm!("fnstcw [{}]", in(reg) &mut v, options(nostack)) };
    v
}

fn set_fcw(v: u16) {
    // SAFETY: fldcw loads a control word that keeps every exception
    // masked.
    unsafe { asm!("fldcw [{}]", in(reg) &v, options(nostack)) };
}

#[test]
fn floating_point_control_state_stays_with_its_fiber() {
    const ROUND_TOWARD_ZERO_FTZ: u32 = 0x1F80 | 0x6000 | 0x8000;
    const FCW_SINGLE_PRECISION: u16 = 0x007F;
    let root_mxcsr = mxcsr();
    let root_fcw = fcw();
    let (a, b) = (slot(), slot());
    let seen = Arc::new(Mutex::new(Vec::new()));
    let fa = {
        let (b, seen) = (b.clone(), seen.clone());
        Fiber::new(move |_| {
            set_mxcsr(ROUND_TOWARD_ZERO_FTZ);
            set_fcw(FCW_SINGLE_PRECISION);
            get(&b).switch(0);
            seen.lock().unwrap().push(("a", mxcsr(), fcw()));
        })
        .unwrap()
    };
    let fb = {
        let (a, seen) = (a.clone(), seen.clone());
        Fiber::new(move |_| {
            seen.lock().unwrap().push(("b", mxcsr(), fcw()));
            get(&a).switch(0);
        })
        .unwrap()
    };
    *a.lock().unwrap() = Some(fa.clone());
    *b.lock().unwrap() = Some(fb.clone());
    fa.clone().switch(0);
    fb.clone().switch(0);
    assert_eq!(
        *seen.lock().unwrap(),
        vec![
            // A fresh fiber starts from the reset modes, not a's.
            ("b", 0x1F80, 0x037F),
            // a gets its own modes back after b ran.
            ("a", ROUND_TOWARD_ZERO_FTZ, FCW_SINGLE_PRECISION),
        ]
    );
    assert_eq!(mxcsr(), root_mxcsr, "the carrier keeps its own MXCSR");
    assert_eq!(
        fcw(),
        root_fcw,
        "the carrier keeps its own x87 control word"
    );
}

#[test]
fn a_panic_stops_at_the_fiber_entry_and_is_reported() {
    let fiber = Fiber::new(|_| {
        let _nested = Vec::<u8>::with_capacity(64);
        panic!("boom in fiber {}", black_box(7));
    })
    .unwrap();
    assert_eq!(fiber.clone().switch(0), FINISHED);
    assert!(!std::thread::panicking(), "no unwind reached the carrier");
    let payload = fiber.take_panic().expect("the panic is kept");
    assert_eq!(
        payload.downcast_ref::<String>().map(String::as_str),
        Some("boom in fiber 7")
    );
    assert!(fiber.take_panic().is_none(), "taken once");
}

#[test]
fn misuse_is_a_panic_not_a_bad_switch() {
    // A finished fiber cannot run again.
    let done = Fiber::new(|_| {}).unwrap();
    done.clone().switch(0);
    let again = catch_unwind(AssertUnwindSafe(|| done.clone().switch(0)));
    assert!(again.is_err());

    // A fiber cannot switch to itself.
    let me = slot();
    let selfish = {
        let me = me.clone();
        Fiber::new(move |_| {
            let r = catch_unwind(AssertUnwindSafe(|| get(&me).switch(0)));
            assert!(r.is_err(), "switching to the running fiber panics");
        })
        .unwrap()
    };
    *me.lock().unwrap() = Some(selfish.clone());
    assert_eq!(selfish.clone().switch(0), FINISHED);
    assert!(selfish.take_panic().is_none());
    *me.lock().unwrap() = None;

    // A fiber suspended on one thread cannot be resumed from another.
    let peer = slot();
    let parked = {
        let peer = peer.clone();
        Fiber::new(move |_| {
            get(&peer).switch(0);
        })
        .unwrap()
    };
    *peer.lock().unwrap() = Some(Fiber::new(|_| {}).unwrap());
    assert_eq!(parked.clone().switch(0), FINISHED, "its peer finished");
    let stolen = parked.clone();
    let other =
        std::thread::spawn(move || catch_unwind(AssertUnwindSafe(|| stolen.switch(0))).is_err());
    assert!(other.join().unwrap(), "a foreign thread is refused");
    assert_eq!(parked.clone().switch(0), FINISHED, "its home thread is not");
}

#[test]
fn a_fiber_can_use_most_of_its_stack() {
    let fiber = Fiber::new(|_| {
        let mut buf = [0u8; STACK_SIZE * 3 / 4];
        black_box(&mut buf);
        buf.iter_mut().for_each(|b| *b = 7);
        assert_eq!(
            black_box(&buf).iter().map(|&b| b as usize).sum::<usize>(),
            7 * buf.len()
        );
    })
    .unwrap();
    assert_eq!(fiber.clone().switch(0), FINISHED);
    assert!(fiber.take_panic().is_none());
}

fn recurse(depth: u64) -> u64 {
    let pad = black_box([depth; 64]);
    if depth == 0 {
        return pad[0];
    }
    recurse(black_box(depth - 1)) + pad[1]
}

/// Run in a child process: overflow a fiber's stack.
#[test]
fn overflow_child() {
    if std::env::var_os("CP_FIBER_OVERFLOW_CHILD").is_none() {
        return;
    }
    let fiber = Fiber::new(|_| {
        black_box(recurse(black_box(u64::MAX)));
    })
    .unwrap();
    fiber.switch(0);
}

#[test]
fn a_stack_overflow_hits_the_guard_page() {
    use std::os::unix::process::ExitStatusExt;
    let status = Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "overflow_child",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("CP_FIBER_OVERFLOW_CHILD", "1")
        .output()
        .expect("re-run the test binary")
        .status;
    assert_eq!(
        status.signal(),
        Some(11),
        "SIGSEGV on the guard page: {status:?}"
    );
}
