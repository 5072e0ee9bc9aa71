//! The context switch and the entry trampoline, for the x86_64 System V
//! ABI.
//!
//! A suspended context is one stack pointer. Below it, on the context's
//! own stack, lie the callee-saved state its `switch_context` call pushed:
//! MXCSR and the x87 control word, `r15`–`r12`, `rbx`, `rbp`, and the
//! return address. Everything else is caller-saved, so the compiler has
//! already spilled whatever it needs across the call.

use std::arch::naked_asm;

/// MXCSR at reset: all exceptions masked, round to nearest.
const MXCSR_DEFAULT: u64 = 0x1F80;
/// x87 control word at reset: all exceptions masked, 64-bit precision.
const FCW_DEFAULT: u64 = 0x037F;

/// Bytes of the frame [`initial_frame`] lays out below the stack top.
const INITIAL_FRAME: usize = 80;

/// Suspend the calling context, storing its stack pointer in `*save`, and
/// resume the context whose stack pointer is `resume`. The resumed
/// context's own pending `switch_context` call returns `msg`; a new
/// fiber's trampoline receives it instead.
///
/// # Safety
///
/// `save` must be valid for a write. `resume` must be a stack pointer
/// stored by this function, or returned by [`initial_frame`], for a
/// context that is not running, that this thread may run, and whose stack
/// is still mapped.
#[unsafe(naked)]
pub(crate) unsafe extern "sysv64" fn switch_context(
    save: *mut *mut u8,
    resume: *mut u8,
    msg: usize,
) -> usize {
    naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "mov rax, rdx",
        "ret",
    )
}

/// Where a new fiber's first switch "returns" to. It calls
/// [`crate::fiber_main`] with the switch's message and the argument
/// [`initial_frame`] left in `rbx`, and is the outermost frame of the
/// fiber's stack: its unwind info marks the return address undefined and
/// `rbp` is zero, so stack walks (panic backtraces, profilers) end here
/// instead of running off into the stack's unused memory. `fiber_main`
/// never returns and catches every panic, so no unwind reaches it.
#[unsafe(naked)]
unsafe extern "sysv64" fn trampoline() -> ! {
    naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, rax",
        "mov rsi, rbx",
        "call {main}",
        "ud2",
        ".cfi_endproc",
        main = sym crate::fiber_main,
    )
}

/// Lay out a new context below `top` so that the first switch to it
/// enters [`trampoline`] with `arg` in `rbx`, default floating-point
/// control state, and a 16-byte aligned stack. Returns its stack pointer.
///
/// # Safety
///
/// `top` must be 16-byte aligned, with at least 80 writable bytes below
/// it that nothing else uses.
pub(crate) unsafe fn initial_frame(top: *mut u8, arg: usize) -> *mut u8 {
    // Popped in order by switch_context: control words, r15, r14, r13,
    // r12, rbx, rbp, then the return address; two words of padding above
    // leave `rsp` 16-byte aligned at the trampoline's call.
    let frame: [u64; INITIAL_FRAME / 8] = [
        MXCSR_DEFAULT | FCW_DEFAULT << 32,
        0,
        0,
        0,
        0,
        arg as u64,
        0,
        trampoline as *const () as usize as u64,
        0,
        0,
    ];
    // SAFETY: the caller guarantees `top - 80 .. top` is writable and
    // unused, and `top - 80` is 8-byte aligned because `top` is 16-byte
    // aligned.
    unsafe {
        let sp = top.sub(INITIAL_FRAME);
        sp.cast::<[u64; INITIAL_FRAME / 8]>().write(frame);
        sp
    }
}
