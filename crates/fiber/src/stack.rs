//! Fiber stacks: an anonymous private mapping, committed lazily page by
//! page as the fiber touches it, with a `PROT_NONE` guard page below the
//! usable range so an overflow faults instead of overwriting memory.

use std::ffi::{c_int, c_long, c_void};
use std::io;

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x2_0000;
const SC_PAGESIZE: c_int = 30;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn sysconf(name: c_int) -> c_long;
}

/// One mapped stack. It has no `Drop`: whoever owns it decides when no
/// frame can live on it any more and calls [`Stack::unmap`].
pub(crate) struct Stack {
    base: *mut u8,
    len: usize,
}

impl Stack {
    /// Map `usable` bytes of stack (rounded up to whole pages) plus one
    /// guard page below them.
    pub(crate) fn map(usable: usize) -> io::Result<Stack> {
        // SAFETY: sysconf has no preconditions.
        let page = usize::try_from(unsafe { sysconf(SC_PAGESIZE) }).unwrap_or(4096);
        let len = usable.div_ceil(page) * page + page;
        // SAFETY: a fresh anonymous mapping aliases no existing memory.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        if base as usize == usize::MAX {
            return Err(io::Error::last_os_error());
        }
        let stack = Stack {
            base: base.cast(),
            len,
        };
        // SAFETY: the lowest page lies inside the mapping just made, and
        // nothing refers to it yet.
        if unsafe { mprotect(base, page, PROT_NONE) } != 0 {
            let err = io::Error::last_os_error();
            // SAFETY: the mapping was never handed out.
            unsafe { stack.unmap() };
            return Err(err);
        }
        Ok(stack)
    }

    /// One past the highest usable address, 16-byte aligned.
    pub(crate) fn top(&self) -> *mut u8 {
        self.base.wrapping_add(self.len)
    }

    /// Return the mapping to the kernel.
    ///
    /// # Safety
    ///
    /// No live frame or reference may point into the stack.
    pub(crate) unsafe fn unmap(&self) {
        // SAFETY: `base..base + len` is exactly the mapping `map` made,
        // and the caller guarantees nothing still uses it. A failure
        // leaves the pages mapped, which is a leak, not a fault.
        unsafe { munmap(self.base.cast(), self.len) };
    }
}
