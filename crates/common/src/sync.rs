//! Small synchronization helpers shared across the workspace: poison
//! recovery, cooperative cancellation, and SIGINT-to-cancel wiring.

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard if a previous holder panicked.
///
/// The shared state guarded this way in the workspace (the runner's
/// memoized run cache, its spec memo, the worker-pool job queue)
/// consists of maps and counters whose individual updates are atomic with
/// respect to the lock: a panic mid-simulation cannot leave them
/// half-written in a way a later reader would misinterpret. Poisoning is
/// therefore pure downside — one crashed simulation point would wedge
/// every subsequent `cached_points()`/`stats()` call — so we strip it.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A cheap cooperative cancellation flag shared between a controller (a
/// SIGINT handler, a deadline sweep, a test harness) and the workers it
/// may need to stop.
///
/// Clones share one flag. Checking is a single relaxed atomic load, cheap
/// enough to sit on the engine's per-heap-step watchdog cadence without
/// perturbing throughput; cancellation is level-triggered and sticky —
/// once set it stays set for every clone.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation for every clone of this token.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// True once any clone has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// The raw flag pointer, for contexts (signal handlers) that must not
    /// touch the `Arc` refcount. The pointee stays valid for the lifetime
    /// of any clone; callers keep one alive.
    fn flag_ptr(&self) -> *mut AtomicBool {
        Arc::as_ptr(&self.cancelled) as *mut AtomicBool
    }
}

/// Process-wide shutdown-signal state. The handler may only perform
/// async-signal-safe work, so everything it touches is a plain atomic:
/// the flag pointer of the registered [`CancelToken`], a delivery
/// counter, and the signal number behind the last delivery.
static SHUTDOWN_FLAG: AtomicPtr<AtomicBool> = AtomicPtr::new(std::ptr::null_mut());
static SHUTDOWN_COUNT: AtomicU32 = AtomicU32::new(0);

/// How many shutdown signals (SIGINT, and SIGTERM when
/// [`install_shutdown_cancel`] routed it too) the process has received
/// since a handler was installed. Binaries use this to distinguish
/// "cancelled by a signal" (exit 130) from other cancellation sources.
pub fn sigint_count() -> u32 {
    SHUTDOWN_COUNT.load(Ordering::SeqCst)
}

/// Routes SIGINT into `token`: the first Ctrl-C cancels the token so
/// in-flight work can wind down cooperatively (the run cache keeps only
/// completed points); the second hard-exits with status 130 for runs that
/// refuse to die. Returns false (and installs nothing) on non-Unix
/// targets.
///
/// Call once per process, from the binary's setup path, and keep the
/// token (or a clone) alive for the rest of the process: the handler
/// holds a raw pointer to its flag. A second install re-points the
/// handler at the new token and leaks the old flag — one `AtomicBool`
/// per install, only reachable from tests.
pub fn install_sigint_cancel(token: &CancelToken) -> bool {
    // Keep the flag alive for the process lifetime even if the caller
    // drops its token: leak one strong reference.
    std::mem::forget(token.clone());
    SHUTDOWN_FLAG.store(token.flag_ptr(), Ordering::SeqCst);
    install_handler(&[SIGINT])
}

/// Routes *both* SIGINT and SIGTERM into `token` — the long-lived-server
/// variant of [`install_sigint_cancel`], matching how orchestrators stop
/// daemons (SIGTERM first, escalation second). The first delivery of
/// either signal cancels the token so the server can drain gracefully;
/// a second delivery of either hard-exits with the conventional
/// `128 + signum` status for processes that refuse to die. Same
/// lifetime/re-install rules as [`install_sigint_cancel`].
pub fn install_shutdown_cancel(token: &CancelToken) -> bool {
    std::mem::forget(token.clone());
    SHUTDOWN_FLAG.store(token.flag_ptr(), Ordering::SeqCst);
    install_handler(&[SIGINT, SIGTERM])
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

#[cfg(unix)]
#[allow(unsafe_code)]
fn install_handler(signals: &[i32]) -> bool {
    // Hand-rolled FFI keeps the workspace dependency-free: `signal` and
    // `_exit` come from the C runtime the process links anyway.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_shutdown_signal(signum: i32) {
        // Async-signal-safe only: atomics and _exit.
        let flag = SHUTDOWN_FLAG.load(Ordering::SeqCst);
        if !flag.is_null() {
            // SAFETY: the installer leaked a strong reference, so the
            // pointee outlives the process.
            unsafe { (*flag).store(true, Ordering::SeqCst) };
        }
        let delivered = SHUTDOWN_COUNT.fetch_add(1, Ordering::SeqCst) + 1;
        if delivered >= 2 {
            extern "C" {
                fn _exit(status: i32) -> !;
            }
            // SAFETY: _exit is async-signal-safe and never returns.
            unsafe { _exit(128 + signum) };
        }
    }

    for &signum in signals {
        // SAFETY: installing a handler that only performs
        // async-signal-safe operations (see on_shutdown_signal).
        unsafe { signal(signum, on_shutdown_signal as *const () as usize) };
    }
    true
}

#[cfg(not(unix))]
fn install_handler(_signals: &[i32]) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_a_poisoned_mutex() {
        let m = Mutex::new(7u32);
        // Poison it: panic while holding the guard.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison");
        }));
        assert!(result.is_err());
        assert!(m.lock().is_err(), "mutex must actually be poisoned");
        assert_eq!(*lock_unpoisoned(&m), 7, "value survives the poison");
        *lock_unpoisoned(&m) += 1;
        assert_eq!(*lock_unpoisoned(&m), 8);
    }

    #[test]
    fn plain_lock_passes_through() {
        let m = Mutex::new(String::from("ok"));
        assert_eq!(&*lock_unpoisoned(&m), "ok");
    }

    #[test]
    fn cancel_token_is_sticky_and_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        assert!(!clone.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled(), "cancellation must reach every clone");
        clone.cancel();
        assert!(token.is_cancelled(), "cancellation is idempotent");
    }

    #[test]
    fn cancel_token_crosses_threads() {
        let token = CancelToken::new();
        let worker = token.clone();
        let handle = std::thread::spawn(move || {
            while !worker.is_cancelled() {
                std::thread::yield_now();
            }
            true
        });
        token.cancel();
        assert!(handle.join().unwrap());
    }

    // One SIGINT only: the handler hard-exits the process on the second
    // delivery, so this is the single place in the crate's test binary
    // that may raise.
    #[cfg(unix)]
    #[test]
    #[allow(unsafe_code)]
    fn first_sigint_cancels_the_registered_token() {
        extern "C" {
            fn raise(signum: i32) -> i32;
        }
        let token = CancelToken::new();
        assert!(install_sigint_cancel(&token));
        assert!(!token.is_cancelled());
        // SAFETY: raise(SIGINT) delivers to this thread; our handler is
        // installed and only performs async-signal-safe work.
        unsafe { raise(2) };
        assert!(token.is_cancelled(), "first Ctrl-C must cancel the token");
        assert_eq!(sigint_count(), 1);
    }
}
