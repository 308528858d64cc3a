//! The install-once global hook every instrumentation subsystem
//! shares: the trace sink, the launch observers (profile collector,
//! request recorder) and the race checker.
//!
//! Hot path ([`Hook::is_enabled`], [`Hook::with`]): one load of the
//! published pointer. With nothing installed the compiler sees a
//! never-taken branch after a single relaxed load, so an
//! instrumentation site costs nothing measurable when disabled.
//!
//! Safety model: installing boxes the `Arc<T>`, leaks the box and
//! publishes its address with a swap (`Release` half); readers load it
//! with `Acquire` and dereference it without taking any lock. A
//! replaced or removed box is *retired*: it stays leaked, never freed,
//! so a pointer loaded by a racing reader can never dangle. A process
//! installs a handful of values at most, so the intentional leak is
//! bounded and tiny — the classic trade of reclamation complexity for
//! wait-free reads.

use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

/// A process-global slot holding at most one installed `Arc<T>`.
/// Declare it as a `static` and install into it at run time.
pub struct Hook<T: ?Sized> {
    ptr: AtomicPtr<Arc<T>>,
}

impl<T: ?Sized + Send + Sync> Hook<T> {
    /// An empty hook.
    pub const fn new() -> Self {
        Self { ptr: AtomicPtr::new(std::ptr::null_mut()) }
    }

    /// Installs `value`, retiring any previously installed one. The
    /// previous value keeps whatever it recorded (fetch it with
    /// [`Hook::current`] before replacing it) but stops being reached.
    pub fn install(&self, value: Arc<T>) {
        self.ptr.swap(Box::leak(Box::new(value)), Ordering::AcqRel);
    }

    /// Detaches and returns the installed value. Its box stays alive
    /// (retired) in case another thread is mid-read.
    pub fn uninstall(&self) -> Option<Arc<T>> {
        let old = self.ptr.swap(std::ptr::null_mut(), Ordering::AcqRel);
        // SAFETY: non-null pointers in `ptr` come from `Box::leak` and
        // are never freed.
        unsafe { old.as_ref() }.map(Arc::clone)
    }

    /// The installed value, if any.
    pub fn current(&self) -> Option<Arc<T>> {
        self.installed().cloned()
    }

    /// Whether a value is installed: the hot-path guard, one relaxed
    /// load.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        !self.ptr.load(Ordering::Relaxed).is_null()
    }

    /// Runs `f` against the installed value; `None` when nothing is
    /// installed. The disabled path is the one relaxed load of
    /// [`Hook::is_enabled`].
    #[inline(always)]
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> Option<R> {
        if !self.is_enabled() {
            return None;
        }
        self.installed().map(|arc| f(arc))
    }

    #[inline(always)]
    fn installed(&self) -> Option<&Arc<T>> {
        // SAFETY: a non-null pointer is the address of a leaked, fully
        // built box published by `install`'s swap (its `Release` half
        // pairs with this `Acquire` load); retired boxes are never
        // freed, so the reference cannot dangle.
        unsafe { self.ptr.load(Ordering::Acquire).as_ref() }
    }
}

impl<T: ?Sized + Send + Sync> Default for Hook<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn lifecycle() {
        let hook: Hook<AtomicU64> = Hook::new();
        assert!(!hook.is_enabled());
        assert!(hook.with(|_| ()).is_none());
        assert!(hook.uninstall().is_none());

        let first = Arc::new(AtomicU64::new(1));
        hook.install(Arc::clone(&first));
        assert!(hook.is_enabled());
        hook.with(|v| v.fetch_add(1, Ordering::Relaxed));
        assert!(Arc::ptr_eq(&hook.current().unwrap(), &first));

        // Replacing redirects readers; the old value keeps its state.
        let second = Arc::new(AtomicU64::new(10));
        hook.install(Arc::clone(&second));
        assert_eq!(hook.with(|v| v.load(Ordering::Relaxed)), Some(10));
        assert_eq!(first.load(Ordering::Relaxed), 2);

        let back = hook.uninstall().unwrap();
        assert!(Arc::ptr_eq(&back, &second));
        assert!(!hook.is_enabled());
        assert!(hook.current().is_none());
        assert!(hook.with(|_| ()).is_none());

        // Re-install after uninstall works.
        hook.install(first);
        assert_eq!(hook.with(|v| v.load(Ordering::Relaxed)), Some(2));
    }
}
