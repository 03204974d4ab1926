//! Per-thread state for decorators shared by the driver's threads.
//!
//! `run_concurrent` hands one `&dyn Scheduler` to every worker and to
//! its maintenance ticker. A decorator that records per-call state gives
//! each calling thread its own cache-line-padded slot, so the only
//! synchronisation on the measured path is an uncontended lock. The
//! slots are read back once the run has joined its threads.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// More than the two workers, the maintenance ticker and spare room.
const CAPACITY: usize = 8;

static NEXT_OWNER: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// `(owner id, slot index)` of the last `Slots` this thread used.
    static SLOT: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// One slot per line, so two workers never share a cache line.
#[repr(align(128))]
struct Padded<T>(Mutex<T>);

/// A fixed set of per-thread slots. A thread keeps the slot it first
/// drew for as long as it uses only this `Slots`, which holds for one
/// driver run: the driver's threads are fresh for every run.
pub struct Slots<T> {
    owner: usize,
    next: AtomicUsize,
    cells: Vec<Padded<T>>,
}

impl<T: Default> Slots<T> {
    pub fn new() -> Self {
        Slots {
            // ordering: Relaxed — a unique id; nothing is published with it.
            owner: NEXT_OWNER.fetch_add(1, Ordering::Relaxed),
            next: AtomicUsize::new(0),
            cells: (0..CAPACITY)
                .map(|_| Padded(Mutex::new(T::default())))
                .collect(),
        }
    }

    /// Run `f` on the calling thread's slot.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let idx = SLOT.with(|c| {
            let (owner, idx) = c.get();
            if owner == self.owner {
                idx
            } else {
                // ordering: Relaxed — a unique ticket; the slot itself is
                // guarded by its mutex.
                let idx = self.next.fetch_add(1, Ordering::Relaxed);
                c.set((self.owner, idx));
                idx
            }
        });
        let cell = &self
            .cells
            .get(idx)
            .expect("more calling threads than decorator slots")
            .0;
        f(&mut cell.lock().expect("a thread panicked inside a decorator"))
    }

    /// Take the contents of every slot a thread has used (call once the
    /// run has joined its threads).
    pub fn take_used(&self) -> Vec<T> {
        // ordering: Relaxed — read after the driver joined every thread
        // that drew a slot; the join orders their increments before it.
        let used = self.next.load(Ordering::Relaxed).min(CAPACITY);
        self.cells[..used]
            .iter()
            .map(|p| {
                std::mem::take(&mut *p.0.lock().expect("a thread panicked inside a decorator"))
            })
            .collect()
    }
}
