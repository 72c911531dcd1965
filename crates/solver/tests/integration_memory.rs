//! The integrators keep where they are, not where they went: a solve
//! holds O(n · stages) state however many steps it takes, and the
//! accepted steps reach the caller only through `OdeSystem::accepted`.
//!
//! A counting global allocator measures, on the test's own thread, the
//! allocations a solve makes and its peak of live heap bytes. A solve
//! to 10·T must cost no more of either than the same solve to T, within
//! a small constant. A [`Recorder`] then checks what the hook reports.

use om_solver::{
    abm4, bdf, dopri5, lsoda, rk4, BdfOptions, FnSystem, LsodaOptions, OdeSystem, Recorder,
    Solution, Tolerances,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(bytes: isize, allocs: usize) {
    // `try_with`: a thread's last frees may run after its locals are gone.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + allocs));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialised thread locals without destructors, so touching them
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize, 1);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize, 1);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize), 0);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize, 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What one solve cost this thread's heap.
#[derive(Clone, Copy, Debug)]
struct Usage {
    allocs: usize,
    /// Peak live bytes above the level at the start.
    peak_bytes: isize,
}

fn measure(f: impl FnOnce() -> Solution) -> (Usage, Solution) {
    let (allocs0, live0) = (ALLOCS.with(Cell::get), LIVE.with(Cell::get));
    PEAK.with(|p| p.set(live0));
    let sol = f();
    let usage = Usage {
        allocs: ALLOCS.with(Cell::get) - allocs0,
        peak_bytes: PEAK.with(Cell::get) - live0,
    };
    (usage, sol)
}

/// A 16-state damped chain driven at one end: mildly stiff, never at
/// rest, and wide enough that one stored trajectory point is 128 bytes.
const N: usize = 16;

fn chain() -> FnSystem<impl FnMut(f64, &[f64], &mut [f64])> {
    FnSystem::new(N, |t: f64, y: &[f64], d: &mut [f64]| {
        for i in 0..N {
            let left = if i > 0 { y[i - 1] } else { (20.0 * t).cos() };
            let right = if i + 1 < N { y[i + 1] } else { 0.0 };
            d[i] = left - 2.0 * y[i] + right - 0.1 * y[i];
        }
    })
}

fn y0() -> Vec<f64> {
    (0..N).map(|i| (0.3 * i as f64).sin()).collect()
}

type Solve = fn(&mut dyn OdeSystem, &[f64], f64) -> Solution;

/// Each integrator as `omc simulate` calls it, from t = 0.
const SOLVERS: [(&str, Solve); 5] = [
    ("rk4", |sys, y0, tend| {
        rk4(sys, 0.0, y0, tend, 0.01).unwrap()
    }),
    ("dopri5", |sys, y0, tend| {
        dopri5(sys, 0.0, y0, tend, &Tolerances::default()).unwrap()
    }),
    ("abm", |sys, y0, tend| {
        abm4(sys, 0.0, y0, tend, &Tolerances::default()).unwrap()
    }),
    ("bdf", |sys, y0, tend| {
        bdf(sys, 0.0, y0, tend, &BdfOptions::default()).unwrap()
    }),
    ("lsoda", |sys, y0, tend| {
        lsoda(sys, 0.0, y0, tend, &LsodaOptions::default())
            .unwrap()
            .solution
    }),
];

/// Allocations a longer solve may add. None is expected: every stepper
/// allocates its buffers once (LSODA one per method) and none per step.
const SLACK_ALLOCS: usize = 2;
/// Peak bytes a longer solve may add: two trajectory points' worth.
const SLACK_BYTES: isize = 256;

#[test]
fn a_ten_times_longer_solve_allocates_no_more() {
    let y0 = y0();
    for (name, solve) in SOLVERS {
        let (short, s) = measure(|| solve(&mut chain(), &y0, 10.0));
        let (long, l) = measure(|| solve(&mut chain(), &y0, 100.0));
        eprintln!(
            "{name:<7} T: {:>5} steps, {:>3} allocs, {:>6} peak bytes; \
             10T: {:>5} steps, {:>3} allocs, {:>6} peak bytes",
            s.stats.steps,
            short.allocs,
            short.peak_bytes,
            l.stats.steps,
            long.allocs,
            long.peak_bytes
        );
        // The longer solve really is longer: held trajectories would show.
        assert!(
            (l.stats.steps - s.stats.steps) as isize * (N * 8) as isize > 4 * SLACK_BYTES,
            "{name}: {} vs {} steps",
            l.stats.steps,
            s.stats.steps
        );
        assert!(
            long.allocs <= short.allocs + SLACK_ALLOCS,
            "{name}: {short:?} at T, {long:?} at 10T"
        );
        assert!(
            long.peak_bytes <= short.peak_bytes + SLACK_BYTES,
            "{name}: {short:?} at T, {long:?} at 10T"
        );
    }
}

#[test]
fn the_recorder_sees_every_accepted_step_and_ends_where_the_solve_did() {
    let y0 = y0();
    for (name, solve) in SOLVERS {
        let mut run = Recorder::new(chain());
        let sol = solve(&mut run, &y0, 3.0);
        assert_eq!(run.ts.len(), sol.stats.steps + 1, "{name}");
        assert_eq!(run.ys.len(), run.ts.len(), "{name}");
        assert_eq!((run.ts[0], &run.ys[0]), (0.0, &y0), "{name}: starts at t0");
        assert!(
            run.ts.windows(2).all(|w| w[0] < w[1]),
            "{name}: t not strictly increasing"
        );
        let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            run.ts.last().map(|t| t.to_bits()),
            Some(sol.t_end().to_bits()),
            "{name}"
        );
        assert_eq!(
            run.ys.last().map(|y| bits(y)),
            Some(bits(sol.y_end())),
            "{name}"
        );
        // Wrapping the system changes no digit of the solve.
        let plain = solve(&mut chain(), &y0, 3.0);
        assert_eq!(plain.stats, sol.stats, "{name}");
        assert_eq!(bits(plain.y_end()), bits(sol.y_end()), "{name}");
    }
}
