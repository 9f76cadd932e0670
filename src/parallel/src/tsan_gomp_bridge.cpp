// ThreadSanitizer <-> libgomp bridge.
//
// GCC's libgomp synchronizes its thread pool with futexes that TSan cannot
// observe, so even race-free OpenMP code reports false positives: the
// happens-before edges of fork (worker reads the outlined-function argument
// block the spawning thread just wrote), join (the spawning thread reads
// results after the region's closing barrier) and explicit barriers are all
// invisible. Blanket suppressions (`race:libgomp`) would silence REAL races
// too, since every report involving a pool thread carries a libgomp frame.
//
// Instead, this TU interposes the GOMP entry points our code compiles to —
// GOMP_parallel, GOMP_task, GOMP_barrier, and the dynamic-schedule loop
// family GOMP_loop_nonmonotonic_dynamic_start/_next + GOMP_loop_end[_nowait]
// (schedule(static) loops lower to plain GOMP_parallel with no GOMP_loop_*
// calls; schedule(dynamic), used by the pole sweep of omp_hierarchize /
// omp_dehierarchize and by the combination-grid recombine loop, dispatches
// chunks through the nonmonotonic entry points) — and re-creates
// exactly those edges with __tsan_release/__tsan_acquire:
//
//   fork:    release(fork_tag) inside our GOMP_parallel (after the caller
//            stored the argument block) -> acquire(fork_tag) first thing in
//            the per-thread trampoline.
//   join:    release(join_tag) last thing in the trampoline -> acquire
//            (join_tag) after the real GOMP_parallel returns.
//   barrier: every thread releases before and acquires after the real
//            GOMP_barrier, yielding the all-to-all edge.
//   task:    release(task_tag) at GOMP_task -> acquire in the task
//            trampoline; on completion the trampoline releases the barrier
//            and join tags, because tasks run while their thread is already
//            inside a barrier (past that thread's own release) and the
//            OpenMP memory model orders task bodies before whoever leaves
//            that barrier or the region.
//   dynamic loop: libgomp hands out chunks by atomic RMW on a shared
//            iteration counter; an instrumented runtime would publish a
//            release/acquire chain through that counter. The bridge mirrors
//            it on loop_tag: release before + acquire after every _start /
//            _next call, ordering each chunk grab after all earlier ones.
//            GOMP_loop_end carries the worksharing barrier (same edges as
//            GOMP_barrier, on barrier_tag); GOMP_loop_end_nowait is pure
//            bookkeeping and is forwarded without edges — the region's
//            closing barrier (join_tag) provides the ordering, which is
//            exactly the OpenMP nowait contract.
//
// Data conflicts NOT ordered by these constructs — two threads writing one
// coefficient inside a region, a missing barrier between dependent groups —
// have no edge and are still reported, which is the point: the lane stays
// sensitive to real races while the runtime's own machinery is trusted.
//
// Interposition works at static link time: this object defines the GOMP_*
// symbols, so the linker binds our versions and we forward to libgomp via
// dlsym(RTLD_NEXT). The object is pulled out of the archive by the anchor
// reference in omp_algorithms.cpp (enabled by the CSG_TSAN_GOMP_BRIDGE
// compile definition, which CMake sets when CSG_SANITIZE=thread).

namespace csg::parallel::detail {
// Referenced from omp_algorithms.cpp so this TU is linked into every
// binary that uses the OpenMP algorithms.
void tsan_gomp_bridge_anchor() {}
}  // namespace csg::parallel::detail

#if defined(__SANITIZE_THREAD__)

#include <dlfcn.h>
#include <sanitizer/tsan_interface.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

namespace {

char fork_tag, join_tag, barrier_tag, task_tag, loop_tag;

template <typename F>
F resolve(const char* name) {
  void* sym = dlsym(RTLD_NEXT, name);
  if (sym == nullptr) {
    std::fprintf(stderr, "csg tsan bridge: cannot resolve %s\n", name);
    std::abort();
  }
  return reinterpret_cast<F>(sym);
}

struct RegionWrap {
  void (*fn)(void*);
  void* data;
};

void region_trampoline(void* p) {
  auto* w = static_cast<RegionWrap*>(p);
  __tsan_acquire(&fork_tag);
  w->fn(w->data);
  __tsan_release(&join_tag);
}

/// Prepended to the task payload so the executing thread can find the real
/// body. payload_offset keeps the original argument alignment intact;
/// align is remembered for the aligned operator delete (the executing
/// thread owns the block).
struct TaskHeader {
  void (*fn)(void*);
  long payload_offset;
  long align;
};

void run_task(TaskHeader* h) {
  __tsan_acquire(&task_tag);
  h->fn(reinterpret_cast<char*>(h) + h->payload_offset);
  const std::align_val_t align{static_cast<std::size_t>(h->align)};
  // csg-lint: allow-next(raw-alloc) -- block ownership crosses threads; aligned operator delete has no smart-pointer form
  ::operator delete(h, align);
  // Tasks execute when a thread reaches a barrier — explicit GOMP_barrier
  // or the implicit one at region end, both of which happen AFTER that
  // thread's own release in region_trampoline / GOMP_barrier. So the
  // completion edge must be published here, from the task itself, to both
  // rendezvous points: whoever leaves the barrier (acquire(barrier_tag)) or
  // the region (acquire(join_tag)) afterwards is ordered after this body —
  // including the delete above, so the allocator can reuse the block.
  __tsan_release(&barrier_tag);
  __tsan_release(&join_tag);
}

/// Uninstrumented on purpose: `p` points into libgomp's INTERNAL copy of
/// the 8-byte argument block, which the creating thread filled with a
/// TSan-intercepted memcpy after our release(task_tag). An instrumented
/// read here would pair with that memcpy and report a false race on
/// libgomp's own task bookkeeping. Everything we actually care about lives
/// in our TaskHeader block, whose accesses are instrumented in run_task
/// and ordered by the task_tag edge.
__attribute__((no_sanitize("thread"))) void task_trampoline(void* p) {
  run_task(*static_cast<TaskHeader**>(p));
}

}  // namespace

extern "C" {

/// libgomp's own task bookkeeping (gomp_malloc of a task struct in the
/// creating thread, free in whichever thread retires it) is guarded by the
/// runtime's futex-based queue locks, which TSan cannot see — but malloc
/// and free ARE TSan interceptors, so those accesses get recorded and
/// reported as races between pool threads. `called_from_lib` ignores
/// interceptor accesses whose direct caller is libgomp's module and nothing
/// else: user-code accesses are instrumented in our own modules and are
/// unaffected, so real races stay visible. (This is deliberately NOT a
/// `race:` suppression — those match whole report stacks, and every pool
/// thread's stack bottoms out in libgomp, so they would hide everything.)
const char* __tsan_default_suppressions() {
  return "called_from_lib:libgomp\n";
}

void GOMP_parallel(void (*fn)(void*), void* data, unsigned num_threads,
                   unsigned flags) {
  using Fn = void (*)(void (*)(void*), void*, unsigned, unsigned);
  static const Fn real = resolve<Fn>("GOMP_parallel");
  RegionWrap wrap{fn, data};
  __tsan_release(&fork_tag);
  real(region_trampoline, &wrap, num_threads, flags);
  __tsan_acquire(&join_tag);
}

void GOMP_barrier() {
  using Fn = void (*)();
  static const Fn real = resolve<Fn>("GOMP_barrier");
  __tsan_release(&barrier_tag);
  real();
  __tsan_acquire(&barrier_tag);
}

/// schedule(dynamic) chunk dispatch. The release-before/acquire-after pair
/// on loop_tag recreates the release/acquire chain an instrumented runtime
/// would exhibit on its shared iteration counter: every successful chunk
/// grab is ordered after all earlier grabs (and after the loop-local setup
/// done by whichever thread initialised the work share in _start). Writes
/// inside two different chunks remain unordered unless a real OpenMP
/// construct separates them — cross-iteration races stay visible.
bool GOMP_loop_nonmonotonic_dynamic_start(long start, long end, long incr,
                                          long chunk_size, long* istart,
                                          long* iend) {
  using Fn = bool (*)(long, long, long, long, long*, long*);
  static const Fn real = resolve<Fn>("GOMP_loop_nonmonotonic_dynamic_start");
  __tsan_release(&loop_tag);
  const bool got = real(start, end, incr, chunk_size, istart, iend);
  __tsan_acquire(&loop_tag);
  return got;
}

bool GOMP_loop_nonmonotonic_dynamic_next(long* istart, long* iend) {
  using Fn = bool (*)(long*, long*);
  static const Fn real = resolve<Fn>("GOMP_loop_nonmonotonic_dynamic_next");
  __tsan_release(&loop_tag);
  const bool got = real(istart, iend);
  __tsan_acquire(&loop_tag);
  return got;
}

/// End of a worksharing loop WITH the implied barrier (no nowait clause):
/// all-to-all edges exactly as in GOMP_barrier.
void GOMP_loop_end() {
  using Fn = void (*)();
  static const Fn real = resolve<Fn>("GOMP_loop_end");
  __tsan_release(&barrier_tag);
  real();
  __tsan_acquire(&barrier_tag);
}

/// nowait variant: bookkeeping only. No edges on purpose — OpenMP gives no
/// ordering here either; the region's closing barrier (join_tag) is where
/// the loop's writes become visible.
void GOMP_loop_end_nowait() {
  using Fn = void (*)();
  static const Fn real = resolve<Fn>("GOMP_loop_end_nowait");
  real();
}

void GOMP_task(void (*fn)(void*), void* data, void (*cpyfn)(void*, void*),
               long arg_size, long arg_align, bool if_clause, unsigned flags,
               void** depend, int priority, void* detach) {
  using Fn = void (*)(void (*)(void*), void*, void (*)(void*, void*), long,
                      long, bool, unsigned, void**, int, void*);
  static const Fn real = resolve<Fn>("GOMP_task");
  // Build the wrapped payload up front (header + a copy of the task
  // arguments at their original alignment): the original cpyfn, if any,
  // runs here in the creating thread, which matches its firstprivate
  // semantics. libgomp is handed only a pointer to this block, so its own
  // internal copy — made AFTER our release and therefore impossible to
  // order — carries nothing the instrumented code ever reads; the
  // uninstrumented task_trampoline recovers the pointer (see above).
  const long align =
      arg_align > static_cast<long>(alignof(TaskHeader))
          ? arg_align
          : static_cast<long>(alignof(TaskHeader));
  const long offset =
      (static_cast<long>(sizeof(TaskHeader)) + align - 1) / align * align;
  const long total = offset + arg_size;
  // csg-lint: allow-next(raw-alloc) -- task payload block is freed by whichever thread runs the task
  char* buf = static_cast<char*>(::operator new(
      static_cast<std::size_t>(total),
      std::align_val_t{static_cast<std::size_t>(align)}));
  auto* header = new (buf) TaskHeader{fn, offset, align};
  if (cpyfn != nullptr)
    cpyfn(buf + offset, data);
  else
    std::memcpy(buf + offset, data, static_cast<std::size_t>(arg_size));
  __tsan_release(&task_tag);
  void* arg = header;
  real(task_trampoline, &arg, nullptr, static_cast<long>(sizeof(void*)),
       static_cast<long>(alignof(void*)), if_clause, flags, depend, priority,
       detach);
  // The block is freed by run_task in whichever thread executes the task
  // (possibly this one, synchronously, for undeferred tasks).
}

}  // extern "C"

#endif  // __SANITIZE_THREAD__
