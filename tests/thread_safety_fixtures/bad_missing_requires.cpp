// csg-lint fixture: NOT part of the build. Calls a CSG_REQUIRES(mutex_)
// method without holding the mutex; must fail under -Wthread-safety
// -Werror. This is the exact bug class EvalService::take_batch_locked and
// NetServer::reap_locked used to guard with a "Must hold mutex_" comment.
#include <deque>

#include "csg/core/thread_annotations.hpp"

namespace {

class Queue {
 public:
  void push(int v) {
    csg::MutexLock lock(mutex_);
    items_.push_back(v);
    trim_locked();
  }

  // BAD: locked helper called with no lock held.
  void trim() { trim_locked(); }

 private:
  void trim_locked() CSG_REQUIRES(mutex_) {
    while (items_.size() > 8) items_.pop_front();
  }

  csg::Mutex mutex_;
  std::deque<int> items_ CSG_GUARDED_BY(mutex_);
};

}  // namespace

int main() {
  Queue q;
  q.push(1);
  q.trim();
  return 0;
}
