// Reserved places of the scheduler: the rarely taken paths of a fall that
// lands without an event (see "A component may also take a sequence
// number" in scheduler.hpp).  They live here, out of line, so the header's
// per-event paths stay small enough to inline where they are called.
#include "sim/scheduler.hpp"

namespace offramps::sim {

void Scheduler::unreserve(Tick t, std::uint64_t seq) {
  for (std::size_t i = reserved_.size(); i-- > 0;) {
    if (reserved_[i].seq == seq && reserved_[i].time == t) {
      reserved_[i] = reserved_.back();
      reserved_.pop_back();
      break;
    }
  }
  if (t < reserved_until_) return;
  reserved_until_ = 0;
  for (const Key& r : reserved_) reserved_until_ = std::max(reserved_until_, r.time);
}

void Scheduler::schedule_reserved(Tick t, std::uint64_t seq, Callback cb) {
  if (passed(t, seq)) {
    throw Error("Scheduler::schedule_reserved: place already passed");
  }
  unreserve(t, seq);
  const std::uint32_t slot = store(std::move(cb));
  push(Key{t, seq, slot});
}

void Scheduler::forget_passed_places() {
  std::erase_if(reserved_,
                [this](const Key& r) { return passed(r.time, r.seq); });
  forget_reserved_at_ = std::max<std::size_t>(16, 2 * reserved_.size());
}

}  // namespace offramps::sim
