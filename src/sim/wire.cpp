// The rarely taken paths of a wire's falls that land without events (see
// "Forwarders" in wire.hpp).  They live here, out of line, so the
// header's per-edge paths stay small enough to inline where they are
// called.
#include "sim/wire.hpp"

namespace offramps::sim {

bool Wire::forward_held_fall(Wire& dst, Tick delay, FallSource* source) {
  settle();
  if (fall_pending_ && follower_ == nullptr &&
      dst.raise_holding_fall(fall_tick_ + delay, source)) {
    follower_ = &dst;
    return true;
  }
  file_pending_fall();
  dst.set(true);
  return false;
}

void Wire::drop_pending_fall() {
  settle();
  if (!fall_pending_) return;
  fall_pending_ = false;
  sched_.unreserve(fall_tick_, fall_seq_);
  if (Wire* f = std::exchange(follower_, nullptr)) f->drop_pending_fall();
  if (FallSource* s = std::exchange(fall_source_, nullptr)) s->fall_dropped();
}

void Wire::land_fall() {
  fall_pending_ = false;
  follower_ = nullptr;
  fall_source_ = nullptr;
  driven_ = false;
  if (level_) {
    level_ = false;
    last_change_ = fall_tick_;
    ++falling_count_;
  }
}

void Wire::file_held_fall() {
  settle();
  if (!fall_pending_) return;
  fall_pending_ = false;
  if (Wire* f = std::exchange(follower_, nullptr)) f->drop_pending_fall();
  if (FallSource* s = std::exchange(fall_source_, nullptr)) {
    s->file_fall(fall_tick_, fall_seq_);
  } else {
    sched_.schedule_reserved(fall_tick_, fall_seq_, [this] { set(false); });
  }
}

}  // namespace offramps::sim
